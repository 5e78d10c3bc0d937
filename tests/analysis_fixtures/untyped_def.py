"""Seeded annotation gap: one def in a strict module lacks annotations.

The fixture config declares this module strict, as ``mypy.ini`` does
for the engine's typed core.  Everything here is annotated the way
mypy's strict flags accept — including an ``__init__`` that omits
``-> None`` because a parameter is annotated, and a staticmethod —
except ``untyped``, which must be the single TY001.
"""

from __future__ import annotations


def typed(value: int, *rest: str, flag: bool = False,
          **extra: object) -> int:
    return value


class Box:
    def __init__(self, size: int):
        self.size = size

    def method(self) -> int:
        return self.size

    @staticmethod
    def helper(value: int) -> int:
        return value


def untyped(predicate):  # TY001 here
    return predicate
