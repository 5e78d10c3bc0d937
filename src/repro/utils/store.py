"""The shape every engine cache shares: a budgeted LRU map.

The plan and result caches differ in what they key on and when an
entry dies — that stays with each owner.  What they have in common
lives here, once: :class:`LRUStore`, an ordered map under a budget.

Each entry has a size: ``1`` for a count budget, its estimated bytes
for a byte budget.  ``get`` marks an entry most recently used; ``put``
evicts least-recently-used entries until the sizes fit and reports what
it evicted.  It takes **no lock of its own**: an owner mutates it only
under the owner's existing lock (the contract
:class:`~repro.reuse.registry.FamilyDigestTracker` follows), so adopting
it adds no lock and no ordering edge.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUStore(Generic[K, V]):
    """Budgeted LRU map; mutated only under its owner's lock."""

    def __init__(self, budget: int) -> None:
        if budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = budget
        self._entries: OrderedDict[K, tuple[V, int]] = OrderedDict()
        self._used = 0

    @property
    def used(self) -> int:
        """Sum of the resident entries' sizes; never above ``budget``."""
        return self._used

    def get(self, key: K) -> V | None:
        """The value under ``key``, now most recently used, or ``None``."""
        slot = self._entries.get(key)
        if slot is None:
            return None
        self._entries.move_to_end(key)
        return slot[0]

    def put(self, key: K, value: V, size: int = 1) -> list[tuple[K, V]]:
        """Store ``value`` as most recently used (replacing ``key``'s old
        value), then evict least-recently-used entries until the budget
        holds.  Returns the evicted pairs, oldest first.

        An entry larger than the whole budget is not admitted: it comes
        back as the only eviction and no other entry is disturbed.
        """
        self.pop(key)
        if size > self.budget:
            return [(key, value)]
        self._entries[key] = (value, size)
        self._used += size
        evicted: list[tuple[K, V]] = []
        while self._used > self.budget:
            old_key, (old_value, old_size) = self._entries.popitem(last=False)
            self._used -= old_size
            evicted.append((old_key, old_value))
        return evicted

    def pop(self, key: K) -> V | None:
        """Remove ``key``; its value, or ``None`` if it was absent."""
        slot = self._entries.pop(key, None)
        if slot is None:
            return None
        self._used -= slot[1]
        return slot[0]

    def drop_if(self, predicate: Callable[[K, V], bool]) -> int:
        """Remove every entry ``predicate(key, value)`` selects (the
        owners' version and generation sweeps); returns how many."""
        doomed = [key for key, (value, _) in self._entries.items()
                  if predicate(key, value)]
        for key in doomed:
            self.pop(key)
        return len(doomed)

    def clear(self) -> int:
        """Remove everything; returns how many entries were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._used = 0
        return dropped

    def items(self) -> list[tuple[K, V]]:
        """Snapshot of the entries, least recently used first."""
        return [(key, value) for key, (value, _) in self._entries.items()]

    def __len__(self) -> int:
        return len(self._entries)

