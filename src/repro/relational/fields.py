"""Declarative field protocol shared by expressions and plan nodes.

A class states its structure once — ``fields`` (its non-child
constructor parameters, in constructor order), ``expr_fields`` (the
fields that hold expressions) and ``literal_fields`` (the fields that
are literal slots) — plus how it prints (``render``).  Every
structural walker is derived from that declaration here and in the two
base classes (:class:`~repro.relational.expressions.Expr`,
:class:`~repro.relational.logical.LogicalPlan`): sub-expression
iteration and rebuild, the literal map that both collects and rebinds
literal sites, and valued (``repr``) versus masked (:func:`mask`)
rendering.  Adding a node type is therefore a declaration, not an arm
in each walker.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Any, Callable, ClassVar, Iterator, TypeVar, cast

#: Formats one literal value inside :meth:`Fielded.render`.
LiteralFormat = Callable[[object], str]
TermFn = Callable[["Fielded"], "Fielded"]

_F = TypeVar("_F", bound="Fielded")


def mask(value: object) -> str:
    """Literal format of fingerprints: the value's type, never the value."""
    return f"?{type(value).__name__}"


def shown(value: object, lit: LiteralFormat) -> str:
    """Render one field value: expressions through their own ``render``,
    sequences item by item, anything else through ``lit``."""
    if isinstance(value, Fielded):
        return value.render(lit)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(shown(item, lit) for item in value) + "]"
    return lit(value)


def _terms(value: object) -> Iterator["Fielded"]:
    if isinstance(value, Fielded):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _terms(item)


def _map_terms(value: Any, fn: TermFn) -> Any:
    if isinstance(value, Fielded):
        return fn(value)
    if isinstance(value, list):
        return [_map_terms(item, fn) for item in value]
    if isinstance(value, tuple):
        return tuple([_map_terms(item, fn) for item in value])
    return value


class Fielded:
    """Base of everything that declares its fields (see module docs)."""

    #: Non-child constructor parameters, in constructor order.
    fields: ClassVar[tuple[str, ...]] = ()
    #: The fields holding expressions: a :class:`Fielded`, ``None``, or
    #: a (nested) sequence containing them (aliases ride along as-is).
    expr_fields: ClassVar[tuple[str, ...]] = ()
    #: The fields that are literal slots.  ``None`` is an absent slot
    #: and a list holds one slot per item.  Sites are visited in
    #: ``fields`` order, so declaration order *is* literal-site order.
    literal_fields: ClassVar[tuple[str, ...]] = ()
    #: ``(field, is_literal)`` for every expression/literal field —
    #: resolved once per class, not per call.
    _slots: ClassVar[tuple[tuple[str, bool], ...]] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        marked = set(cls.expr_fields) | set(cls.literal_fields)
        if not marked <= set(cls.fields):
            raise TypeError(f"{cls.__name__}: {sorted(marked - set(cls.fields))}"
                            f" marked as expression/literal but not declared"
                            f" in fields")
        cls._slots = tuple((name, name in cls.literal_fields)
                           for name in cls.fields if name in marked)

    def _replace(self: _F, changes: dict[str, Any]) -> _F:
        """A copy of this node with the fields in ``changes`` replaced
        (built positionally from ``fields``, the constructor order)."""
        build: Any = type(self)
        return cast(_F, build(*[changes.get(name, getattr(self, name))
                                for name in self.fields]))

    def terms(self) -> list["Fielded"]:
        """The expressions this node holds directly."""
        held: list[Fielded] = []
        for name in self.expr_fields:
            value = getattr(self, name)
            if isinstance(value, Fielded):
                held.append(value)
            else:
                held.extend(_terms(value))
        return held

    def map_terms(self: _F, fn: TermFn) -> _F:
        """A copy with ``fn`` applied to each directly held expression."""
        if not self.expr_fields:
            return self
        return self._replace({name: _map_terms(getattr(self, name), fn)
                              for name in self.expr_fields})

    def _map_slots(self, fn: Callable[[Any], Any]) -> dict[str, Any]:
        """This node's own literal sites mapped through ``fn`` (in site
        order), as replacement fields."""
        changes: dict[str, Any] = {}
        for name, is_literal in self._slots:
            value = getattr(self, name)
            if not is_literal:
                value = _map_terms(value, methodcaller("map_literals", fn))
            elif isinstance(value, list):
                value = [fn(item) for item in value]
            elif value is not None:
                value = fn(value)
            changes[name] = value
        return changes

    def map_literals(self: _F, fn: Callable[[Any], Any]) -> _F:
        """A copy with ``fn`` applied at every literal site, visited in
        one fixed order — the single walk behind both collecting sites
        and rebinding them, so the two can never disagree."""
        return self._replace(self._map_slots(fn)) if self._slots else self

    def render(self, lit: LiteralFormat = repr) -> str:
        """One-line rendering; ``lit`` formats literal values (``repr``
        prints them, :func:`mask` prints ``?type``).  This default is
        derived from the declaration; classes override it to pick
        their own notation."""
        slots = {name for name, _ in self._slots}
        inner = ", ".join(
            f"{name}="
            + shown(getattr(self, name), lit if name in slots else str)
            for name in self.fields)
        return f"{type(self).__name__}[{inner}]"

    def __repr__(self) -> str:
        return self.render(repr)
