"""Canonical form + digest of a parsed SQL statement (plan-cache keys).

The serving layer's plan cache must recognise a repeated statement no
matter how the client spelled it: extra whitespace, keyword case, or
redundant formatting all lex away, so two texts that parse to the same
AST must map to one cache entry.  This module renders a parsed
:class:`~repro.engine.sql.ast.SelectStatement` into a deterministic
**canonical template** in which every literal is replaced by a typed
placeholder (``?int``, ``?float``, ``?str``, ``?date``), plus the tuple
of extracted literal values in template order.

Why literals are *parameterized out* of the template but kept in the
full cache key: the template digest groups statements into **families**
("same shape, different constants"), but the cached plan itself is
keyed on the concrete parameter tuple as well — a different constant
legitimately changes selectivity estimates, and with them the
optimizer's join order and access-path choices, so per-literal
("custom") plans are the default, mirroring mainstream engines.  A
family only graduates to a shared **generic plan** after the plan
cache has *observed* that several distinct literal tuples all optimize
to the same literal-masked plan fingerprint — and even then rechecks
and demotion guard the assumption (see
:mod:`repro.engine.plan_cache` and ``docs/optimizer.md``).  Families
whose plans embed DIP-derived predicates never qualify.

The digest is BLAKE2b over the template text: collision-resistant, and
stable across processes (no reliance on Python's randomized ``hash``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.engine.sql import ast
from repro.storage.types import parse_date


@dataclass(frozen=True)
class CanonicalQuery:
    """A statement's canonical template, literal values, and digest."""

    #: Deterministic rendering with typed literal placeholders.
    template: str
    #: Extracted literal values, in template placeholder order.
    parameters: tuple
    #: BLAKE2b hex digest of ``template`` — the statement-family key.
    digest: str

    @property
    def key(self) -> tuple:
        """Exact-statement identity: family digest + concrete literals."""
        return (self.digest, self.parameters)


def canonicalize(statement: ast.SelectStatement) -> CanonicalQuery:
    """Render ``statement`` to its canonical template + parameters."""
    parameters: list = []
    template = _statement(statement, parameters)
    digest = hashlib.blake2b(template.encode("utf-8"),
                             digest_size=16).hexdigest()
    return CanonicalQuery(template=template, parameters=tuple(parameters),
                          digest=digest)


# ---------------------------------------------------------------------------
# statement rendering
# ---------------------------------------------------------------------------
def _statement(s: ast.SelectStatement, out: list) -> str:
    parts = ["select"]
    if s.items:
        parts.append(", ".join(_select_item(item, out) for item in s.items))
    else:
        parts.append("*")
    if s.base is not None:
        parts.append("from " + _table_ref(s.base))
    for join in s.joins:
        parts.append(_join(join, out))
    if s.where is not None:
        parts.append("where " + _expr(s.where, out))
    if s.group_by:
        parts.append("group by "
                     + ", ".join(c.dotted for c in s.group_by))
    if s.semantic_group_by is not None:
        g = s.semantic_group_by
        out.append(g.threshold)
        parts.append(f"semantic group by {g.column.dotted}"
                     f" model {g.model or '<default>'} threshold ?float")
    if s.order_by:
        parts.append("order by " + ", ".join(
            f"{o.column.dotted} {'asc' if o.ascending else 'desc'}"
            for o in s.order_by))
    if s.limit is not None:
        out.append(s.limit)
        parts.append("limit ?int")
    return " ".join(parts)


def _select_item(item: ast.SelectItem, out: list) -> str:
    rendered = _expr(item.expr, out)
    if item.alias:
        rendered += f" as {item.alias}"
    return rendered


def _table_ref(ref: ast.TableRef) -> str:
    if ref.alias:
        return f"{ref.name} as {ref.alias}"
    return ref.name


def _join(join: ast.JoinClause, out: list) -> str:
    parts = [f"{join.kind} join", _table_ref(join.table)]
    if join.left_keys:
        pairs = ", ".join(
            f"{l.dotted} = {r.dotted}"
            for l, r in zip(join.left_keys, join.right_keys))
        parts.append("on " + pairs)
    if join.kind == "semantic":
        out.append(join.threshold)
        parts.append(f"model {join.model or '<default>'} threshold ?float")
        if join.top_k is not None:
            out.append(join.top_k)
            parts.append("top ?int")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# expression rendering
# ---------------------------------------------------------------------------
def _expr(node: ast.SqlExpr, out: list) -> str:
    if isinstance(node, ast.ColumnName):
        return node.dotted
    if isinstance(node, ast.NumberLit):
        out.append(node.value)
        return "?int" if node.is_integer else "?float"
    if isinstance(node, ast.StringLit):
        out.append(node.value)
        return "?str"
    if isinstance(node, ast.DateLit):
        out.append(_date_parameter(node.iso))
        return "?date"
    if isinstance(node, ast.BoolOp):
        return (f"({_expr(node.left, out)} {node.op} "
                f"{_expr(node.right, out)})")
    if isinstance(node, ast.NotOp):
        return f"(not {_expr(node.operand, out)})"
    if isinstance(node, ast.Comparison):
        return (f"({_expr(node.left, out)} {node.op} "
                f"{_expr(node.right, out)})")
    if isinstance(node, ast.BinaryArith):
        return (f"({_expr(node.left, out)} {node.op} "
                f"{_expr(node.right, out)})")
    if isinstance(node, ast.InListExpr):
        values = ", ".join(_expr(v, out) for v in node.values)
        return f"({_expr(node.operand, out)} in ({values}))"
    if isinstance(node, ast.FuncCall):
        if node.star:
            inner = "*"
        else:
            inner = ", ".join(_expr(a, out) for a in node.args)
            if node.distinct:
                inner = "distinct " + inner
        return f"{node.name}({inner})"
    if isinstance(node, ast.SemanticPredicate):
        out.append(node.probe)
        out.append(node.threshold)
        return (f"({node.column.dotted} ~[{node.mode}] ?str"
                f" model {node.model or '<default>'} threshold ?float)")
    raise TypeError(f"cannot canonicalize {type(node).__name__}")


def _date_parameter(iso: str) -> int | str:
    """A DATE literal's parameter: the day number the binder puts at its
    plan site, so promotion can map the site back to the parameter.  An
    unparseable date stays its text; binding reports the error."""
    try:
        return parse_date(iso)
    except ValueError:
        return iso
