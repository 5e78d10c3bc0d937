"""Append-monotone delta maintenance for cached results.

When rows are appended to a table, a cached result whose plan is
**append-monotone** can be patched from the delta instead of thrown
away: re-running the plan over only the new rows and merging with the
cached snapshot reproduces — bit for bit — what a full re-execution
over the grown table would return.  This module decides *which* plans
qualify and performs the merges; everything it cannot prove is refused
with a reason, and the refusal is the fallback the ingest manager turns
into targeted invalidation (the same prove-or-refuse discipline as
:mod:`repro.reuse`).

Proof obligations (``docs/ingest.md`` carries the full argument):

- **Concat form** — a chain of row-local, order-preserving operators
  (filter, project, semantic filter) over a single scan satisfies
  ``out(old ++ delta) == out(old) ++ out(delta)``: each operator decides
  and computes per row, and batch boundaries never change per-row
  results (cosine scores are one GEMV row each).
- **Limit form** — ``Limit(chain)``: the chain is prefix-stable under
  append, so a cached result that already holds ``n`` rows is the
  final answer, and a shorter one extends from the delta's output.
- **Top-k / order form** — ``[Limit] Sort (chain)``: appended rows can
  only push old rows *down*, so the merged top-k draws from the cached
  top-k plus the delta's own sorted output.  Bit-identical order is the
  subtle part: ``Table.sort_by`` reverses the *whole* order once per
  descending key, which has two observable consequences the merge must
  reproduce exactly.  First, each reversal flips the direction of every
  key after it — key ``i``'s **effective** direction is its declared
  one flipped iff an odd number of the keys *before* it are descending.
  Second, rows fully tied across all keys end up in input order when
  the total number of descending keys is even and in *reversed* input
  order when it is odd.  The merge therefore concatenates
  ``(cached, delta)`` for even parity and ``(delta, cached)`` for odd,
  then applies one **stable** lexicographic sort over the *effective*
  directions with no reversals (descending keys negate their rank
  codes) — reproducing exactly the rebuild's order in both cases.
- **Aggregate form** — ``Aggregate(chain)`` with mergeable functions:
  COUNT and integer SUM add, MIN/MAX combine (``None`` empty-input and
  NaN-propagation semantics preserved).  Group order is rebuilt as the
  hash aggregate would produce it: cached groups in cached order (first
  occurrence over the old rows), then delta-only groups in the delta's
  first-occurrence order.  Float SUM is refused (``float-sum``) —
  NumPy's pairwise summation is not associative, so a merged sum could
  differ in the last ulp from a rebuild.  COUNT(DISTINCT) is refused
  (the value sets are not in the cached output); Sort/Limit *above* an
  aggregate is refused (the pre-sort group order is unrecoverable from
  a sorted snapshot).
- **Integer AVG** — not decomposable from the visible output, so the
  classifier builds a **partial** aggregate over the same chain and
  group keys in which each ``AVG(x)`` becomes hidden ``SUM(x)``,
  ``COUNT(*)``, ``MIN(x)`` and ``MAX(x)`` columns.  The partial is kept
  beside the cached result, merged with the delta's partial by the
  aggregate merge above, and the visible row is derived from it.  The
  rebuild computes ``float(np.mean(values.astype(np.float64)))``; for
  int64 values with ``Σ|x| ≤ 2**53`` every cast is exact and every
  pairwise partial sum is an exactly representable integer, so that
  mean equals ``float(S) / n`` for the exact integer sum ``S``.  The
  partial's extremes bound ``Σ|x|`` by ``max(|min|, |max|) · n`` per
  group; a bound above ``2**53`` refuses as ``avg-inexact``.  AVG over
  a float (or any non-integer) column refuses as ``float-sum``, for
  the same reason float SUM does.

Everything else — joins, unions, semantic group-by (clustering is a
global function of the column), semantic semi-filters (data-induced
predicates derived from old contents), sort keys projected away, NaN
in a sort key — is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.relational.expressions import AggExpr, AggFunc, ColumnRef, Literal
from repro.relational.keys import effective_directions, stable_order
from repro.relational.logical import (
    AggregateNode,
    FilterNode,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
    SemanticFilterNode,
    SortNode,
)
from repro.storage.table import Table
from repro.storage.types import DataType, coerce_array


class DeltaRefused(Exception):
    """A plan (or a concrete merge) failed an append-monotonicity proof.

    ``reason`` is a stable slug (``"non-monotone-operator:JoinNode"``,
    ``"float-sum"``, ``"nan-in-sort-key"``, ...) surfaced in ingest
    reports and metrics.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class AvgColumns(NamedTuple):
    """The hidden partial columns one ``AVG(x) AS alias`` folds from."""

    alias: str
    total: str          # SUM(x)
    count: str          # COUNT(*)
    low: str            # MIN(x)
    high: str           # MAX(x)


#: An integer mean is exact while ``Σ|x|`` stays an exactly
#: representable float64 integer.
EXACT_SUM_BOUND = 2 ** 53


@dataclass(frozen=True)
class DeltaSpec:
    """A proven-mergeable plan: which merge applies and its inputs.

    ``kind`` is one of ``"concat"``, ``"limit"``, ``"topk"``,
    ``"aggregate"``.  ``sort_keys`` are in the plan's *output* column
    space (renames above the sort already resolved).  An aggregate with
    an AVG also carries its ``partial`` aggregate and, per AVG, the
    hidden columns it folds from (``avgs``); the merge then runs on
    partials (:func:`merge_partial`), not on the visible output.
    """

    kind: str
    table: str
    limit: int | None = None
    sort_keys: tuple[tuple[str, bool], ...] = ()
    aggregate: AggregateNode | None = None
    partial: AggregateNode | None = None
    avgs: tuple[AvgColumns, ...] = ()


#: Chain operators that are row-local and order-preserving under
#: concatenation.  Everything else refuses.
_CHAIN_NODES = (FilterNode, ProjectNode, SemanticFilterNode)


def classify_plan(plan: LogicalPlan, table: str) -> DeltaSpec:
    """Prove ``plan`` append-monotone over ``table`` or refuse.

    Accepted shape (top-down): ``Project* [Limit] Project* [Sort]
    chain`` or a bare ``Aggregate(chain)``, where ``chain`` is built
    from :data:`_CHAIN_NODES` over a single scan of ``table``.  Raises
    :class:`DeltaRefused` otherwise.
    """
    node = plan
    limit: int | None = None
    sort: SortNode | None = None
    projects_above_sort: list[ProjectNode] = []
    while True:
        if isinstance(node, ProjectNode):
            if sort is None:
                projects_above_sort.append(node)
            else:
                break           # projects below the sort join the chain
            node = node.child
        elif isinstance(node, LimitNode):
            if limit is not None:
                raise DeltaRefused("multiple-limits")
            if sort is not None:
                # Sort(…Limit(…)) truncates *before* ordering: the kept
                # prefix changes under append, unrecoverable from the
                # cached output.
                raise DeltaRefused("limit-below-sort")
            limit = node.count
            node = node.child
        elif isinstance(node, SortNode):
            if sort is not None:
                raise DeltaRefused("multiple-sorts")
            sort = node
            node = node.child
        else:
            break

    if isinstance(node, AggregateNode):
        if limit is not None or sort is not None or projects_above_sort:
            raise DeltaRefused("order-above-aggregate")
        _check_chain(node.child, table)
        if not any(agg.func is AggFunc.AVG for agg in node.aggregates):
            _check_aggregate(node)
            return DeltaSpec(kind="aggregate", table=table, aggregate=node)
        partial, avgs = _partial_aggregate(node)
        _check_aggregate(partial)
        return DeltaSpec(kind="aggregate", table=table, aggregate=node,
                         partial=partial, avgs=avgs)

    _check_chain(node, table)
    if sort is not None:
        keys = _resolve_sort_keys(sort, projects_above_sort)
        return DeltaSpec(kind="topk", table=table, limit=limit,
                         sort_keys=keys)
    if limit is not None:
        return DeltaSpec(kind="limit", table=table, limit=limit)
    return DeltaSpec(kind="concat", table=table)


def _check_chain(node: LogicalPlan, table: str) -> None:
    """Validate the row-local chain down to a single scan of ``table``."""
    while True:
        if isinstance(node, ScanNode):
            if node.table_name != table:
                raise DeltaRefused(f"scan-of-other-table:{node.table_name}")
            return
        if isinstance(node, _CHAIN_NODES):
            node = node.children[0]
            continue
        raise DeltaRefused(f"non-monotone-operator:{type(node).__name__}")


def _check_aggregate(node: AggregateNode) -> None:
    """Refuse aggregate functions that do not merge exactly."""
    fields = node.schema.fields
    offset = len(node.group_keys)
    for index, agg in enumerate(node.aggregates):
        if agg.func is AggFunc.COUNT_DISTINCT:
            # needs the value sets, which no cached output holds
            raise DeltaRefused(f"non-mergeable-aggregate:{agg.func.value}")
        if agg.func is AggFunc.SUM \
                and fields[offset + index].dtype is not DataType.INT64:
            # float pairwise summation is not associative: a merged sum
            # may differ from a rebuild in the last ulp
            raise DeltaRefused("float-sum")


def _partial_aggregate(node: AggregateNode
                       ) -> tuple[AggregateNode, tuple[AvgColumns, ...]]:
    """The aggregate whose output an AVG-bearing ``node`` merges through.

    Each ``AVG(x)`` becomes hidden ``SUM(x)``, ``COUNT(*)``, ``MIN(x)``
    and ``MAX(x)`` columns under names no input or output column uses;
    every other aggregate stays as it is.  A global aggregate groups by
    one constant instead, so an empty input yields no partial row (the
    hash aggregate's one empty-input row cannot hold ``MIN`` of no
    integers).
    """
    child = node.child
    taken = set(child.schema.names) | set(node.schema.names)

    def hidden(name: str) -> str:
        while name in taken:
            name = "_" + name
        taken.add(name)
        return name

    keys = list(node.group_keys)
    if not keys:
        keys = [hidden("#group")]
        child = ProjectNode(
            child, [(ColumnRef(name), name) for name in child.schema.names]
            + [(Literal(0), keys[0])])
    aggregates: list[AggExpr] = []
    avgs: list[AvgColumns] = []
    for agg in node.aggregates:
        if agg.func is not AggFunc.AVG:
            aggregates.append(agg)
            continue
        columns = AvgColumns(agg.alias, *(
            hidden(f"#{part}:{agg.alias}")
            for part in ("sum", "count", "min", "max")))
        aggregates += [AggExpr(AggFunc.SUM, agg.operand, columns.total),
                       AggExpr(AggFunc.COUNT, None, columns.count),
                       AggExpr(AggFunc.MIN, agg.operand, columns.low),
                       AggExpr(AggFunc.MAX, agg.operand, columns.high)]
        avgs.append(columns)
    return AggregateNode(child, keys, aggregates), tuple(avgs)


def _resolve_sort_keys(sort: SortNode,
                       projects_above: list[ProjectNode]
                       ) -> tuple[tuple[str, bool], ...]:
    """Map sort-key names through the projections above the sort.

    ``projects_above`` is top-down (root first); the walk goes
    bottom-up.  A key survives only as a plain pass-through
    ``ColumnRef`` — any computed rename hides the values the merge must
    re-sort by.
    """
    keys: list[tuple[str, bool]] = []
    for name, ascending in sort.keys:
        current = name
        for project in reversed(projects_above):
            alias = next((out for expr, out in project.exprs
                          if isinstance(expr, ColumnRef)
                          and expr.name == current), None)
            if alias is None:
                raise DeltaRefused(f"sort-key-projected-away:{current}")
            current = alias
        keys.append((current, ascending))
    return tuple(keys)


# ----------------------------------------------------------------------
# Merge executors
# ----------------------------------------------------------------------
def apply_delta(spec: DeltaSpec, cached: Table, delta_out: Table) -> Table:
    """Merge a cached snapshot with the delta's plan output.

    ``delta_out`` is the *full original plan* executed over only the
    appended rows.  The result is bit-identical to re-executing over the
    grown table.  May raise :class:`DeltaRefused` for value-level
    hazards the classifier cannot see statically (NaN in a sort key).
    """
    if spec.kind == "concat":
        return _merge_concat(cached, delta_out)
    if spec.kind == "limit":
        assert spec.limit is not None
        return _merge_limit(cached, delta_out, spec.limit)
    if spec.kind == "topk":
        return _merge_topk(cached, delta_out, spec.sort_keys, spec.limit)
    if spec.kind == "aggregate":
        assert spec.aggregate is not None
        return _merge_aggregate(spec.aggregate, cached, delta_out)
    raise DeltaRefused(f"unknown-delta-kind:{spec.kind}")


def merge_partial(spec: DeltaSpec, partial: Table,
                  delta_partial: Table) -> tuple[Table, Table]:
    """Merge a kept partial with the delta's; returns ``(visible,
    merged partial)``.

    ``partial`` is ``spec.partial``'s output over the old rows and
    ``delta_partial`` its output over only the appended ones.  Raises
    :class:`DeltaRefused` (``avg-inexact``) when a group's mean may not
    be exact.
    """
    assert spec.aggregate is not None and spec.partial is not None
    merged = _merge_aggregate(spec.partial, partial, delta_partial)
    return _visible_aggregate(spec, merged), merged


def _visible_aggregate(spec: DeltaSpec, merged: Table) -> Table:
    """The aggregate's own output derived from its merged partial."""
    node = spec.aggregate
    assert node is not None
    cells: dict[str, Any]
    if not node.group_keys and merged.num_rows == 0:
        # no input row at all: the hash aggregate's one empty-input row
        cells = {agg.alias: [0 if agg.func in (AggFunc.COUNT, AggFunc.SUM)
                             else None] for agg in node.aggregates}
    else:
        means = {columns.alias: _exact_means(merged, columns)
                 for columns in spec.avgs}
        cells = {name: means[name] if name in means
                 else merged.column(name) for name in node.schema.names}
    return Table(node.schema,
                 {fld.name: coerce_array(cells[fld.name], fld.dtype)
                  for fld in node.schema.fields})


def _exact_means(merged: Table, columns: AvgColumns) -> list[float]:
    """``float(S) / n`` per group — the rebuild's ``np.mean`` exactly,
    while ``max(|min|, |max|) · n`` (which bounds ``Σ|x|``) stays
    within :data:`EXACT_SUM_BOUND`."""
    means: list[float] = []
    for total, count, low, high in zip(*(
            merged.column(name).tolist() for name in
            (columns.total, columns.count, columns.low, columns.high))):
        if max(abs(low), abs(high)) * count > EXACT_SUM_BOUND:
            raise DeltaRefused("avg-inexact")
        means.append(float(total) / count)
    return means


def _merge_concat(cached: Table, delta_out: Table) -> Table:
    if delta_out.num_rows == 0:
        return cached
    return Table.concat([cached, delta_out])


def _merge_limit(cached: Table, delta_out: Table, limit: int) -> Table:
    if cached.num_rows >= limit:
        # the old output already filled the prefix; appended rows can
        # only land after it
        return cached
    take = min(limit - cached.num_rows, delta_out.num_rows)
    if take == 0:
        return cached
    return Table.concat(
        [cached, delta_out.take(np.arange(take, dtype=np.int64))])


def _merge_topk(cached: Table, delta_out: Table,
                keys: tuple[tuple[str, bool], ...],
                limit: int | None) -> Table:
    # Tie-order parity: Table.sort_by reverses the whole order once per
    # descending key, so fully-tied rows come out in input order (even
    # parity) or reversed input order (odd).  The rebuild's input is
    # old-rows-then-delta; placing the cached block accordingly and
    # using a reversal-free stable sort reproduces its tie order.
    parity = sum(1 for _, ascending in keys if not ascending) % 2
    first, second = (cached, delta_out) if parity == 0 \
        else (delta_out, cached)
    combined = Table.concat([first, second])
    columns = [combined.column(name) for name, _ in keys]
    if any(values.dtype.kind == "f" and np.isnan(values).any()
           for values in columns):
        # NaN ties are not worth proving across the merge
        raise DeltaRefused("nan-in-sort-key")
    # reversal-free, so ties keep the block order chosen above
    order = stable_order(
        columns, effective_directions([asc for _, asc in keys]))
    return combined.take(order if limit is None else order[:limit])


def _merge_aggregate(node: AggregateNode, cached: Table,
                     delta_out: Table) -> Table:
    group_names = list(node.group_keys)
    agg_names = [agg.alias for agg in node.aggregates]
    funcs = {agg.alias: agg.func for agg in node.aggregates}

    def rows_of(table: Table) -> list[dict[str, object]]:
        columns = {name: table.column(name) for name in table.schema.names}
        return [{name: columns[name][i] for name in table.schema.names}
                for i in range(table.num_rows)]

    def key_of(row: dict[str, object]) -> tuple[object, ...]:
        return tuple(row[name] for name in group_names)

    delta_rows = rows_of(delta_out)
    delta_map = {key_of(row): row for row in delta_rows}
    merged: list[dict[str, object]] = []
    for row in rows_of(cached):
        fresh = delta_map.pop(key_of(row), None)
        if fresh is not None:
            row = dict(row)
            for name in agg_names:
                row[name] = _merge_value(funcs[name], row[name],
                                         fresh[name])
        merged.append(row)
    # delta-only groups keep the delta's first-occurrence order, which
    # is exactly where the rebuild's hash aggregate would place them
    merged.extend(row for row in delta_rows
                  if key_of(row) in delta_map)

    arrays: dict[str, np.ndarray[Any, np.dtype[Any]]] = {}
    for name in cached.schema.names:
        dtype = cached.column(name).dtype
        values = [row[name] for row in merged]
        if dtype == object:
            column = np.empty(len(values), dtype=object)
            column[:] = values
        else:
            column = np.asarray(values, dtype=dtype)
        arrays[name] = column
    return Table(cached.schema, arrays)


def _merge_value(func: AggFunc, old: object, new: object) -> object:
    """Combine one aggregate cell, preserving exact rebuild semantics.

    ``None`` is the hash aggregate's empty-input MIN/MAX; NaN
    propagates the way ``np.min``/``np.max`` would over the
    concatenated rows.
    """
    if func in (AggFunc.COUNT, AggFunc.SUM):
        return old + new  # type: ignore[operator]
    if old is None:
        return new
    if new is None:
        return old
    if old != old:          # NaN: np.min/np.max propagate it
        return old
    if new != new:
        return new
    if func is AggFunc.MIN:
        return min(old, new)  # type: ignore[type-var]
    if func is AggFunc.MAX:
        return max(old, new)  # type: ignore[type-var]
    raise DeltaRefused(f"non-mergeable-aggregate:{func.value}")
