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
  first-occurrence order.  Float SUM is refused — NumPy's pairwise
  summation is not associative, so a merged sum could differ in the
  last ulp from a rebuild.  AVG and COUNT(DISTINCT) are refused (not
  decomposable from the cached output alone); Sort/Limit *above* an
  aggregate is refused (the pre-sort group order is unrecoverable from
  a sorted snapshot).

Everything else — joins, unions, semantic group-by (clustering is a
global function of the column), semantic semi-filters (data-induced
predicates derived from old contents), sort keys projected away, NaN
in a sort key — is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.relational.expressions import AggFunc, ColumnRef
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
from repro.storage.types import DataType


class DeltaRefused(Exception):
    """A plan (or a concrete merge) failed an append-monotonicity proof.

    ``reason`` is a stable slug (``"non-monotone-operator:JoinNode"``,
    ``"float-sum"``, ``"nan-in-sort-key"``, ...) surfaced in ingest
    reports and metrics.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class DeltaSpec:
    """A proven-mergeable plan: which merge applies and its inputs.

    ``kind`` is one of ``"concat"``, ``"limit"``, ``"topk"``,
    ``"aggregate"``.  ``sort_keys`` are in the plan's *output* column
    space (renames above the sort already resolved).
    """

    kind: str
    table: str
    limit: int | None = None
    sort_keys: tuple[tuple[str, bool], ...] = ()
    aggregate: AggregateNode | None = None


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
        _check_aggregate(node)
        return DeltaSpec(kind="aggregate", table=table, aggregate=node)

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
        if agg.func in (AggFunc.AVG, AggFunc.COUNT_DISTINCT):
            # not decomposable from the cached output alone (AVG needs
            # the count; DISTINCT needs the value sets)
            raise DeltaRefused(f"non-mergeable-aggregate:{agg.func.value}")
        if agg.func is AggFunc.SUM \
                and fields[offset + index].dtype is not DataType.INT64:
            # float pairwise summation is not associative: a merged sum
            # may differ from a rebuild in the last ulp
            raise DeltaRefused("float-sum")


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
