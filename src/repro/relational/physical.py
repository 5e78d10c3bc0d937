"""Physical operators: vectorized volcano over column batches.

``build_physical`` lowers a logical plan to a physical operator tree,
honouring the optimizer's ``hints`` (join algorithm, semantic access path).
Every operator records simple metrics (output rows, wall time) that the
profiler and the benchmarks read back.

A scan emits its whole table as one batch, so each operator above it
runs one vectorized pass; it streams ``batch_size`` slices only under a
limit that can stop early.  A run of consecutive filters is one
:class:`FilterOp`: the masks are ANDed and the survivors gathered once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.errors import ExecutionError, PlanError
from repro.relational.expressions import AggExpr, AggFunc, Array, Expr
from repro.relational.keys import KeyIndex
from repro.relational.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    JoinType,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
    SemanticFilterNode,
    SemanticGroupByNode,
    SemanticJoinNode,
    SemanticSemiFilterNode,
    SortNode,
    UnionNode,
)
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType, coerce_array

DEFAULT_BATCH_SIZE = 4096


@dataclass
class ExecutionContext:
    """Everything physical operators need at run time."""

    catalog: Catalog
    models: Any = None  # ModelRegistry (typed loosely: no cycle)
    batch_size: int = DEFAULT_BATCH_SIZE
    embedding_cache: Any = None
    index_cache: Any = None  # semantic.index_cache.IndexCache
    #: obs.metrics.MetricsRegistry owned by the engine state (typed
    #: loosely: no cycle).  ``None`` for bare ``execute_plan`` calls;
    #: when set, caches created through this context register their
    #: gauges on it.
    metrics_registry: Any = None
    metrics: dict[str, Any] = field(default_factory=dict)

    def model(self, name: str) -> Any:
        if self.models is None:
            raise ExecutionError(
                "query uses a semantic operator but the context has no "
                "model registry"
            )
        return self.models.get(name)

    def record_semantic_metrics(self) -> None:
        """Publish embedding-arena and vector-index statistics into
        ``metrics`` (read back by the profiler and benchmarks)."""
        caches = self.embedding_cache
        if caches:
            # the cache dict may be shared across concurrent queries
            # (serving layer); snapshot before iterating
            self.metrics["embedding_arena"] = {
                name: cache.stats()
                for name, cache in dict(caches).items()}
        if self.index_cache is not None:
            stats = self.index_cache.stats()
            self.metrics["vector_index_cache"] = {
                name: stats[name] for name in ("entries", "hits", "misses")}


class PhysicalOperator:
    """Base physical operator (pull-based batch iterator)."""

    def __init__(self, schema: Schema,
                 children: tuple["PhysicalOperator", ...] = ()) -> None:
        self.schema = schema
        self.children = children
        self.rows_out = 0
        self.elapsed = 0.0

    def batches(self) -> Iterator[Table]:
        start = time.perf_counter()
        try:
            for batch in self._batches():
                self.rows_out += batch.num_rows
                self.elapsed += time.perf_counter() - start
                yield batch
                start = time.perf_counter()
        finally:
            self.elapsed += time.perf_counter() - start

    def _batches(self) -> Iterator[Table]:
        raise NotImplementedError

    def execute(self) -> Table:
        """Materialize the full output."""
        chunks = list(self.batches())
        if not chunks:
            return Table.empty(self.schema)
        return Table.concat(chunks)

    def walk(self) -> Iterator["PhysicalOperator"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def label(self) -> str:
        return type(self).__name__


class ScanOp(PhysicalOperator):
    """Scan a materialized table: the whole table as one batch, or
    ``batch_size`` slices when one is given (a limit above can stop
    early)."""

    def __init__(self, table: Table, batch_size: int | None,
                 qualifier: str | None = None) -> None:
        if qualifier:
            table = table.qualified(qualifier)
        super().__init__(table.schema)
        self.table = table
        self.batch_size = batch_size

    def _batches(self) -> Iterator[Table]:
        if self.batch_size is not None:
            yield from self.table.batches(self.batch_size)
        elif self.table.num_rows:
            yield self.table


class FilterOp(PhysicalOperator):
    """A run of consecutive filters (``predicates`` innermost first):
    their masks are ANDed over each batch — every predicate sees the
    whole batch, as both sides of an ``And`` do — and the surviving
    rows are gathered once."""

    def __init__(self, child: PhysicalOperator,
                 predicates: list[Expr]) -> None:
        super().__init__(child.schema, (child,))
        self.predicates = predicates

    def _batches(self) -> Iterator[Table]:
        first, *rest = self.predicates
        for batch in self.children[0].batches():
            mask = first.evaluate(batch)
            for predicate in rest:
                if not mask.any():
                    break
                # not &=: the first mask may be a column's own array
                mask = mask & predicate.evaluate(batch)
            if mask.any():
                yield batch.filter(mask)


class ProjectOp(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, exprs: list[tuple[Expr, str]],
                 schema: Schema) -> None:
        super().__init__(schema, (child,))
        self.exprs = exprs

    def _batches(self) -> Iterator[Table]:
        for batch in self.children[0].batches():
            columns = {}
            for (expr, alias), fld in zip(self.exprs, self.schema.fields):
                values = expr.evaluate(batch)
                if fld.dtype == DataType.STRING:
                    values = np.asarray(values, dtype=object)
                columns[alias] = values
            yield Table(self.schema, columns)


class LimitOp(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, count: int) -> None:
        super().__init__(child.schema, (child,))
        self.count = count

    def _batches(self) -> Iterator[Table]:
        remaining = self.count
        if remaining == 0:
            return
        for batch in self.children[0].batches():
            if batch.num_rows <= remaining:
                remaining -= batch.num_rows
                yield batch
            else:
                yield batch.slice(0, remaining)
                remaining = 0
            if remaining == 0:
                return


class SortOp(PhysicalOperator):
    """Pipeline breaker: materialize, sort, re-emit — under a limit only
    the first ``limit`` rows of the same order (top-k)."""

    def __init__(self, child: PhysicalOperator, keys: list[tuple[str, bool]],
                 limit: int | None = None) -> None:
        super().__init__(child.schema, (child,))
        self.keys = keys
        self.limit = limit

    def _batches(self) -> Iterator[Table]:
        table = self.children[0].execute()
        yield table.sort_by(self.keys, self.limit)


class UnionOp(PhysicalOperator):
    def __init__(self, children: tuple[PhysicalOperator, ...]) -> None:
        super().__init__(children[0].schema, children)

    def _batches(self) -> Iterator[Table]:
        names = self.schema.names
        for child in self.children:
            for batch in child.batches():
                if batch.schema.names != names:
                    mapping = dict(zip(batch.schema.names, names))
                    batch = batch.renamed(mapping)
                yield batch


class HashJoinOp(PhysicalOperator):
    """Equi hash join; builds on the right input, streams the left.

    Pairs come out in probe order, then build-row order within a key.
    A probe row counts as matched (LEFT / SEMI / ANTI) only if one of
    its pairs survives the extra predicate.
    """

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_keys: list[str], right_keys: list[str],
                 join_type: JoinType, extra_predicate: Expr | None,
                 schema: Schema) -> None:
        super().__init__(schema, (left, right))
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.join_type = join_type
        self.extra_predicate = extra_predicate
        self.semi = join_type in (JoinType.SEMI, JoinType.ANTI)
        #: candidate pairs carry both sides even when SEMI / ANTI output
        #: only the left one: the extra predicate may read either
        self.pair_schema = left.schema.concat(right.schema) if self.semi \
            else schema

    def _batches(self) -> Iterator[Table]:
        if not self.left_keys:
            raise PlanError("HashJoinOp requires join keys")
        build = self.children[1].execute()
        index = KeyIndex([build.column(k) for k in self.right_keys])
        for batch in self.children[0].batches():
            codes = index.lookup([batch.column(k) for k in self.left_keys])
            if self.semi and self.extra_predicate is None:
                matched = codes >= 0
            else:
                left, right = index.matches(codes)
                out = _combine(batch.take(left), build.take(right),
                               self.pair_schema)
                if self.extra_predicate is not None and out.num_rows:
                    keep = self.extra_predicate.evaluate(out)
                    out, left = out.filter(keep), left[keep]
                matched = np.zeros(batch.num_rows, dtype=bool)
                matched[left] = True
            if self.semi:
                out = batch.filter(
                    matched if self.join_type == JoinType.SEMI else ~matched)
            elif self.join_type == JoinType.LEFT and not matched.all():
                out = Table.concat([out, _null_extend(
                    batch.filter(~matched), build.schema, self.schema)])
            if out.num_rows:
                yield out


class NestedLoopJoinOp(PhysicalOperator):
    """Cross/theta join: materializes the right side, streams the left
    in slices of ``batch_size`` rows (pairs grow with the right side)."""

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 predicate: Expr | None, join_type: JoinType, schema: Schema,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        super().__init__(schema, (left, right))
        self.predicate = predicate
        self.join_type = join_type
        self.batch_size = batch_size
        if join_type not in (JoinType.INNER, JoinType.CROSS):
            raise PlanError(
                f"NestedLoopJoinOp supports inner/cross, got {join_type}"
            )

    def _batches(self) -> Iterator[Table]:
        right = self.children[1].execute()
        n_right = right.num_rows
        for whole in self.children[0].batches():
            if n_right == 0:
                continue
            for batch in whole.batches(self.batch_size):
                left_idx = np.repeat(np.arange(batch.num_rows), n_right)
                right_idx = np.tile(np.arange(n_right), batch.num_rows)
                combined = _combine(batch.take(left_idx),
                                    right.take(right_idx), self.schema)
                if self.predicate is not None:
                    mask = self.predicate.evaluate(combined)
                    if not mask.any():
                        continue
                    combined = combined.filter(mask)
                yield combined


class AggregateOp(PhysicalOperator):
    """Hash aggregate (pipeline breaker): groups in first-seen order, each
    keyed by its first row; every operand is evaluated once, then reduced
    over contiguous segments of its values in stable group order."""

    def __init__(self, child: PhysicalOperator, group_keys: list[str],
                 aggregates: list[AggExpr], schema: Schema) -> None:
        super().__init__(schema, (child,))
        self.group_keys = group_keys
        self.aggregates = aggregates

    def _batches(self) -> Iterator[Table]:
        table = self.children[0].execute()
        n = table.num_rows
        fields = self.schema.fields
        columns = {}
        if self.group_keys:
            index = KeyIndex([table.column(k) for k in self.group_keys])
            codes, (order, starts, sizes) = index.codes, index.segments()
            for fld, key in zip(fields, self.group_keys):
                first = table.column(key)[index.first]
                # coerced like Table.from_rows: string cells through str()
                columns[fld.name] = coerce_array(
                    first.tolist() if fld.dtype == DataType.STRING
                    else first, fld.dtype)
        else:   # one group, even over no rows
            codes, order = np.zeros(n, np.int64), np.arange(n)
            starts, sizes = np.zeros(1, np.int64), np.full(1, n, np.int64)
        for agg, fld in zip(self.aggregates, fields[len(self.group_keys):]):
            if agg.operand is None and agg.func != AggFunc.COUNT:
                raise ExecutionError(f"{agg.func} requires an operand")
            values = None if agg.operand is None \
                else agg.operand.evaluate(table)
            if values is None or agg.func == AggFunc.COUNT:
                cells = sizes
            elif agg.func == AggFunc.COUNT_DISTINCT:
                pairs = KeyIndex([codes, values])
                cells = np.bincount(codes[pairs.first], minlength=len(sizes))
            else:
                cells = _reduce(agg.func, values[order], starts, sizes)
            columns[fld.name] = coerce_array(cells, fld.dtype)
        yield Table(self.schema, columns)


_REDUCEAT = {AggFunc.SUM: np.add, AggFunc.MIN: np.minimum,
             AggFunc.MAX: np.maximum}


def _reduce(func: AggFunc, ordered: Array, starts: Array,
            sizes: Array) -> Array | list[Any]:
    """One aggregate per segment of ``ordered`` (values in group order):
    ``ufunc.reduceat`` for integers, else the per-group call the per-row
    aggregate made (float results stay bit-identical)."""
    if ordered.dtype.kind in "bi" and func in _REDUCEAT and sizes.all():
        # SUM accumulates in int64, as ndarray.sum does
        return _REDUCEAT[func].reduceat(
            ordered.astype(np.int64) if func == AggFunc.SUM else ordered,
            starts)
    return [_apply_agg(func, ordered[start:start + size])
            for start, size in zip(starts.tolist(), sizes.tolist())]


def _apply_agg(func: AggFunc, values: Array) -> Any:
    if values.shape[0] == 0:
        return 0 if func == AggFunc.SUM else None
    if func == AggFunc.SUM:
        return values.sum().item()
    if func == AggFunc.MIN:
        return values.min().item() if values.dtype != object else min(values)
    if func == AggFunc.MAX:
        return values.max().item() if values.dtype != object else max(values)
    if func == AggFunc.AVG:
        return float(np.mean(values.astype(np.float64)))
    raise ExecutionError(f"unsupported aggregate {func}")


def _combine(left: Table, right: Table, schema: Schema) -> Table:
    """``left`` and ``right`` side by side, under ``schema``'s names."""
    arrays = [side.columns[name] for side in (left, right)
              for name in side.schema.names]
    return Table(schema, dict(zip(schema.names, arrays)))


def _null_extend(left: Table, right_schema: Schema, schema: Schema) -> Table:
    """Pad unmatched left rows with type-appropriate null fills."""
    nulls = {fld.name: _null_fill(fld.dtype, left.num_rows)
             for fld in right_schema.fields}
    return _combine(left, Table(right_schema, nulls), schema)


def _null_fill(dtype: DataType, n: int) -> Array:
    if dtype == DataType.STRING:
        return np.full(n, None, dtype=object)
    if dtype == DataType.FLOAT64:
        return np.full(n, np.nan)
    return np.zeros(n, dtype=bool if dtype == DataType.BOOL else np.int64)


# ----------------------------------------------------------------------
# Lowering: logical -> physical
# ----------------------------------------------------------------------
def build_physical(plan: LogicalPlan, context: ExecutionContext,
                   limit: int | None = None,
                   stream: bool = False) -> PhysicalOperator:
    """Lower a logical plan to a physical operator tree.

    ``limit`` says only that many leading rows of ``plan`` are read (its
    parent is a limit); a sort there emits only those.  ``stream`` says
    a limit sits above ``plan`` through filters and projections only, so
    a scan there streams batches the limit can stop early on.
    """
    if isinstance(plan, ScanNode):
        table = context.catalog.get(plan.table_name)
        return ScanOp(table, context.batch_size if stream else None,
                      plan.qualifier)
    if isinstance(plan, FilterNode):
        run = filter_run(plan)
        return FilterOp(build_physical(run[-1].child, context, stream=stream),
                        [node.predicate for node in reversed(run)])
    if isinstance(plan, ProjectNode):     # row for row: the limit holds
        return ProjectOp(build_physical(plan.child, context, limit, stream),
                         plan.exprs, plan.schema)
    if isinstance(plan, LimitNode):
        return LimitOp(build_physical(plan.child, context, plan.count,
                                      stream=True), plan.count)
    if isinstance(plan, SortNode):
        return SortOp(build_physical(plan.child, context), plan.keys, limit)
    if isinstance(plan, UnionNode):
        children = tuple(build_physical(c, context) for c in plan.children)
        return UnionOp(children)
    if isinstance(plan, JoinNode):
        left = build_physical(plan.left, context)
        right = build_physical(plan.right, context)
        if plan.left_keys:
            return HashJoinOp(left, right, plan.left_keys, plan.right_keys,
                              plan.join_type, plan.extra_predicate,
                              plan.schema)
        return NestedLoopJoinOp(left, right, plan.extra_predicate,
                                plan.join_type if plan.extra_predicate is None
                                else JoinType.INNER, plan.schema,
                                context.batch_size)
    if isinstance(plan, AggregateNode):
        return AggregateOp(build_physical(plan.child, context),
                           plan.group_keys, plan.aggregates, plan.schema)
    if isinstance(plan, (SemanticFilterNode, SemanticJoinNode,
                         SemanticGroupByNode, SemanticSemiFilterNode)):
        from repro.semantic.lowering import build_semantic_physical

        return build_semantic_physical(plan, context, build_physical)
    raise PlanError(f"no physical lowering for {type(plan).__name__}")


def filter_run(plan: FilterNode) -> list[FilterNode]:
    """The consecutive filters from ``plan`` down, outermost first: what
    one :class:`FilterOp` runs."""
    run = [plan]
    while isinstance(run[-1].child, FilterNode):
        run.append(run[-1].child)
    return run


def execute_plan(plan: LogicalPlan, context: ExecutionContext) -> Table:
    """Lower and run a logical plan, returning the materialized result."""
    return build_physical(plan, context).execute()
