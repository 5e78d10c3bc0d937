"""Test-only reference operators: the per-row bodies the engine ran
before ``repro.relational.keys`` (PR 14), kept verbatim as the oracle of
``tests/test_factorized_operators.py``.

``ReferenceHashJoinOp`` keeps its historical ``extra_predicate`` defect
for LEFT / SEMI / ANTI joins (the matched mask is set before the
predicate runs); the differential test only compares those join types
without an extra predicate.  ``reference_sort_by`` is the old
``Table.sort_by``: one stable argsort per key, last key first, and one
whole-order reversal per descending key.

``ReferenceFilterOp`` / ``ReferenceProjectOp`` and ``reference_build``
are the operator-at-a-time Scan/Filter/Project/Limit executor as it ran
before filter runs merged and literals became scalars: one predicate
per filter op, scans in ``batch_size`` slices, and every ``Literal``
operand broadcast to an n-row array (``reference_evaluate``, the old
``Expr.evaluate`` bodies).  They are the oracle of
``tests/test_fused_pipelines.py``.

``ReferencePruneColumns`` is the column-pruning pass as it was before
plan nodes declared the columns they read: one arm per node type, kept
verbatim as the oracle of ``tests/test_prune_columns.py``.  A node type
it does not know is returned as-is (never pruned below).

``reference_sample_values`` and ``reference_histogram_fraction`` are the
estimator's statistics reads as they ran before planning got cheap: a
semantic sample drawn from a Python list of the whole column's non-null
values, and a histogram range fraction summed over every bin with NumPy
scalars.  ``reference_filter_estimate`` is the filter estimate as it ran
before a filter run became one conjunction: each stacked filter
multiplies its own predicate's selectivity, range bounds on one column
as if independent.  They are the oracle of
``tests/test_estimator_equivalence.py``.

``reference_embed_batch`` is ``EmbeddingModel.embed_batch`` as it ran
before the per-model vocabulary memo: every known word's vector mixed
with its subword mean, hashed again in every batch
(``reference_raw_vectors_batch``).  ``reference_cluster_strings`` is
the leader clustering as it ran before the contiguous leader buffer:
``matrix[leader_rows]`` gathered again for every value.  They are the
oracle of ``tests/test_cold_semantic_path.py``.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.embeddings.model import EmbeddingModel, _segment_sums, _unit_rows
from repro.errors import ExecutionError, PlanError
from repro.relational.expressions import (
    _ARITH_OPS,
    _COMPARE_OPS,
    _FUNCTIONS,
    AggExpr,
    AggFunc,
    And,
    Arith,
    ColumnRef,
    Compare,
    Expr,
    Func,
    InList,
    Not,
    Or,
)
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
from repro.relational.physical import (
    ExecutionContext,
    LimitOp,
    PhysicalOperator,
    ScanOp,
)
from repro.semantic.groupby import Clustering
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType

if TYPE_CHECKING:
    from repro.optimizer.cardinality import CardinalityEstimator
    from repro.semantic.cache import EmbeddingCache


def reference_evaluate(expr: Expr, batch: Table) -> np.ndarray:
    """``expr.evaluate(batch)`` with every operand evaluated to an array
    — a ``Literal`` broadcasts to ``batch.num_rows`` rows."""
    if isinstance(expr, Compare):
        result = _COMPARE_OPS[expr.op](reference_evaluate(expr.left, batch),
                                       reference_evaluate(expr.right, batch))
        return np.asarray(result, dtype=bool)
    if isinstance(expr, Arith):
        return _ARITH_OPS[expr.op](reference_evaluate(expr.left, batch),
                                   reference_evaluate(expr.right, batch))
    if isinstance(expr, And):
        return (reference_evaluate(expr.left, batch)
                & reference_evaluate(expr.right, batch))
    if isinstance(expr, Or):
        return (reference_evaluate(expr.left, batch)
                | reference_evaluate(expr.right, batch))
    if isinstance(expr, Not):
        return ~reference_evaluate(expr.operand, batch)
    if isinstance(expr, InList):
        allowed = set(expr.values)
        return np.asarray([value in allowed for value in
                           reference_evaluate(expr.operand, batch)],
                          dtype=bool)
    if isinstance(expr, Func):
        return _FUNCTIONS[expr.name](
            [reference_evaluate(arg, batch) for arg in expr.args])
    return expr.evaluate(batch)          # ColumnRef, Literal


class ReferenceFilterOp(PhysicalOperator):
    """One filter, one predicate: mask the batch, gather the survivors."""

    def __init__(self, child: PhysicalOperator, predicate: Expr):
        super().__init__(child.schema, (child,))
        self.predicate = predicate

    def _batches(self) -> Iterator[Table]:
        for batch in self.children[0].batches():
            mask = reference_evaluate(self.predicate, batch)
            if mask.any():
                yield batch.filter(mask)


class ReferenceProjectOp(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, exprs: list[tuple[Expr, str]],
                 schema: Schema):
        super().__init__(schema, (child,))
        self.exprs = exprs

    def _batches(self) -> Iterator[Table]:
        for batch in self.children[0].batches():
            columns = {}
            for (expr, alias), fld in zip(self.exprs, self.schema.fields):
                values = reference_evaluate(expr, batch)
                if fld.dtype == DataType.STRING:
                    values = np.asarray(values, dtype=object)
                columns[alias] = values
            yield Table(self.schema, columns)


def reference_build(plan: LogicalPlan,
                    context: ExecutionContext) -> PhysicalOperator:
    """Lower a Scan/Filter/Project/Limit chain one operator per node."""
    if isinstance(plan, ScanNode):
        return ScanOp(context.catalog.get(plan.table_name),
                      context.batch_size, plan.qualifier)
    child = reference_build(plan.children[0], context)
    if isinstance(plan, FilterNode):
        return ReferenceFilterOp(child, plan.predicate)
    if isinstance(plan, ProjectNode):
        return ReferenceProjectOp(child, plan.exprs, plan.schema)
    if isinstance(plan, LimitNode):
        return LimitOp(child, plan.count)
    raise PlanError(f"no reference lowering for {type(plan).__name__}")


def reference_sort_by(table: Table, keys: list[tuple[str, bool]]) -> Table:
    """Stable multi-key sort; ``keys`` are (column, ascending) pairs."""
    order = np.arange(table.num_rows)
    for name, ascending in reversed(keys):
        values = table.column(name)[order]
        if values.dtype == object:
            local = np.argsort(values.astype(str), kind="stable")
        else:
            local = np.argsort(values, kind="stable")
        if not ascending:
            local = local[::-1]
        order = order[local]
    return table.take(order)


class ReferenceSortOp(PhysicalOperator):
    """Pipeline breaker: materialize, sort, re-emit."""

    def __init__(self, child: PhysicalOperator, keys: list[tuple[str, bool]]):
        super().__init__(child.schema, (child,))
        self.keys = keys

    def _batches(self) -> Iterator[Table]:
        table = self.children[0].execute()
        yield reference_sort_by(table, self.keys)


class ReferenceHashJoinOp(PhysicalOperator):
    """Equi hash join; builds on the right input, streams the left."""

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_keys: list[str], right_keys: list[str],
                 join_type: JoinType, extra_predicate: Expr | None,
                 schema: Schema):
        super().__init__(schema, (left, right))
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.join_type = join_type
        self.extra_predicate = extra_predicate

    def _batches(self) -> Iterator[Table]:
        if not self.left_keys:
            raise PlanError("HashJoinOp requires join keys")
        build = self.children[1].execute()
        hash_table: dict[tuple, list[int]] = {}
        build_key_arrays = [build.column(k) for k in self.right_keys]
        for row, key in enumerate(zip(*build_key_arrays)):
            hash_table.setdefault(tuple(key), []).append(row)

        left = self.children[0]
        for batch in left.batches():
            probe_key_arrays = [batch.column(k) for k in self.left_keys]
            left_indices: list[int] = []
            right_indices: list[int] = []
            matched_mask = np.zeros(batch.num_rows, dtype=bool)
            for row, key in enumerate(zip(*probe_key_arrays)):
                matches = hash_table.get(tuple(key))
                if matches:
                    matched_mask[row] = True
                    if self.join_type in (JoinType.SEMI, JoinType.ANTI):
                        continue
                    left_indices.extend([row] * len(matches))
                    right_indices.extend(matches)
            yield from self._emit(batch, build, left_indices, right_indices,
                                  matched_mask)

    def _emit(self, batch: Table, build: Table, left_indices: list[int],
              right_indices: list[int],
              matched_mask: np.ndarray) -> Iterator[Table]:
        if self.join_type == JoinType.SEMI:
            if matched_mask.any():
                yield batch.filter(matched_mask)
            return
        if self.join_type == JoinType.ANTI:
            if (~matched_mask).any():
                yield batch.filter(~matched_mask)
            return
        left_idx = np.asarray(left_indices, dtype=np.int64)
        right_idx = np.asarray(right_indices, dtype=np.int64)
        combined = _combine(batch.take(left_idx), build.take(right_idx),
                            self.schema)
        if self.extra_predicate is not None and combined.num_rows:
            combined = combined.filter(
                self.extra_predicate.evaluate(combined))
        if self.join_type == JoinType.LEFT:
            missing = ~matched_mask
            if missing.any():
                unmatched = _null_extend(batch.filter(missing), build.schema,
                                         self.schema)
                combined = Table.concat([combined, unmatched])
        if combined.num_rows:
            yield combined


class ReferenceAggregateOp(PhysicalOperator):
    """Hash aggregate (pipeline breaker)."""

    def __init__(self, child: PhysicalOperator, group_keys: list[str],
                 aggregates: list[AggExpr], schema: Schema):
        super().__init__(schema, (child,))
        self.group_keys = group_keys
        self.aggregates = aggregates

    def _batches(self) -> Iterator[Table]:
        table = self.children[0].execute()
        if not self.group_keys:
            rows = [self._aggregate_rows(table,
                                         np.arange(table.num_rows))]
            yield Table.from_rows(rows, self.schema)
            return
        key_arrays = [table.column(k) for k in self.group_keys]
        groups: dict[tuple, list[int]] = {}
        for row, key in enumerate(zip(*key_arrays)):
            groups.setdefault(tuple(key), []).append(row)
        key_names = self.schema.names[: len(self.group_keys)]
        rows = []
        for key, indices in groups.items():
            row = dict(zip(key_names, key))
            row.update(self._aggregate_rows(table,
                                            np.asarray(indices, np.int64)))
            rows.append(row)
        yield Table.from_rows(rows, self.schema)

    def _aggregate_rows(self, table: Table, indices: np.ndarray) -> dict:
        out: dict = {}
        for agg in self.aggregates:
            if agg.operand is None:
                if agg.func != AggFunc.COUNT:
                    raise ExecutionError(f"{agg.func} requires an operand")
                out[agg.alias] = int(indices.shape[0])
                continue
            values = agg.operand.evaluate(table.take(indices))
            out[agg.alias] = _apply_agg(agg.func, values)
        return out


def _apply_agg(func: AggFunc, values: np.ndarray):
    if func == AggFunc.COUNT:
        return int(values.shape[0])
    if func == AggFunc.COUNT_DISTINCT:
        return int(len(set(values.tolist())))
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
    columns = {}
    names = schema.names
    position = 0
    for name in left.schema.names:
        columns[names[position]] = left.columns[name]
        position += 1
    for name in right.schema.names:
        columns[names[position]] = right.columns[name]
        position += 1
    return Table(schema, columns)


def _null_extend(left: Table, right_schema: Schema, schema: Schema) -> Table:
    """Pad unmatched left rows with type-appropriate null fills."""
    columns = {}
    names = schema.names
    position = 0
    for name in left.schema.names:
        columns[names[position]] = left.columns[name]
        position += 1
    n = left.num_rows
    for fld in right_schema.fields:
        if fld.dtype == DataType.STRING:
            fill = np.asarray([None] * n, dtype=object)
        elif fld.dtype == DataType.FLOAT64:
            fill = np.full(n, np.nan)
        elif fld.dtype == DataType.BOOL:
            fill = np.zeros(n, dtype=bool)
        else:
            fill = np.zeros(n, dtype=np.int64)
        columns[names[position]] = fill
        position += 1
    return Table(schema, columns)


class ReferencePruneColumns:
    """Insert projections above scans so only required columns flow up."""

    name = "prune_columns"

    def run(self, plan: LogicalPlan) -> LogicalPlan:
        required = set(plan.schema.names)
        return self._rewrite(plan, required)

    def _rewrite(self, node: LogicalPlan, required: set[str]) -> LogicalPlan:
        required = self._canonical(required, node.schema)
        if isinstance(node, ScanNode):
            names = [n for n in node.schema.names if n in required]
            if len(names) == len(node.schema.names) or not names:
                return node
            return ProjectNode(node, [(ColumnRef(n), n) for n in names])
        if isinstance(node, FilterNode):
            child_required = required | self._canonical(
                node.predicate.columns(), node.child.schema)
            return node.with_children(
                (self._rewrite(node.child, child_required),))
        if isinstance(node, ProjectNode):
            child_required: set[str] = set()
            for expr, alias in node.exprs:
                if alias in required:
                    child_required |= expr.columns()
            kept = [(e, a) for e, a in node.exprs if a in required]
            if not kept:
                kept = node.exprs
                child_required = set()
                for expr, _ in node.exprs:
                    child_required |= expr.columns()
            child = self._rewrite(node.child, self._canonical(
                child_required, node.child.schema))
            return ProjectNode(child, kept)
        if isinstance(node, JoinNode):
            return self._rewrite_join(node, required)
        if isinstance(node, SemanticJoinNode):
            left_schema = node.left.schema
            right_schema = node.right.schema
            left_required = {n for n in required if n in left_schema}
            right_required = {n for n in required if n in right_schema}
            left_required |= self._canonical({node.left_column}, left_schema)
            right_required |= self._canonical({node.right_column},
                                              right_schema)
            return node.with_children((
                self._rewrite(node.left, left_required),
                self._rewrite(node.right, right_required),
            ))
        if isinstance(node, (SemanticFilterNode, SemanticSemiFilterNode)):
            child_required = {n for n in required
                              if n in node.child.schema}
            child_required |= self._canonical({node.column},
                                              node.child.schema)
            return node.with_children(
                (self._rewrite(node.child, child_required),))
        if isinstance(node, SemanticGroupByNode):
            child_required = {n for n in required if n in node.child.schema}
            child_required |= self._canonical({node.column},
                                              node.child.schema)
            return node.with_children(
                (self._rewrite(node.child, child_required),))
        if isinstance(node, AggregateNode):
            child_required = self._canonical(set(node.group_keys),
                                             node.child.schema)
            for agg in node.aggregates:
                if agg.operand is not None:
                    child_required |= self._canonical(
                        agg.operand.columns(), node.child.schema)
            return node.with_children(
                (self._rewrite(node.child, child_required),))
        if isinstance(node, SortNode):
            child_required = required | self._canonical(
                {k for k, _ in node.keys}, node.child.schema)
            return node.with_children(
                (self._rewrite(node.child, child_required),))
        if isinstance(node, (LimitNode, UnionNode)):
            children = tuple(self._rewrite(c, set(required))
                             for c in node.children)
            return node.with_children(children)
        return node

    def _rewrite_join(self, node: JoinNode, required: set[str]) -> JoinNode:
        left_schema = node.left.schema
        right_schema = node.right.schema
        left_required = {n for n in required if n in left_schema}
        right_required = {n for n in required if n in right_schema}
        left_required |= self._canonical(set(node.left_keys), left_schema)
        right_required |= self._canonical(set(node.right_keys), right_schema)
        if node.extra_predicate is not None:
            for name in node.extra_predicate.columns():
                if name in left_schema:
                    left_required.add(name)
                elif name in right_schema:
                    right_required.add(name)
        left = self._rewrite(node.left, left_required)
        right = self._rewrite(node.right, right_required)
        return node.with_children((left, right))  # type: ignore[return-value]

    @staticmethod
    def _canonical(names: set[str], schema: Schema) -> set[str]:
        out = set()
        for name in names:
            try:
                out.add(schema.names[schema.index_of(name)])
            except Exception:
                out.add(name)
        return out


# ---------------------------------------------------------------------------
# estimator statistics reads (oracle of test_estimator_equivalence.py)
# ---------------------------------------------------------------------------
def reference_sample_values(values: np.ndarray, sample_size: int,
                            seed: int) -> list:
    """``CardinalityEstimator._sample_column``'s draw over one column:
    the non-null values copied into a list, then ``sample_size``
    distinct picks from a fresh generator."""
    non_null = [v for v in values if v is not None]
    if not non_null:
        return []
    rng = np.random.default_rng(seed)
    if len(non_null) <= sample_size:
        return list(non_null)
    picks = rng.choice(len(non_null), size=sample_size, replace=False)
    return [non_null[int(i)] for i in picks]


def reference_histogram_fraction(histogram: np.ndarray,
                                 bin_edges: np.ndarray,
                                 low: float | None,
                                 high: float | None) -> float:
    """``ColumnStats._histogram_fraction``: every bin visited, NumPy
    scalar arithmetic."""
    edges = bin_edges
    counts = histogram.astype(np.float64)
    total = counts.sum()
    if total == 0:
        return 0.0
    lo = edges[0] if low is None else low
    hi = edges[-1] if high is None else high
    covered = 0.0
    for i in range(counts.shape[0]):
        left, right = edges[i], edges[i + 1]
        width = right - left
        if width <= 0:
            inside = lo <= left <= hi
            covered += counts[i] if inside else 0.0
            continue
        overlap = max(0.0, min(hi, right) - max(lo, left))
        covered += counts[i] * (overlap / width)
    return float(np.clip(covered / total, 0.0, 1.0))


def reference_filter_estimate(estimator: CardinalityEstimator,
                              plan: LogicalPlan) -> float:
    """``CardinalityEstimator.estimate`` of a filter run, one filter at
    a time: child estimate times the filter's own selectivity."""
    if isinstance(plan, FilterNode):
        return (reference_filter_estimate(estimator, plan.child)
                * estimator.selectivity(plan.predicate, plan.child))
    return estimator.estimate(plan)


# ---------------------------------------------------------------------------
# cold semantic path (oracle of test_cold_semantic_path.py)
# ---------------------------------------------------------------------------
def reference_embed_batch(model: EmbeddingModel, texts,
                          workers: int = 1) -> np.ndarray:
    """``embed_batch`` over ``reference_raw_vectors_batch``, without
    touching the model's ``tokens_embedded`` counter."""
    from repro.utils.text import normalize_token

    tokens = [normalize_token(text) for text in texts]
    first_seen: dict[str, int] = {}
    inverse = np.empty(len(tokens), dtype=np.int64)
    unique: list[str] = []
    for position, token in enumerate(tokens):
        uid = first_seen.get(token)
        if uid is None:
            uid = len(unique)
            first_seen[token] = uid
            unique.append(token)
        inverse[position] = uid
    rows = _unit_rows(reference_raw_vectors_batch(model, unique, workers))
    if len(unique) == len(tokens):
        return rows
    return rows[inverse]


def reference_raw_vectors_batch(model: EmbeddingModel, tokens: list[str],
                                workers: int = 1) -> np.ndarray:
    """``EmbeddingModel._raw_vectors_batch`` with every known word's
    subword mean hashed in the batch."""
    rows = np.zeros((len(tokens), model.dim), dtype=np.float64)
    vocab_pos: list[int] = []
    vocab_idx: list[int] = []
    multi_pos: list[int] = []
    oov_pos: list[int] = []
    for position, token in enumerate(tokens):
        index = model.vocab.get(token)
        if index is not None:
            vocab_pos.append(position)
            vocab_idx.append(index)
        elif " " in token:
            multi_pos.append(position)
        else:
            oov_pos.append(position)

    if vocab_pos:
        gathered = model.word_vectors[np.asarray(vocab_idx)].astype(
            np.float64)
        if model.subword_weight > 0.0:
            means, has_grams = model._subword_means(
                [tokens[p] for p in vocab_pos], workers)
            weight = model.subword_weight
            gathered[has_grams] = (
                (1.0 - weight) * gathered[has_grams]
                + weight * means[has_grams])
        rows[np.asarray(vocab_pos)] = gathered

    if oov_pos:
        means, has_grams = model._subword_means(
            [tokens[p] for p in oov_pos], workers)
        usable = has_grams & (np.abs(means).max(axis=1) > 0.0)
        positions = np.asarray(oov_pos)
        rows[positions[usable]] = means[usable]
        for position in positions[~usable]:
            rows[position] = model._fallback_vector(tokens[position])

    if multi_pos:
        part_of: dict[str, int] = {}
        parts: list[str] = []
        owners: list[int] = []
        refs: list[int] = []
        for owner, position in enumerate(multi_pos):
            for part in tokens[position].split():
                ref = part_of.get(part)
                if ref is None:
                    ref = len(parts)
                    part_of[part] = ref
                    parts.append(part)
                owners.append(owner)
                refs.append(ref)
        part_rows = reference_raw_vectors_batch(
            model, parts, workers).astype(np.float32)
        sums, counts = _segment_sums(
            part_rows, np.asarray(refs, dtype=np.int64),
            np.asarray(owners, dtype=np.int64), len(multi_pos))
        rows[np.asarray(multi_pos)] = sums / counts[:, None]
    return rows


def reference_cluster_strings(values, cache: EmbeddingCache,
                              threshold: float) -> Clustering:
    """``cluster_strings`` gathering ``matrix[leader_rows]`` per value."""
    values = list(values)
    if not values:
        return Clustering(np.empty(0, dtype=np.int64), [], 0)

    frequency = Counter(values)
    unique = sorted(frequency, key=lambda v: (-frequency[v], v))
    matrix = cache.matrix(unique)

    leader_rows: list[int] = []
    unique_labels = np.full(len(unique), -1, dtype=np.int64)
    for row in range(len(unique)):
        if leader_rows:
            sims = matrix[leader_rows] @ matrix[row]
            best = int(np.argmax(sims))
            if float(sims[best]) >= threshold:
                unique_labels[row] = best
                continue
        unique_labels[row] = len(leader_rows)
        leader_rows.append(row)

    representatives = [unique[row] for row in leader_rows]
    sorted_unique, inverse = np.unique(np.asarray(values, dtype=object),
                                       return_inverse=True)
    label_for_sorted = np.empty(sorted_unique.shape[0], dtype=np.int64)
    positions = np.searchsorted(sorted_unique, np.asarray(unique,
                                                          dtype=object))
    label_for_sorted[positions] = unique_labels
    labels = label_for_sorted[inverse]
    return Clustering(labels, representatives, len(representatives))
