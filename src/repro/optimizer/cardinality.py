"""Cardinality estimation across relational and semantic operators.

Classic System-R style estimates for relational nodes (column statistics,
NDV-based join sizes) extended with *sampling-based* estimates for
semantic operators — the paper points at fast sampling (ref [28]) as the
practical answer to "increasingly difficult cost and cardinality
estimation" (§VI).  Sampling embeds a bounded number of actual column
values through the model and measures the match fraction directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.relational.expressions import (
    And,
    ColumnRef,
    Compare,
    Expr,
    InList,
    Literal,
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
from repro.storage.catalog import Catalog
from repro.storage.statistics import Array, ColumnStats
from repro.utils.rng import make_rng

if TYPE_CHECKING:
    from repro.embeddings.registry import ModelRegistry
    from repro.relational.physical import ExecutionContext

#: Fallback selectivity when nothing better is known (System R's 1/3).
DEFAULT_SELECTIVITY = 1.0 / 3.0

_FLIPPED_OPS = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<",
                ">=": "<="}


def _column_literal(predicate: Compare) -> tuple[ColumnRef | None,
                                                 Literal | None]:
    """Normalize ``col OP lit`` / ``lit OP col`` to (column, literal).

    Returns the predicate re-oriented so the column is on the left; the
    caller must use the possibly-flipped operator via ``_oriented_op``.
    """
    if isinstance(predicate.left, ColumnRef) and isinstance(
            predicate.right, Literal):
        return predicate.left, predicate.right
    if isinstance(predicate.left, Literal) and isinstance(
            predicate.right, ColumnRef):
        return predicate.right, predicate.left
    return None, None


def _oriented_op(predicate: Compare) -> str:
    """Comparison operator as seen with the column on the left side."""
    if isinstance(predicate.left, Literal) and isinstance(
            predicate.right, ColumnRef):
        return _FLIPPED_OPS[predicate.op]
    return predicate.op
#: Fallback match probability for semantic predicates.
DEFAULT_SEMANTIC_SELECTIVITY = 0.05
#: Values sampled per semantic estimate.
SAMPLE_SIZE = 64


class CardinalityEstimator:
    """Estimates output row counts of logical plans."""

    def __init__(self, catalog: Catalog, models: ModelRegistry | None = None,
                 sample_size: int = SAMPLE_SIZE, seed: int = 97,
                 execution_context: ExecutionContext | None = None) -> None:
        self.catalog = catalog
        self.models = models
        self.sample_size = sample_size
        self.seed = seed
        #: When set, sampling embeds through the session's shared
        #: arena-backed caches instead of the bare model: sample values
        #: interned by any earlier statement (or by execution itself)
        #: make re-planning a statement family arena-hot.  Embeddings
        #: are identical either way, so estimates do not change.
        self.execution_context = execution_context
        self._semantic_cache: dict[tuple[object, ...], float] = {}

    def _embed_sample(self, model_name: str, values: list[str]
                      ) -> tuple[Array, Callable[[str], Array]]:
        """(matrix, vector_of) for sample values under ``model_name``."""
        if self.execution_context is not None:
            from repro.semantic.lowering import cache_for

            cache = cache_for(self.execution_context, model_name)
            return cache.matrix(values), cache.vector
        assert self.models is not None
        model = self.models.get(model_name)
        return model.embed_batch(values), model.embed

    # ------------------------------------------------------------------
    def estimate(self, plan: LogicalPlan) -> float:
        """Estimated number of output rows of ``plan``."""
        if isinstance(plan, ScanNode):
            return float(self.catalog.stats(plan.table_name).row_count)
        if isinstance(plan, FilterNode):
            child = self.estimate(plan.child)
            return child * self.selectivity(plan.predicate, plan.child)
        if isinstance(plan, (ProjectNode, SortNode, SemanticGroupByNode)):
            return self.estimate(plan.children[0])
        if isinstance(plan, LimitNode):
            return min(self.estimate(plan.child), float(plan.count))
        if isinstance(plan, UnionNode):
            return sum(self.estimate(child) for child in plan.children)
        if isinstance(plan, AggregateNode):
            return self._estimate_aggregate(plan)
        if isinstance(plan, JoinNode):
            return self._estimate_join(plan)
        if isinstance(plan, SemanticFilterNode):
            child = self.estimate(plan.child)
            return child * self.semantic_filter_selectivity(plan)
        if isinstance(plan, SemanticJoinNode):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            return max(left * right * self.semantic_join_selectivity(plan),
                       0.0)
        if isinstance(plan, SemanticSemiFilterNode):
            # prune-only upper bound: the DIP probe filter passes at
            # most its input, and the pass already gated on the build
            # side being tiny — estimate as the child (exactly what the
            # generic passthrough below yielded) until sampled probe
            # selectivities prove worth modeling.
            return self.estimate(plan.child)
        return float(self.estimate(plan.children[0])) if plan.children else 1.0

    # ------------------------------------------------------------------
    # Relational selectivities
    # ------------------------------------------------------------------
    def selectivity(self, predicate: Expr, input_plan: LogicalPlan) -> float:
        """Selectivity of a boolean expression against a subtree."""
        if isinstance(predicate, And):
            return (self.selectivity(predicate.left, input_plan)
                    * self.selectivity(predicate.right, input_plan))
        if isinstance(predicate, Or):
            s1 = self.selectivity(predicate.left, input_plan)
            s2 = self.selectivity(predicate.right, input_plan)
            return min(1.0, s1 + s2 - s1 * s2)
        if isinstance(predicate, Not):
            return 1.0 - self.selectivity(predicate.operand, input_plan)
        if isinstance(predicate, Compare):
            return self._compare_selectivity(predicate, input_plan)
        if isinstance(predicate, InList):
            stats = self._column_stats_for(predicate.operand, input_plan)
            if stats and stats.distinct:
                return min(1.0, len(predicate.values) / stats.distinct)
            return DEFAULT_SELECTIVITY
        return DEFAULT_SELECTIVITY

    def _compare_selectivity(self, predicate: Compare,
                             input_plan: LogicalPlan) -> float:
        column, literal = _column_literal(predicate)
        if column is None or literal is None:
            return DEFAULT_SELECTIVITY
        stats = self._stats_of_column(column.name, input_plan)
        if stats is None:
            return DEFAULT_SELECTIVITY
        value = literal.scalar()
        op = _oriented_op(predicate)
        if op == "=":
            return stats.selectivity_eq()
        if op == "!=":
            return 1.0 - stats.selectivity_eq()
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return DEFAULT_SELECTIVITY
        value = float(value)
        if op in (">", ">="):
            return stats.selectivity_range(value, None)
        if op in ("<", "<="):
            return stats.selectivity_range(None, value)
        return DEFAULT_SELECTIVITY

    def _column_stats_for(self, expr: Expr,
                          input_plan: LogicalPlan) -> ColumnStats | None:
        if isinstance(expr, ColumnRef):
            return self._stats_of_column(expr.name, input_plan)
        return None

    def _stats_of_column(self, name: str,
                         input_plan: LogicalPlan) -> ColumnStats | None:
        for scan in input_plan.walk():
            if not isinstance(scan, ScanNode):
                continue
            stats = self.catalog.stats(scan.table_name)
            qualifier = scan.qualifier
            for column_name, column_stats in stats.columns.items():
                qualified = (f"{qualifier}.{column_name}" if qualifier
                             else column_name)
                if qualified == name or qualified.endswith("." + name) or \
                        column_name == name:
                    return column_stats
        return None

    # ------------------------------------------------------------------
    # Joins / aggregates
    # ------------------------------------------------------------------
    def _estimate_join(self, plan: JoinNode) -> float:
        left = self.estimate(plan.left)
        right = self.estimate(plan.right)
        if plan.join_type == JoinType.CROSS or not plan.left_keys:
            base = left * right
            if plan.extra_predicate is not None:
                base *= DEFAULT_SELECTIVITY
            return base
        denominator = 1.0
        for left_key, right_key in zip(plan.left_keys, plan.right_keys):
            left_stats = self._stats_of_column(left_key, plan.left)
            right_stats = self._stats_of_column(right_key, plan.right)
            ndv_left = left_stats.distinct if left_stats else 0
            ndv_right = right_stats.distinct if right_stats else 0
            denominator *= max(ndv_left, ndv_right, 1)
        size = left * right / denominator
        if plan.join_type in (JoinType.SEMI, JoinType.ANTI):
            matched = min(left, size)
            return matched if plan.join_type == JoinType.SEMI else left - matched
        if plan.join_type == JoinType.LEFT:
            return max(size, left)
        return size

    def _estimate_aggregate(self, plan: AggregateNode) -> float:
        child = self.estimate(plan.child)
        if not plan.group_keys:
            return 1.0
        groups = 1.0
        for key in plan.group_keys:
            stats = self._stats_of_column(key, plan.child)
            groups *= stats.distinct if stats and stats.distinct else 10.0
        return min(child, groups)

    # ------------------------------------------------------------------
    # Semantic selectivities (sampling-based)
    # ------------------------------------------------------------------
    def semantic_filter_selectivity(self, plan: SemanticFilterNode) -> float:
        """Match fraction of a semantic filter, estimated by sampling."""
        key = ("filter", plan.model_name, plan.column, plan.probe,
               round(plan.threshold, 6))
        if key in self._semantic_cache:
            return self._semantic_cache[key]
        values = self._sample_column(plan.column, plan.child)
        result = DEFAULT_SEMANTIC_SELECTIVITY
        if values and self.models is not None:
            matrix, vector_of = self._embed_sample(plan.model_name,
                                                   values)
            probe = vector_of(plan.probe)
            result = float(np.mean((matrix @ probe) >= plan.threshold))
        self._semantic_cache[key] = result
        return result

    def semantic_join_selectivity(self, plan: SemanticJoinNode) -> float:
        """Pair-match probability of a semantic join, by pair sampling."""
        key = ("join", plan.model_name, plan.left_column, plan.right_column,
               round(plan.threshold, 6))
        if key in self._semantic_cache:
            return self._semantic_cache[key]
        left_values = self._sample_column(plan.left_column, plan.left)
        right_values = self._sample_column(plan.right_column, plan.right)
        result = DEFAULT_SEMANTIC_SELECTIVITY
        if left_values and right_values and self.models is not None:
            left_matrix, _ = self._embed_sample(plan.model_name,
                                                left_values)
            right_matrix, _ = self._embed_sample(plan.model_name,
                                                 right_values)
            similarity = left_matrix @ right_matrix.T
            result = float(np.mean(similarity >= plan.threshold))
        self._semantic_cache[key] = result
        return result

    def column_ndv(self, column: str, plan: LogicalPlan,
                   default: float = 100.0) -> float:
        """Distinct-value estimate for a column under ``plan``."""
        stats = self._stats_of_column(column, plan)
        if stats is not None and stats.distinct > 0:
            return float(stats.distinct)
        return default

    def _sample_column(self, column: str, plan: LogicalPlan) -> list[str]:
        """Sample raw values of ``column`` from the scan beneath ``plan``.

        Draws ``sample_size`` distinct picks over the column's non-null
        positions (memoized on the base table), so a statement pays for
        the sample, not for a pass over the column.
        """
        for scan in plan.walk():
            if not isinstance(scan, ScanNode):
                continue
            if column not in scan.schema:
                try:
                    scan.schema.index_of(column)
                except Exception:
                    continue
            table = self.catalog.get(scan.table_name)
            schema = table.schema.qualified(scan.qualifier) \
                if scan.qualifier else table.schema
            try:
                name = table.schema.names[schema.index_of(column)]
            except Exception:
                continue
            positions = table.non_null_positions(name)
            if not positions.shape[0]:
                return []
            values = table.columns[name]
            if positions.shape[0] <= self.sample_size:
                return list(values[positions])
            picks = make_rng(self.seed).choice(
                positions.shape[0], size=self.sample_size, replace=False)
            return list(values[positions[picks]])
        return []
