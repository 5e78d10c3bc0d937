"""Cardinality estimation across relational and semantic operators.

Classic System-R style estimates for relational nodes (column statistics,
NDV-based join sizes) extended with *sampling-based* estimates for
semantic operators — the paper points at fast sampling (ref [28]) as the
practical answer to "increasingly difficult cost and cardinality
estimation" (§VI).  Sampling embeds a bounded number of actual column
values through the model and measures the match fraction directly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator

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
    LogicalPlan,
    ScanNode,
    SemanticFilterNode,
    SemanticJoinNode,
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


def _conjuncts(predicate: Expr) -> Iterator[Expr]:
    """The top-level conjuncts of ``predicate``, ``And`` flattened."""
    if isinstance(predicate, And):
        yield from _conjuncts(predicate.left)
        yield from _conjuncts(predicate.right)
    else:
        yield predicate


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
        #: ``id(node) -> (node, rows)`` while :meth:`memoized` is open;
        #: the node is held so its ``id`` cannot be reused meanwhile.
        self._memo: dict[int, tuple[LogicalPlan, float]] | None = None

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
        memo = self._memo
        if memo is None:
            return plan.estimate_rows(self)
        hit = memo.get(id(plan))
        if hit is not None:
            return hit[1]
        rows = plan.estimate_rows(self)
        memo[id(plan)] = (plan, rows)
        return rows

    @contextmanager
    def memoized(self) -> Iterator[None]:
        """Estimate each plan node object once while the block runs.

        Costing a plan estimates every subtree again from each ancestor,
        and the join-order search re-costs shared subtrees; plan nodes
        are immutable, so within one optimization a node's estimate
        cannot change.  The memo never outlives the block: the estimator
        outlives statements, and appends change the statistics under
        it.
        """
        self._memo = {}
        try:
            yield
        finally:
            self._memo = None

    # ------------------------------------------------------------------
    # Relational selectivities
    # ------------------------------------------------------------------
    def conjunction_rows(self, predicates: list[Expr],
                         input_plan: LogicalPlan) -> float:
        """Rows of ``input_plan`` passing every predicate of a filter
        run (``predicates`` bottom filter first, as they apply).

        The run is one conjunction.  Numeric range bounds on one
        resolved column fold into a single ``[max lo, min hi]`` interval
        priced by one ``selectivity_range`` call — PostgreSQL's
        ``clauselist_selectivity`` range pairing — instead of
        multiplying as if independent.  Every other conjunct multiplies
        in exactly as a filter-at-a-time estimate did, in the same
        order, so a run with nothing to pair is unchanged.
        """
        rows = self.estimate(input_plan)
        if len(predicates) == 1 and not isinstance(predicates[0], And):
            return rows * self.selectivity(predicates[0], input_plan)
        factors = iter(self._paired_range_factors(
            [c for p in predicates for c in _conjuncts(p)], input_plan))
        for predicate in predicates:
            rows *= self._conjunction_selectivity(predicate, input_plan,
                                                  factors)
        return rows

    def _conjunction_selectivity(self, predicate: Expr,
                                 input_plan: LogicalPlan,
                                 factors: Iterator[float | None]) -> float:
        """:meth:`selectivity` of one filter's predicate, with each
        top-level conjunct's paired factor (left to right) taken from
        ``factors`` where it is not ``None``."""
        if isinstance(predicate, And):
            left = self._conjunction_selectivity(predicate.left,
                                                 input_plan, factors)
            return left * self._conjunction_selectivity(
                predicate.right, input_plan, factors)
        factor = next(factors)
        if factor is None:
            return self.selectivity(predicate, input_plan)
        return factor

    def _paired_range_factors(self, conjuncts: list[Expr],
                              input_plan: LogicalPlan
                              ) -> list[float | None]:
        """Per conjunct: ``None`` (own selectivity) or, for a column
        with two or more numeric range bounds, the interval's
        selectivity on its first bound and 1.0 on the rest.  Columns
        key on the scan they resolve to plus the column name — a
        self-join's ``l.x`` and ``r.x`` share one stats object but
        bound different rows."""
        groups: dict[tuple[int, str], list[tuple[int, float | None,
                                                 float | None]]] = {}
        stats_of: dict[tuple[int, str], ColumnStats] = {}
        for position, conjunct in enumerate(conjuncts):
            if not isinstance(conjunct, Compare):
                continue
            column, literal = _column_literal(conjunct)
            if column is None or literal is None:
                continue
            op = _oriented_op(conjunct)
            value = literal.scalar()
            if op not in ("<", "<=", ">", ">=") or isinstance(
                    value, bool) or not isinstance(value, (int, float)):
                continue
            resolved = self._resolve_column(column.name, input_plan)
            if resolved is None:
                continue
            scan, name, stats = resolved
            key = (id(scan), name)
            stats_of[key] = stats
            bound = float(value)
            groups.setdefault(key, []).append(
                (position, bound, None) if op in (">", ">=")
                else (position, None, bound))
        factors: list[float | None] = [None] * len(conjuncts)
        for key, bounds in groups.items():
            if len(bounds) < 2:
                continue  # a lone bound keeps its own selectivity
            lows = [lo for _, lo, _ in bounds if lo is not None]
            highs = [hi for _, _, hi in bounds if hi is not None]
            low = max(lows) if lows else None
            high = min(highs) if highs else None
            if low is not None and high is not None and low > high:
                selectivity = 0.0
            else:
                selectivity = stats_of[key].selectivity_range(low, high)
            for rank, (position, _, _) in enumerate(bounds):
                factors[position] = selectivity if rank == 0 else 1.0
        return factors

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
        resolved = self._resolve_column(name, input_plan)
        return resolved[2] if resolved is not None else None

    def _resolve_column(self, name: str, input_plan: LogicalPlan
                        ) -> tuple[ScanNode, str, ColumnStats] | None:
        """(scan, column name, stats) ``name`` binds to under the plan."""
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
                    return scan, column_name, column_stats
        return None

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

    def distinct_rows(self, column: str, plan: LogicalPlan,
                      rows: float) -> float:
        """Distinct values of ``column`` among ``rows`` rows of ``plan``:
        its NDV capped at ``rows`` (``rows`` when unknown)."""
        return min(rows, self.column_ndv(column, plan, default=rows))

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
