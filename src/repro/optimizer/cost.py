"""Cost model spanning relational and model-based operators.

Abstract cost units approximate relative wall time.  The decisive ratios —
interpreted-Python pair cost vs vectorized pair cost vs model-inference
cost — mirror the orders-of-magnitude gaps the paper's Figure 4 measures,
so the optimizer's choices (pushdown first, vectorized or index-based
access for semantic joins, parallel scale-up past a size threshold) land
where the measurements land.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import PlanError
from repro.relational.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
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
from repro.optimizer.cardinality import CardinalityEstimator
from repro.semantic.join import DEFAULT_BLOCK


@dataclass(frozen=True)
class CostParams:
    """Tunable per-unit costs (abstract units, relative wall time)."""

    scan_row: float = 1.0
    predicate_row: float = 1.0
    project_row: float = 1.0
    hash_build_row: float = 2.0
    hash_probe_row: float = 1.5
    nested_loop_pair: float = 2.0
    sort_row_log: float = 1.5
    aggregate_row: float = 2.5
    #: Model inference per distinct embedded string.
    embed_token: float = 200.0
    #: Per-pair similarity in interpreted Python (per vector dimension).
    pair_python_dim: float = 1.0
    #: Per-pair similarity through one vectorized kernel (per dimension).
    pair_vector_dim: float = 0.01
    #: Extra per-pair penalty when embeddings are re-fetched per pair.
    refetch_pair: float = 400.0
    #: Thread-pool setup cost and parallel efficiency for scale-up.
    parallel_setup: float = 5_000.0
    parallel_efficiency: float = 0.7
    #: Worker count the "parallel" access path is costed with.  ``None``
    #: means "unspecified": sessions fill it with their resolved
    #: ``parallelism`` (CPU-derived by default) so the optimizer's
    #: parallel-vs-blocked choice sees the worker count ``join_parallel``
    #: will actually run with; bare CostParams() uses fall back to the
    #: standalone modeling default below.  An explicit integer is always
    #: honored.
    workers: int | None = None
    #: Embedding dimensionality assumed by the pair costs.
    dim: int = 100


#: Worker count assumed when CostParams.workers is left unspecified and
#: no session filled it in (standalone cost-model studies).
DEFAULT_MODELED_WORKERS = 4


@dataclass
class Cost:
    """Cost split by resource class; ``total`` drives decisions."""

    cpu: float = 0.0
    model: float = 0.0

    @property
    def total(self) -> float:
        return self.cpu + self.model

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.cpu + other.cpu, self.model + other.model)


def semantic_join_method_cost(
    params: CostParams,
    unique_left: float,
    unique_right: float,
    method: str,
) -> Cost:
    """Cost of matching ``unique_left`` x ``unique_right`` key sets."""
    pairs = max(unique_left * unique_right, 1.0)
    dim = params.dim
    embed = (unique_left + unique_right) * params.embed_token
    if method == "nested_loop":
        # re-embeds per pair and dots in interpreted Python
        cpu = pairs * (dim * params.pair_python_dim + params.refetch_pair)
        return Cost(cpu=cpu, model=pairs * 2 * params.embed_token)
    if method == "prefetched":
        cpu = pairs * dim * params.pair_python_dim * 0.1  # np.dot per pair
        return Cost(cpu=cpu, model=embed)
    if method == "rowkernel":
        cpu = (pairs * dim * params.pair_vector_dim
               + unique_left * 50.0)  # per-row kernel dispatch
        return Cost(cpu=cpu, model=embed)
    if method == "blocked":
        cpu = pairs * dim * params.pair_vector_dim
        return Cost(cpu=cpu, model=embed)
    if method == "quantized":
        # int8 candidate pass (NumPy integer matmul lacks BLAS, ~2.5x the
        # float GEMM) + exact re-rank; its payoff is the 4x memory
        # footprint, which the transfer planner sees, not raw speed
        cpu = pairs * dim * params.pair_vector_dim * 2.5
        return Cost(cpu=cpu, model=embed)
    if method == "parallel":
        if params.workers is None:
            workers = DEFAULT_MODELED_WORKERS
        elif params.workers <= 0:
            # same convention as the kernels: non-positive = CPU-derived
            from repro.utils.parallel import resolve_workers

            workers = resolve_workers(params.workers)
        else:
            workers = params.workers
        # join_parallel hands whole DEFAULT_BLOCK left-row blocks to the
        # pool: a join with fewer blocks than workers leaves the rest idle
        workers = max(1, min(workers,
                             math.ceil(unique_left / DEFAULT_BLOCK)))
        cpu = (pairs * dim * params.pair_vector_dim
               / (workers * params.parallel_efficiency)
               + params.parallel_setup)
        return Cost(cpu=cpu, model=embed)
    if method.startswith("index:"):
        kind = method.split(":", 1)[1]
        return _index_cost(params, unique_left, unique_right, kind, embed)
    # unknown method: prohibitively expensive so selection avoids it
    return Cost(cpu=float("inf"))


def _index_cost(params: CostParams, n_queries: float, n_indexed: float,
                kind: str, embed: float) -> Cost:
    dim = params.dim
    vec = params.pair_vector_dim
    log_n = float(np.log2(max(n_indexed, 2.0)))
    if kind == "brute":
        build = n_indexed * dim * vec * 0.1
        probe = n_queries * n_indexed * dim * vec + n_queries * 50.0
    elif kind == "lsh":
        build = n_indexed * dim * vec * 96.0  # tables * bits projections
        candidate_fraction = 0.02
        probe = n_queries * (dim * vec * 96.0 + 200.0
                             + candidate_fraction * n_indexed * dim * vec)
    elif kind == "ivf":
        build = n_indexed * dim * vec * 25.0 * 16.0  # k-means iterations
        probe = n_queries * (16.0 * dim * vec
                             + (3.0 / 16.0) * n_indexed * dim * vec + 100.0)
    elif kind == "hnsw":
        build = n_indexed * log_n * dim * vec * 64.0 + n_indexed * 500.0
        probe = n_queries * (log_n * 32.0 * dim * vec + 300.0)
    else:
        return Cost(cpu=float("inf"))
    return Cost(cpu=build + probe, model=embed)


class CostModel:
    """Recursive plan costing on top of the cardinality estimator."""

    def __init__(self, estimator: CardinalityEstimator,
                 params: CostParams | None = None):
        self.estimator = estimator
        self.params = params or CostParams()

    def cost(self, plan: LogicalPlan) -> Cost:
        """Total cost of executing ``plan`` (children included)."""
        children = Cost()
        for child in plan.children:
            children = children + self.cost(child)
        return children + self.node_cost(plan)

    def estimate_total(self, plan: LogicalPlan) -> float:
        """Scalar plan-cost estimate.

        This is the number the serving layer's admission control
        classifies on (interactive vs. heavy lane): the optimizer
        writes it into ``OptimizationReport.estimated_cost``, the
        session stores it in each plan-cache entry, and a cache hit is
        admitted without re-costing anything.
        """
        return self.cost(plan).total

    def node_cost(self, plan: LogicalPlan) -> Cost:
        """Cost of the node itself, given estimated input cardinalities."""
        params = self.params
        if isinstance(plan, ScanNode):
            return Cost(cpu=self.estimator.estimate(plan) * params.scan_row)
        if isinstance(plan, FilterNode):
            from repro.relational.udf import expression_udf_cost

            rows = self.estimator.estimate(plan.child)
            per_row = params.predicate_row + expression_udf_cost(
                plan.predicate)
            return Cost(cpu=rows * per_row)
        if isinstance(plan, ProjectNode):
            from repro.relational.udf import expression_udf_cost

            rows = self.estimator.estimate(plan.child)
            per_row = (params.project_row * max(len(plan.exprs), 1)
                       + sum(expression_udf_cost(e)
                             for e, _ in plan.exprs))
            return Cost(cpu=rows * per_row)
        if isinstance(plan, LimitNode):
            return Cost(cpu=float(plan.count))
        if isinstance(plan, UnionNode):
            return Cost(cpu=self.estimator.estimate(plan))
        if isinstance(plan, SortNode):
            rows = max(self.estimator.estimate(plan.child), 1.0)
            return Cost(cpu=rows * float(np.log2(rows + 1))
                        * params.sort_row_log)
        if isinstance(plan, AggregateNode):
            rows = self.estimator.estimate(plan.child)
            return Cost(cpu=rows * params.aggregate_row)
        if isinstance(plan, JoinNode):
            left = self.estimator.estimate(plan.left)
            right = self.estimator.estimate(plan.right)
            if plan.left_keys:
                return Cost(cpu=right * params.hash_build_row
                            + left * params.hash_probe_row)
            return Cost(cpu=left * right * params.nested_loop_pair)
        if isinstance(plan, SemanticFilterNode):
            rows = self.estimator.estimate(plan.child)
            ndv = self.estimator.column_ndv(plan.column, plan.child,
                                            default=rows)
            unique = min(rows, ndv)
            return Cost(cpu=rows * params.predicate_row,
                        model=unique * params.embed_token)
        if isinstance(plan, SemanticSemiFilterNode):
            # DIP-induced probe filter: the column's distinct values
            # embed once, then score against each probe vector; the
            # mask applies per input row.
            rows = self.estimator.estimate(plan.child)
            ndv = self.estimator.column_ndv(plan.column, plan.child,
                                            default=rows)
            unique = min(rows, ndv)
            pairs = unique * max(len(plan.probes), 1)
            return Cost(cpu=rows * params.predicate_row
                        + pairs * params.dim * params.pair_vector_dim,
                        model=unique * params.embed_token)
        if isinstance(plan, SemanticJoinNode):
            return self.semantic_join_cost(plan)
        if isinstance(plan, SemanticGroupByNode):
            rows = self.estimator.estimate(plan.child)
            ndv = self.estimator.column_ndv(plan.column, plan.child,
                                            default=rows)
            unique = min(rows, ndv)
            pairs = unique * np.sqrt(max(unique, 1.0))  # leaders << unique
            return Cost(cpu=pairs * params.dim * params.pair_vector_dim,
                        model=unique * params.embed_token)
        raise PlanError(
            f"no cost model for plan node {type(plan).__name__}; "
            f"add an arm here and to analysis/dispatch_registry.py")

    def semantic_join_cost(self, plan: SemanticJoinNode,
                           method: str | None = None) -> Cost:
        """Cost of one semantic join under a given (or hinted) method."""
        method = method or plan.hints.get("method", "blocked")
        left_rows = self.estimator.estimate(plan.left)
        right_rows = self.estimator.estimate(plan.right)
        unique_left = min(left_rows, self.estimator.column_ndv(
            plan.left_column, plan.left, default=left_rows))
        unique_right = min(right_rows, self.estimator.column_ndv(
            plan.right_column, plan.right, default=right_rows))
        matching = semantic_join_method_cost(self.params, unique_left,
                                             unique_right, method)
        # expansion of unique matches back to row pairs
        output = self.estimator.estimate(plan)
        return matching + Cost(cpu=output * 0.5)
