"""Cost model spanning relational and model-based operators.

Abstract cost units approximate relative wall time.  The decisive ratio —
vectorized pair cost vs model-inference cost — mirrors the
orders-of-magnitude gap the paper's Figure 4 measures, so the optimizer's
choices (pushdown first, then one of the exact semantic-join access paths:
blocked GEMM or a brute-force index) land where the measurements land.
"""

from __future__ import annotations

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
    #: Per-pair similarity through one vectorized kernel (per dimension).
    pair_vector_dim: float = 0.01
    #: Embedding dimensionality assumed by the pair costs.
    dim: int = 100


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
    if method == "blocked":
        cpu = pairs * dim * params.pair_vector_dim
        return Cost(cpu=cpu, model=embed)
    if method == "index:brute":
        # build copies the indexed rows; each left key probes all of them
        vec = params.pair_vector_dim
        build = unique_right * dim * vec * 0.1
        probe = unique_left * unique_right * dim * vec + unique_left * 50.0
        return Cost(cpu=build + probe, model=embed)
    # unknown method: prohibitively expensive so selection avoids it
    return Cost(cpu=float("inf"))


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
