"""Cost model spanning relational and model-based operators.

Abstract cost units approximate relative wall time.  The decisive ratio —
vectorized pair cost vs model-inference cost — mirrors the
orders-of-magnitude gap the paper's Figure 4 measures, so the optimizer's
choices (pushdown first, semantic joins over the fewest distinct keys)
land where the measurements land.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.cost_units import Cost as Cost
from repro.relational.logical import LogicalPlan
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
        """Cost of the node itself, given estimated input cardinalities
        (each node declares its own formula: ``LogicalPlan.node_cost``)."""
        return plan.node_cost(self)
