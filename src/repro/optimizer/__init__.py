"""Holistic query optimizer across relational and semantic operators.

Paper §IV/§V: expose model-assisted operators — their schemas, cardinality
effects, and cost characteristics — to one rule- and cost-based optimizer
so classic lessons (filter pushdown, join ordering, cost-based planning)
apply to context-rich plans unchanged.

Pipeline (see :class:`~repro.optimizer.optimizer.Optimizer`):

1. rewrite rules to fixpoint (pushdowns, filter ordering, merges),
2. join ordering (DP over the commutative inner-join subtrees),
3. data-induced predicates (derive probe-side filters from build sides),
4. physical selection (the equi-join algorithm).

Join ordering is costed by the cost model over cardinality estimation
(with sampling for semantic selectivities, ref [28]); the optimized
plan's total cost picks its scheduler lane.
"""

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import Cost, CostModel, CostParams
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.optimizer.rules import (
    MergeFilters,
    OrderFilterChain,
    PushFilterIntoJoin,
    PushFilterThroughSemanticJoin,
    PruneColumns,
    RewriteRule,
    DEFAULT_RULES,
)

__all__ = [
    "CardinalityEstimator",
    "Cost",
    "CostModel",
    "CostParams",
    "Optimizer",
    "OptimizerConfig",
    "MergeFilters",
    "OrderFilterChain",
    "PushFilterIntoJoin",
    "PushFilterThroughSemanticJoin",
    "PruneColumns",
    "RewriteRule",
    "DEFAULT_RULES",
]
