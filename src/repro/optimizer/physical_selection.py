"""Cost-based physical selection.

Annotates plan nodes with physical hints the lowering honours — most
importantly the semantic join's access path (blocked GEMM vs a
brute-force index), the §V "index-based access for similarity
search should be accounted for in the cost-based optimization" decision.
"""

from __future__ import annotations

from repro.optimizer.cost import CostModel
from repro.relational.logical import JoinNode, LogicalPlan, SemanticJoinNode
from repro.semantic.join import SEMANTIC_JOIN_METHODS


class PhysicalSelector:
    """Chooses physical strategies by comparing modeled costs."""

    name = "physical_selection"

    def __init__(self, cost_model: CostModel,
                 methods: tuple[str, ...] = SEMANTIC_JOIN_METHODS):
        self.cost_model = cost_model
        self.methods = methods
        self.decisions: list[tuple[str, str]] = []

    def run(self, plan: LogicalPlan) -> LogicalPlan:
        for node in plan.walk():
            if isinstance(node, SemanticJoinNode):
                self._select_semantic_join(node)
            elif isinstance(node, JoinNode):
                node.hints["algorithm"] = ("hash" if node.left_keys
                                           else "nested_loop")
        return plan

    def _select_semantic_join(self, node: SemanticJoinNode) -> None:
        scored = [
            (self.cost_model.semantic_join_cost(node, method).total, method)
            for method in self.methods
        ]
        scored.sort()
        chosen = scored[0][1]
        node.hints["method"] = chosen
        self.decisions.append((node.label(), chosen))
