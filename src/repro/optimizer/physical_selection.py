"""Physical selection.

Annotates each equi-join with the algorithm the lowering runs: hash
when it has keys, nested loop when it has none.  A semantic join has
one kernel (blocked GEMM; one GEMM with a top-k selection for
``TOP k``), so it carries no physical hint.
"""

from __future__ import annotations

from repro.relational.logical import JoinNode, LogicalPlan


class PhysicalSelector:
    """Records each equi-join's algorithm as a plan hint."""

    name = "physical_selection"

    def run(self, plan: LogicalPlan) -> LogicalPlan:
        for node in plan.walk():
            if isinstance(node, JoinNode):
                node.hints["algorithm"] = ("hash" if node.left_keys
                                           else "nested_loop")
        return plan
