"""Adaptive mid-query re-optimization (paper §VI).

"With increasingly difficult cost and cardinality estimation, fast
sampling ... or speculation techniques [29] can come in handy to provide
mechanisms for practical and adaptive query optimization and execution.
Late binding to the query requirements ... has become a standard."

The executor materializes the inputs of the plan's first pipeline breaker
(a semantic join — the operator whose cost is most sensitive to
cardinalities), compares *actual* input cardinalities against the
optimizer's estimates, and when they deviate beyond a factor, re-optimizes
the remaining plan against the materialized reality: the catalog now holds
exact statistics for the intermediates, so join ordering and pushdown
re-run with ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.relational.logical import LogicalPlan, ScanNode, SemanticJoinNode
from repro.relational.physical import execute_plan
from repro.storage.table import Table


@dataclass
class AdaptiveReport:
    """What adaptive execution observed and decided."""

    checked_node: str | None = None
    estimated_inputs: tuple[float, float] | None = None
    actual_inputs: tuple[int, int] | None = None
    deviation: float = 1.0
    reoptimized: bool = False
    temp_tables: list[str] = field(default_factory=list)


class AdaptiveExecutor:
    """Executes plans with one re-optimization checkpoint."""

    def __init__(self, session, deviation_factor: float = 4.0):
        self.session = session
        self.deviation_factor = deviation_factor
        self._temp_counter = 0

    def execute(self, plan: LogicalPlan) -> tuple[Table, AdaptiveReport]:
        """Optimize, checkpoint at the first semantic join, maybe re-plan."""
        report = AdaptiveReport()
        optimized = self.session.optimize(plan)
        checkpoint = self._deepest_semantic_join(optimized)
        if checkpoint is None:
            return (self.session.execute(optimized, optimize=False), report)

        report.checked_node = checkpoint.label()

        from repro.optimizer.cardinality import CardinalityEstimator

        estimator = CardinalityEstimator(self.session.catalog,
                                         self.session.models)
        estimated = (estimator.estimate(checkpoint.left),
                     estimator.estimate(checkpoint.right))
        report.estimated_inputs = estimated

        left_table = execute_plan(checkpoint.left, self.session.context)
        right_table = execute_plan(checkpoint.right, self.session.context)
        actual = (left_table.num_rows, right_table.num_rows)
        report.actual_inputs = actual
        report.deviation = max(
            _ratio(estimated[0], actual[0]),
            _ratio(estimated[1], actual[1]),
        )

        left_scan = self._materialize(left_table, report)
        right_scan = self._materialize(right_table, report)
        rebuilt = _replace_node(
            optimized, checkpoint,
            checkpoint.with_children((left_scan, right_scan)))

        try:
            if report.deviation > self.deviation_factor:
                report.reoptimized = True
                rebuilt = self.session.optimize(rebuilt)
            result = self.session.execute(rebuilt, optimize=False)
        finally:
            for name in report.temp_tables:
                self.session.catalog.drop(name)
        return result, report

    # ------------------------------------------------------------------
    def _deepest_semantic_join(
            self, plan: LogicalPlan) -> SemanticJoinNode | None:
        deepest: SemanticJoinNode | None = None

        def visit(node: LogicalPlan) -> None:
            nonlocal deepest
            for child in node.children:
                visit(child)
            if isinstance(node, SemanticJoinNode) and deepest is None:
                deepest = node

        visit(plan)
        return deepest

    def _materialize(self, table: Table, report: AdaptiveReport) -> ScanNode:
        name = f"__adaptive_{self._temp_counter}"
        self._temp_counter += 1
        self.session.catalog.register(name, table, replace=True)
        report.temp_tables.append(name)
        return ScanNode(name, table.schema)


def _ratio(estimated: float, actual: int) -> float:
    low = max(min(estimated, actual), 1.0)
    high = max(estimated, float(actual), 1.0)
    return high / low


def _replace_node(plan: LogicalPlan, target: LogicalPlan,
                  replacement: LogicalPlan) -> LogicalPlan:
    """Rebuild ``plan`` with ``target`` (by identity) swapped out."""
    if plan is target:
        return replacement
    new_children = tuple(_replace_node(child, target, replacement)
                         for child in plan.children)
    if all(new is old for new, old in zip(new_children, plan.children)):
        return plan
    return plan.with_children(new_children)
