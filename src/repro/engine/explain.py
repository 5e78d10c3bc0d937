"""EXPLAIN / EXPLAIN ANALYZE: plan rendering with estimates, costs
and (after execution) actuals."""

from __future__ import annotations

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.relational.logical import FilterNode, LogicalPlan
from repro.relational.physical import filter_run


def explain_plan(plan: LogicalPlan,
                 estimator: CardinalityEstimator | None = None,
                 cost_model: CostModel | None = None) -> str:
    """Human-readable plan with per-node row/cost estimates."""
    lines: list[str] = []

    def visit(node: LogicalPlan, indent: int) -> None:
        annotation = ""
        if estimator is not None:
            rows = estimator.estimate(node)
            annotation += f"  [rows~{rows:,.0f}"
            if cost_model is not None:
                cost = cost_model.node_cost(node)
                annotation += f", cost~{cost.total:,.0f}"
            annotation += "]"
        lines.append("  " * indent + node.label() + annotation)
        for child in node.children:
            visit(child, indent + 1)

    visit(plan, 0)
    return "\n".join(lines)


def explain_analyzed(plan: LogicalPlan, root, estimator: CardinalityEstimator,
                     total_seconds: float) -> str:
    """EXPLAIN ANALYZE table: estimated vs actual rows and wall time per
    operator of an *executed* tree (``root`` is ``plan``'s physical
    lowering).  A run of consecutive filters ran as one ``FilterOp``,
    so it prints as one line."""
    lines = [f"EXPLAIN ANALYZE  (total {total_seconds * 1e3:.2f} ms)"]

    def visit(logical: LogicalPlan, physical, indent: int) -> None:
        estimated = estimator.estimate(logical)
        label = logical.label()
        if isinstance(logical, FilterNode):
            run = filter_run(logical)
            label = " AND ".join(node.label() for node in run)
            logical = run[-1]
        actual = physical.rows_out
        drift = ""
        if estimated > 0 and actual > 0:
            ratio = max(estimated / actual, actual / estimated)
            if ratio >= 4.0:
                drift = f"  <-- estimate off {ratio:.0f}x"
        lines.append(
            "  " * indent
            + f"{label}  [est~{estimated:,.0f} rows, "
              f"actual {actual:,} rows, "
              f"{physical.elapsed * 1e3:.2f} ms]{drift}")
        for logical_child, physical_child in zip(logical.children,
                                                 physical.children):
            visit(logical_child, physical_child, indent + 1)

    visit(plan, root, 1)
    return "\n".join(lines)
