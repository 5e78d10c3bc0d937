"""EXPLAIN / EXPLAIN ANALYZE: plan rendering with estimates, costs
and (after execution) actuals."""

from __future__ import annotations

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.relational.logical import LogicalPlan


def explain_plan(plan: LogicalPlan,
                 estimator: CardinalityEstimator | None = None,
                 cost_model: CostModel | None = None) -> str:
    """Human-readable plan with per-node row/cost estimates.

    Fused pipelines render their stages as indented ``·`` pseudo-children
    so the pre-fusion operator chain stays visible in EXPLAIN output.
    """
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
        for stage in reversed(node.stages):       # outermost first,
            lines.append("  " * (indent + 1)      # like plan rendering
                         + "· " + stage.label())
        for child in node.children:
            visit(child, indent + 1)

    visit(plan, 0)
    return "\n".join(lines)


def explain_analyzed(plan: LogicalPlan, root, estimator: CardinalityEstimator,
                     total_seconds: float) -> str:
    """EXPLAIN ANALYZE table: estimated vs actual rows and wall time per
    operator of an *executed* tree (``root`` is ``plan``'s physical
    lowering, node for node)."""
    lines = [f"EXPLAIN ANALYZE  (total {total_seconds * 1e3:.2f} ms)"]

    def visit(logical: LogicalPlan, physical, indent: int) -> None:
        estimated = estimator.estimate(logical)
        actual = physical.rows_out
        drift = ""
        if estimated > 0 and actual > 0:
            ratio = max(estimated / actual, actual / estimated)
            if ratio >= 4.0:
                drift = f"  <-- estimate off {ratio:.0f}x"
        lines.append(
            "  " * indent
            + f"{logical.label()}  [est~{estimated:,.0f} rows, "
              f"actual {actual:,} rows, "
              f"{physical.elapsed * 1e3:.2f} ms]{drift}"
            + pipeline_annotation(physical))
        for logical_child, physical_child in zip(logical.children,
                                                 physical.children):
            visit(logical_child, physical_child, indent + 1)

    visit(plan, root, 1)
    return "\n".join(lines)


def pipeline_annotation(physical) -> str:
    """EXPLAIN ANALYZE suffix for a compiled pipeline operator.

    Says which backend the kernel ran on and whether this execution hit
    the kernel cache or paid the compile.
    """
    from repro.relational.physical import FusedPipelineOp

    if not isinstance(physical, FusedPipelineOp):
        return ""
    if physical.cache_hit:
        return f"  {{compiled backend={physical.backend}, kernel cache hit}}"
    return (f"  {{compiled backend={physical.backend}, "
            f"compiled in {physical.compile_seconds * 1e3:.2f} ms}}")
