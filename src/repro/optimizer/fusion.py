"""Pipeline fusion: group maximal fusible chains into PipelineNodes.

Runs as the **final** optimizer stage, after physical selection, so every
other pass (pushdown, pruning, join order, DIP, access-path choice) sees
only the classic node types and the fused stages carry their final
hints.  The pass walks the plan top-down and greedily collects maximal
``Filter``/``Project``/``Limit`` chains — ``Scan -> Filter -> Project ->
Limit`` straight-line plans, the post-filter chains above semantic
filter/top-k nodes, and the pre-filter chains below them (reached when
the barrier's own subtree is rewritten).  Joins, aggregates, sorts,
unions, and semantic operators are barriers: they end a chain and are
recursed into.

A chain fuses only when every stage can be compiled soundly:

- filter predicates and projection expressions must be
  :func:`~repro.hardware.jit.jit_supported` (no ``Func``/UDF calls — the
  interpreter owns those);
- every predicate, and every non-``Literal`` projection item, must
  reference at least one column — a column-free expression evaluates to
  a scalar where the interpreter broadcasts an array, so the kernel
  would produce a 0-d mask / mis-shaped output;
- a ``Limit`` joins the chain only when no already-collected ``Filter``
  sits *above* it (a filter applied after a limit cannot commute with
  slicing the fused output); the limit instead starts its own chain
  below.

Eligible chains still interpret unless the cost model votes to compile
(``mode="auto"``): :meth:`CostModel.should_fuse` charges the full
compile cost against the interpreted chain cost, so small one-shot
queries — and the existing small-fixture test plans — keep their exact
interpreted shape.  ``mode="on"`` fuses every eligible chain (the parity
suites use it), ``mode="off"`` disables the stage.
"""

from __future__ import annotations

from repro.hardware.jit import jit_supported
from repro.optimizer.cost import CostModel
from repro.relational.expressions import Literal
from repro.relational.logical import (
    FilterNode,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
)
from repro.relational.pipeline import PipelineNode

FUSION_MODES = ("auto", "on", "off")


def _stage_supported(node: LogicalPlan) -> bool:
    if isinstance(node, FilterNode):
        return jit_supported(node.predicate) and bool(
            node.predicate.columns())
    if isinstance(node, ProjectNode):
        for expr, _alias in node.exprs:
            if not jit_supported(expr):
                return False
            if not isinstance(expr, Literal) and not expr.columns():
                return False
        return True
    return isinstance(node, LimitNode)


class PipelineFusion:
    """The fusion pass; ``fused`` counts pipelines created."""

    def __init__(self, cost_model: CostModel, mode: str = "auto"):
        if mode not in FUSION_MODES:
            raise ValueError(
                f"compiled_pipelines must be one of {FUSION_MODES}, "
                f"got {mode!r}")
        self.cost_model = cost_model
        self.mode = mode
        self.fused = 0

    def run(self, plan: LogicalPlan) -> LogicalPlan:
        if self.mode == "off":
            return plan
        return self._rewrite(plan)

    def _rewrite(self, node: LogicalPlan) -> LogicalPlan:
        fused = self._try_fuse(node)
        if fused is not None:
            return fused
        children = tuple(self._rewrite(child) for child in node.children)
        return node.with_children(children)

    def _try_fuse(self, root: LogicalPlan) -> PipelineNode | None:
        """Fuse the maximal chain rooted at ``root``, or ``None`` to
        leave the root as a plain operator."""
        chain: list[LogicalPlan] = []     # outermost first
        seen_filter = False
        node = root
        while _stage_supported(node):
            if isinstance(node, LimitNode) and seen_filter:
                break                      # filter-after-limit: unsound
            if isinstance(node, FilterNode):
                seen_filter = True
            chain.append(node)
            node = node.children[0]
        if not any(isinstance(stage, (FilterNode, ProjectNode))
                   for stage in chain):
            return None                    # nothing to compile
        stages = list(reversed(chain))     # innermost first
        if self.mode == "auto" \
                and not self.cost_model.should_fuse(stages):
            return None
        if isinstance(node, ScanNode):
            stages.insert(0, node)
            source = None
        else:
            source = self._rewrite(node)
        self.fused += 1
        return PipelineNode(tuple(stages), source)
