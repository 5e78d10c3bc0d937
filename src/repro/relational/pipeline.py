"""Fused operator pipelines: one plan node for a compiled chain.

The optimizer's fusion pass (:mod:`repro.optimizer.fusion`) groups
maximal fusible chains — ``Scan -> Filter* -> Project? -> Filter* ->
Limit`` and the pre-/post-filter chains around semantic operators — into
one :class:`PipelineNode`.  Physical lowering compiles the whole chain
into a single generated kernel
(:func:`repro.relational.codegen.compile_pipeline`) that binds input columns once, evaluates the fused predicate mask,
applies projections on the masked selection, and returns output columns
— no intermediate :class:`~repro.storage.table.Table` per operator, one
boolean-index pass per filter segment instead of one per operator.

``stages`` are the original logical nodes, innermost first, so EXPLAIN,
cardinality estimation, and the reuse subsystem's shape fingerprints can
always see through the fusion (a fused plan must describe like its
unfused twin).  A ``ScanNode`` may only appear as ``stages[0]`` (then
the pipeline has no children and the executor feeds the whole base
table through the kernel in one pass); otherwise the pipeline has one
child — the barrier operator (join, aggregate, sort, semantic node)
whose output batches stream through the kernel.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.errors import PlanError
from repro.relational.codegen import PipelineSpec
from repro.relational.fields import LiteralFormat
from repro.relational.logical import (
    FilterNode,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
)
from repro.storage.schema import Schema
from repro.storage.types import DataType

class PipelineNode(LogicalPlan):
    """A maximal fusible operator chain compiled to one kernel."""

    fields = ("stages",)

    def __init__(self, stages: tuple[LogicalPlan, ...],
                 source: LogicalPlan | None) -> None:
        #: Original logical nodes, innermost first.  Their own child
        #: pointers still reference the pre-fusion subtree; consumers
        #: that need the input go through ``self.children``.
        self.stages = tuple(stages)
        super().__init__(() if source is None else (source,))

    def _validate(self) -> None:
        if not self.stages:
            raise PlanError("pipeline of zero stages")
        for index, stage in enumerate(self.stages):
            if isinstance(stage, ScanNode):
                if index != 0 or self.children:
                    raise PlanError(
                        "a scan may only be the innermost pipeline stage")
            elif not isinstance(stage, (FilterNode, ProjectNode,
                                        LimitNode)):
                raise PlanError(
                    f"{type(stage).__name__} is not a fusible stage")

    # -- structure ------------------------------------------------------
    @property
    def source(self) -> LogicalPlan | None:
        """The barrier input, or ``None`` when the pipeline embeds its
        own scan."""
        return self.children[0] if self.children else None

    @property
    def scan(self) -> ScanNode | None:
        head = self.stages[0]
        return head if isinstance(head, ScanNode) else None

    @property
    def limit(self) -> int | None:
        """Effective row limit of the chain's trailing Limit stages."""
        counts = [stage.count for stage in self.stages
                  if isinstance(stage, LimitNode)]
        return min(counts) if counts else None

    def input_schema(self) -> Schema:
        scan = self.scan
        if scan is not None:
            return scan.schema
        return self.children[0].schema

    def _compute_schema(self) -> Schema:
        return self.stages[-1].schema

    def render(self, lit: LiteralFormat = repr) -> str:
        kinds = [type(stage).__name__.removesuffix("Node")
                 for stage in self.stages]
        if self.scan is not None:
            kinds[0] = f"Scan({self.scan.table_name})"
        return f"Pipeline[{'→'.join(kinds)}]"

    # -- identity -------------------------------------------------------
    def fingerprint(self) -> str:
        """Structural digest the kernel cache keys on.

        Covers everything the generated code depends on: the input
        column names, every fused stage's label (total — literals print
        their values; the scan adds nothing the input column names do
        not already say), and the output column names + dtypes.
        Catalog versions and data generations are deliberately absent:
        a kernel is a pure function of plan structure, so it stays
        valid across data changes as long as the schema (and therefore
        this digest) does — the invalidation note in
        ``docs/serving.md`` spells this out.
        """
        parts = [",".join(self.input_schema().names)]
        parts.extend(stage.label() for stage in self.stages
                     if stage is not self.scan)
        parts.append(",".join(f"{field.name}:{field.dtype.name}"
                              for field in self.schema.fields))
        return hashlib.blake2b("\n".join(parts).encode("utf-8"),
                               digest_size=16).hexdigest()

    def kernel_spec(self) -> PipelineSpec:
        """The :class:`~repro.relational.codegen.PipelineSpec` for this
        chain (filter runs merged into single segments)."""
        ops: list[tuple[Any, ...]] = []
        for stage in self.stages:
            if isinstance(stage, FilterNode):
                if ops and ops[-1][0] == "filter":
                    ops[-1] = ("filter", ops[-1][1] + (stage.predicate,))
                else:
                    ops.append(("filter", (stage.predicate,)))
            elif isinstance(stage, ProjectNode):
                ops.append(("project", tuple(stage.exprs)))
        return PipelineSpec(
            input_columns=tuple(self.input_schema().names),
            ops=tuple(ops),
            output=tuple((field.name, field.dtype == DataType.STRING)
                         for field in self.schema.fields))
