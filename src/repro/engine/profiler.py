"""Execution profiling: per-operator metrics collected after a run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import hit_ratio
from repro.relational.physical import FusedPipelineOp, PhysicalOperator


@dataclass
class OperatorProfile:
    label: str
    depth: int
    rows_out: int
    seconds: float


@dataclass
class QueryProfile:
    """What one query execution did."""

    operators: list[OperatorProfile] = field(default_factory=list)
    total_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    tokens_embedded: int = 0
    arena_rows: int = 0
    arena_bytes: int = 0
    # -- compiled-pipeline telemetry (zero when nothing fused) ---------
    #: Fused pipelines in the executed physical tree.
    fused_pipelines: int = 0
    #: Of those, how many paid a kernel compile this execution ...
    kernel_compiles: int = 0
    #: ... and how many were served from the shared kernel cache.
    kernel_cache_hits: int = 0
    #: Wall seconds spent compiling during this execution.
    kernel_compile_seconds: float = 0.0
    #: Backends the fused pipelines ran on ("python"/"numba").
    kernel_backends: list[str] = field(default_factory=list)
    # -- serving-layer fields (filled by engine.lifecycle; None/zero
    #    for builder queries and unscheduled executions) ---------------
    #: Whether the statement's optimized plan came from the plan cache.
    plan_cache_hit: bool | None = None
    #: Whether the statement's *result* came from the cross-statement
    #: result cache (execution skipped entirely).  ``None`` when the
    #: result cache was not consulted (disabled, builder query, or the
    #: uncacheable planning path).
    result_cache_hit: bool | None = None
    #: Whether the result was derived from a *containing* cached
    #: statement by the semantic-reuse subsystem (threshold/top-k
    #: refinement, extra predicate, or projection subset answered
    #: residually — no embedding/join execution).  ``None`` when the
    #: reuse registry was not consulted.
    reuse_hit: bool | None = None
    #: Seconds the query sat in an admission queue before a worker
    #: picked it up (0.0 when executed inline).
    queue_wait_seconds: float = 0.0
    #: Admission lane the scheduler classified the query into
    #: ("interactive" | "heavy"), if it went through the scheduler.
    lane: str | None = None
    #: Tenant the query was accounted to, if it went through the server.
    tenant: str | None = None
    #: The statement's span tree (:class:`repro.obs.trace.Trace`), when
    #: the statement was sampled.  The operator spans and ``operators``
    #: are built from the same rows, so the two views cannot disagree.
    trace: object | None = None

    @property
    def cache_hit_rate(self) -> float:
        return hit_ratio(self.cache_hits, self.cache_misses)

    @classmethod
    def from_tree(cls, root: PhysicalOperator,
                  total_seconds: float) -> "QueryProfile":
        """Operator rows and kernel telemetry of an executed tree; the
        embedding-arena fields are per-statement deltas the caller fills
        in (``engine.lifecycle.run_plan``)."""
        profile = cls(total_seconds=total_seconds)

        def visit(op: PhysicalOperator, depth: int) -> None:
            profile.operators.append(OperatorProfile(
                op.label(), depth, op.rows_out, op.elapsed))
            if isinstance(op, FusedPipelineOp):
                profile.fused_pipelines += 1
                if op.cache_hit:
                    profile.kernel_cache_hits += 1
                else:
                    profile.kernel_compiles += 1
                profile.kernel_compile_seconds += op.compile_seconds
                profile.kernel_backends.append(op.backend)
            for child in op.children:
                visit(child, depth + 1)

        visit(root, 0)
        return profile

    def pretty(self) -> str:
        lines = [f"total: {self.total_seconds * 1e3:.2f} ms  "
                 f"(cache {self.cache_hits} hits / "
                 f"{self.cache_misses} misses)"]
        if self.lane is not None:
            flag = {True: "hit", False: "miss", None: "-"}
            lines.append(f"serving: lane={self.lane}  "
                         f"plan-cache={flag[self.plan_cache_hit]}  "
                         f"result-cache={flag[self.result_cache_hit]}  "
                         f"reuse={flag[self.reuse_hit]}  "
                         f"queue wait {self.queue_wait_seconds * 1e3:.2f} ms")
        if self.fused_pipelines:
            backends = ",".join(sorted(set(self.kernel_backends)))
            lines.append(
                f"kernels: {self.fused_pipelines} fused pipeline(s) "
                f"[{backends}]  {self.kernel_compiles} compiles / "
                f"{self.kernel_cache_hits} cache hits  "
                f"compile {self.kernel_compile_seconds * 1e3:.2f} ms")
        if self.arena_rows:
            lines.append(f"arena: {self.arena_rows} rows / "
                         f"{self.arena_bytes / 1024:.1f} KiB  "
                         f"hit rate {self.cache_hit_rate:.1%}")
        for op in self.operators:
            lines.append(f"{'  ' * op.depth}{op.label}  "
                         f"rows={op.rows_out}  "
                         f"{op.seconds * 1e3:.2f} ms")
        if self.trace is not None and getattr(self.trace, "enabled", False):
            lines.append("trace:")
            lines.append(self.trace.pretty())
        return "\n".join(lines)
