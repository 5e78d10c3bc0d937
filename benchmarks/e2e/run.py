"""End-to-end benchmark: whole statements on the real serving path.

    python3 benchmarks/e2e/run.py --workload retail_adhoc --seed 1 \\
        --seconds 20 --trace 0

One closed-loop client drives a default-constructed
``EngineServer(seed=...)`` — no knob overrides, so a change that fixes a
bad default shows up honestly.  ``--trace 0`` is the **e2e run**: it
times only ``client.sql()`` / ``client.append()`` from outside and
prints the end-to-end metrics.  ``--trace 1`` is the **layered run**:
the same operations once through the real path (counters, scheduler),
once stepped through the layers with the benchmark's own spans
(``layers.py``), once with the engine's tracer off, plus leaf probes —
it prints the per-layer metrics.  Both end with an untimed verify
replay against a cache-less oracle (``oracle.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads, like every benchmark in this
# repository (benchmarks/conftest.py): kernel parallelism is the
# engine's own WorkerBudget, and OpenBLAS's pool on a 2-core box only
# adds contention.  An explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

try:
    from repro.server import EngineServer  # noqa: E402
except ModuleNotFoundError as error:
    sys.exit(f"cannot import the engine from {REPO / 'src'}: {error}")

import layers  # noqa: E402
from oracle import verify_replay  # noqa: E402
from workloads import SCALES, WORKLOADS, Workload, build_workload  # noqa: E402

#: Seconds between resident-set samples during a timed phase.
RSS_PERIOD = 0.25
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20

#: Share of ``--seconds`` each phase of the layered run gets.
PHASE_SHARES = {"real": 0.3, "layered": 0.4, "untraced": 0.3}


def load_contract() -> dict:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as source:
        return json.load(source)


# ----------------------------------------------------------------------
# Set-up and the timed loop
# ----------------------------------------------------------------------
@dataclass
class Installed:
    server: EngineServer
    client: object
    register_s: float
    warmup_s: float

    @property
    def seconds(self) -> float:
        return self.register_s + self.warmup_s


def install(workload: Workload, seed: int, **overrides) -> Installed:
    """Construct a server, register models/tables (statistics included)
    and run the warm-up pass.  ``overrides`` stays empty except for the
    tracer-off phase of the layered run."""
    clock = time.perf_counter
    start = clock()
    server = EngineServer(seed=seed, **overrides)
    workload.install(server)
    for name in workload.tables:
        server.state.catalog.stats(name)
    registered = clock()
    client = server.session("bench")
    for op in workload.warmup:
        serve_real(client, op)
    return Installed(server, client, registered - start,
                     clock() - registered)


def serve_real(client, op):
    if op.kind == "append":
        return client.append(op.table, op.rows)
    return client.sql(op.text)


@dataclass
class Phase:
    """What one timed phase measured, index-aligned with the op list."""

    latencies: list[float] = field(default_factory=list)   # nan = failed
    failures: list[str] = field(default_factory=list)
    wall: float = 0.0
    #: Resident set in MB, read between operations every RSS_PERIOD s.
    rss_mb: list[float] = field(default_factory=list)


def resident_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * _PAGE_MB


def timed_phase(ops, serve, seconds: float, min_ops: int = 0,
                after=None, checkpoint=None) -> Phase:
    """Closed loop: serve ``ops`` in order until ``seconds`` have passed
    (and at least ``min_ops`` are done) or the list ends.

    ``after(op)`` runs after each operation, outside its latency;
    ``checkpoint()`` runs once, when exactly ``min_ops`` are done.
    """
    phase = Phase()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    next_sample = start
    done = 0
    for op in ops:
        if done == min_ops and checkpoint is not None:
            checkpoint()
            checkpoint = None
        now = clock()
        if now >= deadline and done >= min_ops:
            break
        if now >= next_sample:
            phase.rss_mb.append(resident_mb())
            next_sample = now + RSS_PERIOD
            now = clock()
        try:
            serve(op)
            phase.latencies.append(clock() - now)
        except Exception as error:  # noqa: BLE001 — counted and reported
            phase.latencies.append(math.nan)
            phase.failures.append(
                f"{type(error).__name__}: {error} <- "
                f"{op.text or 'append ' + op.table}")
        done += 1
        if after is not None:
            after(op)
    phase.wall = clock() - start
    if checkpoint is not None:
        checkpoint()
    return phase


def timed_verify(workload: Workload, seed: int, count: int,
                 serve) -> tuple[list[str], float]:
    """The verify replay's mismatch lines, and how long it took."""
    started = time.perf_counter()
    mismatches = verify_replay(workload, seed, count, serve)
    return mismatches, time.perf_counter() - started


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def latencies_ms(phase: Phase, ops, kind: str) -> list[float]:
    return [seconds * 1e3 for seconds, op in zip(phase.latencies, ops)
            if op.kind == kind and not math.isnan(seconds)]


# ----------------------------------------------------------------------
# --trace 0: the e2e run
# ----------------------------------------------------------------------
def run_e2e(workload: Workload, seed: int, seconds: float,
            verify_ops: int) -> dict:
    ops = workload.ops
    installed = install(workload, seed)
    setups = [installed.seconds]
    phase = timed_phase(ops, lambda op: serve_real(installed.client, op),
                        seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    installed.server.close()

    installed = install(workload, seed)
    setups.append(installed.seconds)
    mismatches, verify_s = timed_verify(
        workload, seed, verify_ops,
        lambda op: serve_real(installed.client, op))
    installed.server.close()

    # a third set-up only for the median: set-up is cheap next to the
    # timed phase, and one slow construction must not move setup_s
    installed = install(workload, seed)
    setups.append(installed.seconds)
    installed.server.close()

    reads = latencies_ms(phase, ops, "sql")
    writes = latencies_ms(phase, ops, "append")
    done = len(phase.latencies) - len(phase.failures)
    metrics = {
        "setup_s": workload.generate_s + statistics.median(setups),
        "stmt_p50_ms": statistics.median(reads),
        "stmt_p95_ms": percentile(reads, 0.95),
        "throughput_sps": done / phase.wall,
        # the mean, not the median: the resident set flips between two
        # levels while an idle worker thread still pins the last large
        # result, and the time in each level varies from run to run
        "rss_mb": statistics.fmean(phase.rss_mb),
    }
    print(f"timed phase: {phase.wall:.2f} s, {len(phase.latencies)} "
          f"operations ({len(reads)} statements, {len(writes)} appends), "
          f"{len(phase.failures)} failed; verify replay: "
          f"{min(verify_ops, len(ops))} operations in {verify_s:.2f} s, "
          f"{len(mismatches)} mismatches")
    print(f"set-up: generate {workload.generate_s:.3f} s + median of "
          f"{[round(s, 3) for s in setups]} s")
    print(f"  stmt_p99_ms (ungated)        {percentile(reads, 0.99):10.3f} "
          f"ms  n={len(reads)}")
    print(f"  peak_rss_mb (ungated)        {peak_rss_mb:10.1f} MB  "
          f"(ru_maxrss; rss_mb is the mean of {len(phase.rss_mb)} "
          f"samples)")
    print_families(phase, ops)
    return {"metrics": metrics,
            "counts": dict.fromkeys(("stmt_p50_ms", "stmt_p95_ms"),
                                    len(reads)),
            "attempted": len(phase.latencies) + min(verify_ops, len(ops)),
            "failures": phase.failures, "mismatches": mismatches}


def print_families(phase: Phase, ops) -> None:
    by_family: dict[str, list[float]] = defaultdict(list)
    for seconds, op in zip(phase.latencies, ops):
        if not math.isnan(seconds):
            by_family[op.family].append(seconds * 1e3)
    print("per statement family (ms):")
    for family, values in sorted(by_family.items()):
        print(f"  {family:18s} n={len(values):6d}  "
              f"p50={statistics.median(values):9.3f}  "
              f"p95={percentile(values, 0.95):9.3f}  "
              f"total={sum(values) / 1e3:7.2f} s")


# ----------------------------------------------------------------------
# --trace 1: the layered run
# ----------------------------------------------------------------------
def run_layered(workload: Workload, seed: int, seconds: float,
                scale: dict, verify_ops: int, spans_path: Path) -> dict:
    ops = workload.ops
    count_ops = min(scale["count_ops"][workload.name], len(ops))
    registers, warmups = [], []

    def fresh(**overrides) -> Installed:
        installed = install(workload, seed, **overrides)
        registers.append(installed.register_s)
        warmups.append(installed.warmup_s)
        return installed

    # -- phase 1: the real path; counters, scheduler, write latency ----
    installed = fresh()
    server, client = installed.server, installed.client
    paths: list[str] = []
    queue_waits: list[float] = []
    tokens = 0
    before = server.export_json()
    after: dict[str, float] = {}

    def note(op) -> None:
        nonlocal tokens
        profile = client.last_profile if op.kind == "sql" else None
        if profile is None:
            paths.append("append")
        elif profile.result_cache_hit:
            paths.append("result_cache")
        elif profile.reuse_hit:
            paths.append("reuse")
        else:
            paths.append("executed")
            queue_waits.append(profile.queue_wait_seconds * 1e3)
            if len(paths) <= count_ops:
                tokens += profile.tokens_embedded

    def snapshot() -> None:
        after.update(server.export_json())

    real = timed_phase(ops, lambda op: serve_real(client, op),
                       seconds * PHASE_SHARES["real"], min_ops=count_ops,
                       after=note, checkpoint=snapshot)
    server.close()

    # -- phase 2: the same operations, layer by layer -------------------
    installed = fresh()
    traces: list[layers.StatementTrace] = []
    position = iter(range(len(ops)))

    def serve_traced(op):
        return layers.serve_layered(installed.server, installed.client,
                                    op, next(position), traces)

    layered = timed_phase(ops, serve_traced,
                          seconds * PHASE_SHARES["layered"])
    installed.server.close()

    # -- phase 3: the real path with the engine's tracer off ------------
    installed = fresh(trace_sample=0.0)
    untraced = timed_phase(
        ops, lambda op: serve_real(installed.client, op),
        seconds * PHASE_SHARES["untraced"])
    model = installed.server.state.models.get(
        installed.client.default_model_name)
    installed.server.close()

    # -- leaf probes and the verify replay (of the layered path) --------
    probes = layers.leaf_probes(
        model, workload.strings, scale["probe_strings"],
        scale["probe_vectors"], scale["probe_hnsw_vectors"])
    installed = fresh()
    verify_traces: list[layers.StatementTrace] = []
    mismatches, verify_s = timed_verify(
        workload, seed, verify_ops, lambda op: layers.serve_layered(
            installed.server, installed.client, op, 0, verify_traces))
    installed.server.close()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    layers.write_ndjson(traces, spans_path)

    metrics, counts = layers.attribute(traces)
    metrics.update(probes)
    metrics.update(counter_metrics(before, after, tokens))

    # walls are compared on the operations every phase completed; the
    # layered wall is the root span, which leaves out the attribution
    # work serve_layered does after it
    common = min(len(real.latencies), len(traces), len(untraced.latencies))
    traced = {trace.statement: trace for trace in traces}
    shared = [i for i in range(common) if i in traced
              and not math.isnan(real.latencies[i])
              and not math.isnan(untraced.latencies[i])]
    real_wall = sum(real.latencies[i] for i in shared)
    layered_wall = sum(traced[i].wall for i in shared)
    untraced_wall = sum(untraced.latencies[i] for i in shared)
    executed = [i for i in shared if paths[i] == "executed"
                and traced[i].path == "executed"]
    # paired by operation: the same statement does the same work in
    # both phases, so the median difference is far tighter than the
    # difference of two medians
    metrics["server.scheduler.handoff_ms"] = statistics.median(
        real.latencies[i] - traced[i].wall
        for i in executed) * 1e3 if executed else 0.0
    counts["server.scheduler.handoff_ms"] = len(executed)
    metrics["server.scheduler.queue_wait_ms"] = \
        statistics.median(queue_waits) if queue_waits else 0.0
    counts["server.scheduler.queue_wait_ms"] = len(queue_waits)
    metrics["bench.layered_overhead_share"] = \
        (layered_wall - real_wall) / real_wall
    metrics["obs.trace_overhead_share"] = \
        (real_wall - untraced_wall) / untraced_wall

    writes = latencies_ms(real, ops, "append")
    metrics["ingest.write_p50_ms"] = \
        statistics.median(writes) if writes else 0.0
    metrics["ingest.write_p95_ms"] = \
        percentile(writes, 0.95) if writes else 0.0
    rows = sum(op.rows.num_rows for op in ops[:len(real.latencies)]
               if op.kind == "append")
    metrics["ingest.rows_per_s"] = \
        rows / (sum(writes) / 1e3) if writes else 0.0
    for name in ("ingest.write_p50_ms", "ingest.write_p95_ms"):
        counts[name] = len(writes)

    metrics["storage.generate_s"] = workload.generate_s
    metrics["storage.register_s"] = statistics.median(registers)
    metrics["bench.warmup_s"] = statistics.median(warmups)
    metrics["bench.verify_s"] = verify_s

    print(f"phases: real {real.wall:.2f} s / {len(real.latencies)} ops, "
          f"layered {layered.wall:.2f} s / {len(layered.latencies)} ops, "
          f"tracer off {untraced.wall:.2f} s / {len(untraced.latencies)} "
          f"ops; compared on the first {common}; counters over the first "
          f"{count_ops}; verify replay (layered path): "
          f"{min(verify_ops, len(ops))} operations, "
          f"{len(mismatches)} mismatches; spans -> {spans_path}")
    served = defaultdict(int)
    for trace in traces:
        served[trace.path] += 1
    print("layered path served: " + ", ".join(
        f"{path} {count}" for path, count in sorted(served.items())))
    return {"metrics": metrics, "counts": counts,
            "attempted": (len(real.latencies) + len(layered.latencies)
                          + len(untraced.latencies)
                          + min(verify_ops, len(ops))),
            "failures": (real.failures + layered.failures
                         + untraced.failures),
            "mismatches": mismatches}


def counter_metrics(before: dict[str, float], after: dict[str, float],
                    tokens: int) -> dict:
    """Per-layer *count* metrics from two ``server.export_json()``
    snapshots around the first ``count_ops`` operations of the
    real-path phase.  They repeat exactly for a fixed seed."""

    def delta(name: str) -> float:
        return float(after.get(name, 0.0) - before.get(name, 0.0))

    def over_models(prefix: str, source: dict[str, float]) -> float:
        """Sum of a per-model instrument (``prefix{model="..."}``)."""
        return float(sum(value for name, value in source.items()
                         if name.startswith(prefix + "{")))

    def ratio(hits: float, total: float) -> float:
        return hits / total if total else 0.0

    plan_lookups = (delta("plan_cache_hits_total")
                    + delta("plan_cache_misses_total"))
    result_lookups = (delta("result_cache_hits_total")
                      + delta("result_cache_misses_total"))
    kernel_lookups = (delta("kernel_cache_hits_total")
                      + delta("kernel_cache_misses_total"))
    index_lookups = delta("index_cache_hits") + delta("index_cache_misses")
    arena_hits = (over_models("embedding_arena_hits", after)
                  - over_models("embedding_arena_hits", before))
    arena_lookups = arena_hits + (
        over_models("embedding_arena_misses", after)
        - over_models("embedding_arena_misses", before))
    maintained = delta("ingest_delta_maintained_total")
    refused = delta("ingest_delta_refused_total")
    return {
        "optimizer.nonconvergence":
            delta("optimizer_rewrite_nonconvergence_total"),
        "engine.plan_cache.exact_hit_ratio":
            ratio(delta("plan_cache_hits_total"), plan_lookups),
        "engine.plan_cache.generic_hit_ratio":
            ratio(delta("plan_cache_generic_hits_total"), plan_lookups),
        "engine.plan_cache.text_memo_hits":
            delta("plan_cache_text_memo_hits_total"),
        "engine.plan_cache.evictions": delta("plan_cache_evictions_total"),
        "engine.plan_cache.demotions": delta("plan_cache_demotions_total"),
        "engine.result_cache.hit_ratio":
            ratio(delta("result_cache_hits_total"), result_lookups),
        "engine.result_cache.evictions":
            delta("result_cache_evictions_total"),
        "engine.result_cache.oversize_skips":
            delta("result_cache_oversize_skips_total"),
        "engine.result_cache.bytes":
            float(after.get("result_cache_bytes", 0.0)),
        "reuse.hit_ratio": ratio(delta("reuse_hits_total"),
                                 delta("reuse_probes_total")),
        "reuse.fallbacks": delta("reuse_fallbacks_total"),
        "server.scheduler.rejected": delta("scheduler_rejected_total"),
        "engine.kernel_cache.hit_ratio":
            ratio(delta("kernel_cache_hits_total"), kernel_lookups),
        "engine.kernel_cache.compiles":
            delta("kernel_cache_compiles_total"),
        "engine.kernel_cache.compile_ms":
            delta("kernel_compile_seconds_sum") * 1e3,
        "semantic.arena_hit_ratio": ratio(arena_hits, arena_lookups),
        "semantic.arena_bytes": over_models("embedding_arena_bytes", after),
        "semantic.index_cache.hit_ratio":
            ratio(delta("index_cache_hits"), index_lookups),
        "semantic.index_cache.builds": delta("index_cache_builds"),
        "semantic.index_cache.incremental_extends":
            delta("index_cache_incremental_extends"),
        "embeddings.tokens_embedded": float(tokens),
        "ingest.maintained_ratio": ratio(maintained, maintained + refused),
        "ingest.refused": refused,
        "ingest.rows": delta("ingest_rows_total"),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def report(result: dict, declared: list[dict]) -> dict:
    """Print every declared metric with its unit and sample count,
    and what failed; returns the contract's result object."""
    for line in result["failures"][:5]:
        print("FAILED   " + line)
    for line in result["mismatches"][:5]:
        print("MISMATCH " + line)
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        value = float(result["metrics"][name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        samples = result["counts"].get(name)
        print(f"  {name:42s} {value:16.6g} {unit:8s}"
              + (f" n={samples}" if samples is not None else ""))
        metrics[name] = {"value": value, "unit": unit}
    failed = len(result["failures"]) + len(result["mismatches"])
    print(f"fail_share = {failed} / {result['attempted']} = "
          f"{failed / result['attempted']:.6f}")
    return {"correct": failed == 0, "attempted": result["attempted"],
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="paper")
    parser.add_argument("--spans", type=Path, default=None,
                        help="NDJSON span file of the layered run "
                             "(default: benchmarks/e2e/out/)")
    args = parser.parse_args(argv)
    contract = load_contract()
    scale = SCALES[args.scale]
    workload = build_workload(args.workload, args.seed, args.scale)
    verify_ops = scale["verify_ops"][args.workload]
    print(f"== {args.workload}  seed={args.seed}  scale={args.scale}  "
          f"{'layered' if args.trace else 'e2e'} run  "
          f"{args.seconds:g} s ==")
    if args.trace:
        spans = args.spans or HERE / "out" / (
            f"spans-{args.workload}-{args.seed}.ndjson")
        result = run_layered(workload, args.seed, args.seconds, scale,
                             verify_ops, spans)
        declared = contract["per_layer"]
    else:
        result = run_e2e(workload, args.seed, args.seconds, verify_ops)
        declared = contract["end_to_end"]
    print(json.dumps(report(result, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
