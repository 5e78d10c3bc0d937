"""Result-cache benchmark: parity, repeat-statement speedup, invalidation.

Defends the cross-statement result cache's claims:

1. **Bit-identical parity.**  Every statement of the repeated retail
   workload answers identically with the result cache enabled and
   disabled — a hit is a snapshot of exactly what execution would have
   produced.  Always enforced.
2. **Repeat-statement speedup.**  After a warmup pass, a repeated
   statement skips *execution*, not just the frontend: the cached
   repeat loop must run >= 10x faster than the same loop with the
   result cache disabled (which still enjoys the plan cache — the
   speedup isolated here is pure execution skip).  Always enforced,
   single-core included: unlike the PR-3 throughput gate this is a
   latency ratio, not a parallelism claim.
3. **Invalidation correctness.**  After ``register_table`` over a
   queried table, the next lookup misses and answers from the new
   contents; after re-warming it hits again.  Enforced.
4. **Tracing A/B on the real hit path.**  The measured servers run
   with ``trace_sample=0`` (like the committed trajectory); a second
   cached server with ``trace_sample=1`` runs the same repeat loop and
   the difference is reported as the full-sampling overhead
   (informational — the wall-level claim is the end-to-end
   scoreboard's ``obs.trace_overhead_share``).

Usage::

    PYTHONPATH=src python benchmarks/bench_result_cache.py
    PYTHONPATH=src python benchmarks/bench_result_cache.py --quick

``--quick`` (CI smoke) reduces sizes/rounds and writes no JSON unless
``--output`` is given.  The full run writes ``BENCH_result_cache.json``
at the repository root, committed so later PRs have a trajectory to
defend.  Exits nonzero on any parity failure, a repeat-loop speedup
below 10x, or an invalidation serving stale rows.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from benchmarks.common import ResultTable, metrics_snapshot, stopwatch
from repro.embeddings.pretrained import build_pretrained_model
from repro.server import EngineServer
from repro.storage.table import Table
from repro.utils.parallel import default_parallelism
from repro.workloads.retail import RetailWorkload

FULL_SIZES = dict(n_products=400, n_users=150, n_transactions=2_000,
                  n_images=150)
QUICK_SIZES = dict(n_products=120, n_users=40, n_transactions=400,
                   n_images=60)

FULL_ROUNDS = 30
QUICK_ROUNDS = 8

#: The repeated-statement workload: relational aggregates plus the
#: semantic operators whose execution dominates repeat cost.
STATEMENTS = (
    "SELECT brand, COUNT(*) AS n FROM products GROUP BY brand "
    "ORDER BY brand",
    "SELECT name, price FROM products WHERE price > 50 "
    "ORDER BY price DESC, name LIMIT 25",
    "SELECT name FROM products WHERE ptype ~ 'shoes' THRESHOLD 0.8 "
    "ORDER BY name",
    "SELECT p.name, k.object FROM products AS p "
    "SEMANTIC JOIN kb.category AS k ON p.ptype ~ k.subject "
    "THRESHOLD 0.9 ORDER BY p.name, k.object",
)

SPEEDUP_TARGET = 10.0


def canonical_rows(table) -> list[tuple]:
    """Order-insensitive, bit-exact canonical form of a result table."""
    rows = [tuple(row.items()) for row in table.to_rows()]
    return sorted(rows, key=repr)


def build_server(model, sizes: dict, result_cache_bytes: int | None,
                 trace_sample: float = 0.0) -> EngineServer:
    # trace_sample=0 by default: the committed trajectory measures the
    # untraced hot path; the traced A/B server passes 1.0
    server = EngineServer(load_default_model=False,
                          result_cache_bytes=result_cache_bytes,
                          trace_sample=trace_sample)
    server.register_model(model, default=True)
    workload = RetailWorkload(seed=7, **sizes)
    workload.register_into(server.state.catalog, detect=False)
    # two FULL passes: pass 1 triggers lazy statistics (each computation
    # bumps the catalog version, retiring cached entries), pass 2 caches
    # every statement under the now-stable version
    for _ in range(2):
        for statement in STATEMENTS:
            server.sql(statement)
    return server


def measure_repeats(server: EngineServer, rounds: int) -> dict:
    """Per-statement wall time of ``rounds`` warmed repeats."""
    timings = {}
    for statement in STATEMENTS:
        with stopwatch() as clock:
            for _ in range(rounds):
                server.sql(statement)
        timings[statement] = clock.seconds
    return timings


def run(sizes: dict, rounds: int) -> dict:
    model = build_pretrained_model(seed=7)

    with build_server(model, sizes, result_cache_bytes=0) as uncached, \
            build_server(model, sizes, result_cache_bytes=None) as cached:
        # --- parity: every statement, cached vs uncached ---------------
        mismatched = []
        reference = {}
        for statement in STATEMENTS:
            reference[statement] = canonical_rows(uncached.sql(statement))
            for _ in range(2):     # second issue is a result-cache hit
                if canonical_rows(
                        cached.sql(statement)) != reference[statement]:
                    mismatched.append(statement)

        # --- repeat-statement latency ----------------------------------
        uncached_timings = measure_repeats(uncached, rounds)
        cached_timings = measure_repeats(cached, rounds)

        # --- invalidation: replace a table mid-workload ----------------
        probe = STATEMENTS[0]
        products = cached.state.catalog.get("products")
        cached.sql(probe)
        hits_before = cached.state.result_cache.stats()["hits"]
        cached.register_table("products", Table(products.schema, {
            name: arr[: products.num_rows // 2]
            for name, arr in products.columns.items()}), replace=True)
        truncated_rows = canonical_rows(cached.sql(probe))
        stale_served = (cached.state.result_cache.stats()["hits"]
                        > hits_before)
        # ground truth for the truncated contents, computed uncached in
        # a fresh server (`uncached` above still holds the full table)
        with build_server(model, sizes, result_cache_bytes=0) as check:
            check.register_table("products", Table(products.schema, {
                name: arr[: products.num_rows // 2]
                for name, arr in products.columns.items()}), replace=True)
            fresh_reference = canonical_rows(check.sql(probe))
        invalidation_ok = (not stale_served
                           and truncated_rows == fresh_reference)

        result_cache_stats = cached.state.result_cache.stats()
        scheduler_stats = cached.scheduler.stats()
        registry_snapshot = metrics_snapshot(cached)

    # --- tracer overhead: trace_sample=1 vs 0 on the same hit path ----
    with build_server(model, sizes, result_cache_bytes=None,
                      trace_sample=1.0) as traced:
        traced_total = sum(measure_repeats(traced, rounds).values())

    per_statement = []
    for index, statement in enumerate(STATEMENTS):
        uncached_s = uncached_timings[statement]
        cached_s = cached_timings[statement]
        per_statement.append({
            "statement": statement[:60],
            "rounds": rounds,
            "uncached_seconds": round(uncached_s, 6),
            "cached_seconds": round(cached_s, 6),
            "speedup": round(uncached_s / cached_s, 2) if cached_s
            else float("inf"),
        })
    total_uncached = sum(uncached_timings.values())
    total_cached = sum(cached_timings.values())
    return {
        "cpu_count": default_parallelism(),
        "sizes": sizes,
        "rounds": rounds,
        "n_statements": len(STATEMENTS),
        "parity": not mismatched,
        "mismatched_statements": sorted(set(mismatched)),
        "per_statement": per_statement,
        "total_uncached_seconds": round(total_uncached, 6),
        "total_cached_seconds": round(total_cached, 6),
        "workload_speedup": round(total_uncached / total_cached, 2)
        if total_cached else float("inf"),
        "speedup_target": SPEEDUP_TARGET,
        "invalidation_ok": invalidation_ok,
        "tracing": {
            "trace_sample": 0.0,
            "traced_cached_seconds": round(traced_total, 6),
            "full_sampling_overhead_pct": round(
                100.0 * (traced_total - total_cached) / total_cached, 1)
            if total_cached else 0.0,
        },
        "metrics": registry_snapshot,
        "result_cache": result_cache_stats,
        "result_cache_noops": scheduler_stats["result_cache_noops"],
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: reduced sizes/rounds, no "
                             "JSON unless --output is given")
    parser.add_argument("--output", type=Path, default=None,
                        help="JSON output path (default: repo root "
                             "BENCH_result_cache.json for full runs)")
    arguments = parser.parse_args(argv)

    sizes = QUICK_SIZES if arguments.quick else FULL_SIZES
    rounds = QUICK_ROUNDS if arguments.quick else FULL_ROUNDS
    started = time.perf_counter()
    results = run(sizes, rounds)
    results["total_benchmark_seconds"] = round(
        time.perf_counter() - started, 2)

    table = ResultTable(
        f"Result cache ({rounds} warmed repeats per statement)",
        ["statement", "uncached s", "cached s", "speedup"])
    for row in results["per_statement"]:
        table.add(row["statement"], row["uncached_seconds"],
                  row["cached_seconds"], f"{row['speedup']}x")
    table.add("WHOLE WORKLOAD", results["total_uncached_seconds"],
              results["total_cached_seconds"],
              f"{results['workload_speedup']}x")
    table.show()
    tracing = results["tracing"]
    print(f"\nparity: {'OK' if results['parity'] else 'MISMATCH'}   "
          f"invalidation: "
          f"{'OK' if results['invalidation_ok'] else 'STALE'}   "
          f"result-cache noops: {results['result_cache_noops']}")
    print(f"tracer: full sampling "
          f"{tracing['full_sampling_overhead_pct']:+}% on the cached "
          f"repeat loop (trace_sample=1 vs 0)")

    failures: list[str] = []
    if not results["parity"]:
        failures.append(
            f"cached diverged from uncached on "
            f"{results['mismatched_statements']}")
    if results["workload_speedup"] < SPEEDUP_TARGET:
        failures.append(
            f"repeat-workload speedup {results['workload_speedup']}x "
            f"< {SPEEDUP_TARGET}x")
    if not results["invalidation_ok"]:
        failures.append("register_table served a stale cached result")
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))

    output = arguments.output
    if output is None and not arguments.quick:
        output = (Path(__file__).resolve().parent.parent
                  / "BENCH_result_cache.json")
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {output}")


if __name__ == "__main__":
    main()
