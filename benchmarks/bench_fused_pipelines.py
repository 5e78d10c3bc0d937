"""Fused-pipeline benchmark: parity, compiled-vs-interpreted speedup,
kernel-cache behaviour, cost-model gating.

Defends the compiled-pipeline execution tier's claims:

1. **Bit-identical parity.**  Every statement answers identically with
   ``compiled_pipelines`` on and off — values *and* dtypes, atol=0.
   Always enforced.
2. **Compiled speedup.**  With a warm kernel cache, the repeat loop of
   the 50k-row filter→project chain must run >= 2x faster fused than
   interpreted.  The interpreted side still enjoys the plan cache, so
   the ratio isolates execution: one generated kernel + single masked
   pass versus the batched operator tree.  Always enforced.
3. **Kernel-cache hit rate.**  The measured repeat loop recompiles
   nothing: hit rate 1.0 over the loop.  Always enforced.
4. **Cost gating.**  A 10-row one-shot query stays interpreted under
   ``compiled_pipelines="auto"`` — the compile would cost more than it
   saves.  Always enforced.

Usage::

    PYTHONPATH=src python benchmarks/bench_fused_pipelines.py
    PYTHONPATH=src python benchmarks/bench_fused_pipelines.py --quick

``--quick`` (CI smoke) reduces sizes/rounds and writes no JSON unless
``--output`` is given.  The full run writes ``BENCH_fused_pipelines.json``
at the repository root, committed so later PRs have a trajectory to
defend.  Exits nonzero on any gate failure.
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
from repro.engine.session import Session
from repro.storage.table import Table
from repro.utils.parallel import default_parallelism

FULL_ROWS = 50_000
# quick mode still enforces the 2x gate, so it needs enough rows for
# execution (what fusion speeds up) to dominate the per-statement
# frontend cost both sides pay equally
QUICK_ROWS = 20_000
FULL_ROUNDS = 30
QUICK_ROUNDS = 8

#: The headline chain the >=2x gate is measured on: Scan -> Filter ->
#: Project with arithmetic, the shape pipeline fusion exists for.
CHAIN_STATEMENT = ("SELECT price * 2.0 AS doubled, qty FROM events "
                   "WHERE price > 20.0")

STATEMENTS = (
    CHAIN_STATEMENT,
    "SELECT qty FROM events WHERE qty < 100 AND price > 5.0",
    "SELECT region, qty FROM events WHERE region IN ('r1', 'r3') "
    "LIMIT 500",
)

SPEEDUP_TARGET = 2.0


def make_events(rows: int) -> Table:
    return Table.from_dict({
        "price": [float((i * 7) % 97) for i in range(rows)],
        "qty": [(i * 13) % 1_000 for i in range(rows)],
        "region": [f"r{i % 5}" for i in range(rows)],
    })


def build_session(rows: int, compiled_pipelines: str) -> Session:
    # result cache off: repeats must re-execute (that is what we time);
    # the plan cache stays on for both sides, so the ratio isolates the
    # execution tier rather than the frontend
    session = Session(load_default_model=False, result_cache_bytes=0,
                      compiled_pipelines=compiled_pipelines)
    session.register_table("events", make_events(rows))
    # two warmup passes: pass 1 triggers lazy statistics (bumping the
    # catalog version), pass 2 plans against the stable version and, on
    # the fused side, compiles every kernel
    for _ in range(2):
        for statement in STATEMENTS:
            session.sql(statement)
    return session


def exact_equal(left: Table, right: Table) -> bool:
    """Bit-exact table comparison: names, dtypes, values (atol=0)."""
    if left.schema.names != right.schema.names:
        return False
    for name in left.schema.names:
        a, b = left.column(name), right.column(name)
        if a.dtype != b.dtype or not np.array_equal(a, b):
            return False
    return True


def measure_repeats(session: Session, rounds: int) -> dict[str, float]:
    timings = {}
    for statement in STATEMENTS:
        with stopwatch() as clock:
            for _ in range(rounds):
                session.sql(statement)
        timings[statement] = clock.seconds
    return timings


def run(rows: int, rounds: int) -> dict:
    interpreted = build_session(rows, compiled_pipelines="off")
    fused = build_session(rows, compiled_pipelines="auto")

    # --- parity: every statement, fused vs interpreted -----------------
    mismatched = []
    fused_counts = {}
    for statement in STATEMENTS:
        if not exact_equal(interpreted.sql(statement),
                           fused.sql(statement)):
            mismatched.append(statement)
        fused_counts[statement] = fused.last_profile.fused_pipelines

    # --- repeat-statement latency with a warm kernel cache -------------
    before = fused.state.kernel_cache.stats()
    interpreted_timings = measure_repeats(interpreted, rounds)
    fused_timings = measure_repeats(fused, rounds)
    after = fused.state.kernel_cache.stats()
    lookups = ((after["hits"] - before["hits"])
               + (after["misses"] - before["misses"]))
    hit_rate = ((after["hits"] - before["hits"]) / lookups
                if lookups else 0.0)

    # --- cost gating: a tiny one-shot stays interpreted under auto -----
    tiny = Session(load_default_model=False, result_cache_bytes=0,
                   compiled_pipelines="auto")
    tiny.register_table("events", make_events(10))
    tiny.sql(CHAIN_STATEMENT)
    tiny_stays_interpreted = tiny.last_profile.fused_pipelines == 0

    per_statement = []
    for statement in STATEMENTS:
        interp_s = interpreted_timings[statement]
        fused_s = fused_timings[statement]
        per_statement.append({
            "statement": statement[:60],
            "rounds": rounds,
            "fused_pipelines": fused_counts[statement],
            "interpreted_seconds": round(interp_s, 6),
            "fused_seconds": round(fused_s, 6),
            "speedup": round(interp_s / fused_s, 2) if fused_s
            else float("inf"),
        })
    chain_row = per_statement[STATEMENTS.index(CHAIN_STATEMENT)]
    return {
        "cpu_count": default_parallelism(),
        "rows": rows,
        "rounds": rounds,
        "n_statements": len(STATEMENTS),
        "parity": not mismatched,
        "mismatched_statements": sorted(set(mismatched)),
        "per_statement": per_statement,
        "chain_speedup": chain_row["speedup"],
        "speedup_target": SPEEDUP_TARGET,
        "kernel_cache_hit_rate": round(hit_rate, 4),
        "kernel_cache": after,
        "tiny_stays_interpreted": tiny_stays_interpreted,
        "metrics": metrics_snapshot(fused),
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
                             "BENCH_fused_pipelines.json for full runs)")
    arguments = parser.parse_args(argv)

    rows = QUICK_ROWS if arguments.quick else FULL_ROWS
    rounds = QUICK_ROUNDS if arguments.quick else FULL_ROUNDS
    started = time.perf_counter()
    results = run(rows, rounds)
    results["total_benchmark_seconds"] = round(
        time.perf_counter() - started, 2)

    table = ResultTable(
        f"Compiled pipelines ({rows:,} rows, {rounds} warmed repeats)",
        ["statement", "fused", "interpreted s", "compiled s", "speedup"])
    for row in results["per_statement"]:
        table.add(row["statement"], row["fused_pipelines"],
                  row["interpreted_seconds"], row["fused_seconds"],
                  f"{row['speedup']}x")
    table.show()
    print(f"\nparity: {'OK' if results['parity'] else 'MISMATCH'}   "
          f"kernel-cache hit rate: {results['kernel_cache_hit_rate']}   "
          f"tiny one-shot interpreted: "
          f"{'yes' if results['tiny_stays_interpreted'] else 'NO'}")

    failures: list[str] = []
    if not results["parity"]:
        failures.append(
            f"fused diverged from interpreted on "
            f"{results['mismatched_statements']}")
    if results["chain_speedup"] < SPEEDUP_TARGET:
        failures.append(
            f"filter->project chain speedup {results['chain_speedup']}x "
            f"< {SPEEDUP_TARGET}x")
    if results["kernel_cache_hit_rate"] < 1.0:
        failures.append(
            f"kernel cache hit rate {results['kernel_cache_hit_rate']} "
            f"< 1.0 on warmed repeats")
    if not results["tiny_stays_interpreted"]:
        failures.append("10-row one-shot query was fused under auto")
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))

    output = arguments.output
    if output is None and not arguments.quick:
        output = (Path(__file__).resolve().parent.parent
                  / "BENCH_fused_pipelines.json")
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {output}")


if __name__ == "__main__":
    main()
