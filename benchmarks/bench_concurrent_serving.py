"""Concurrent serving benchmark: throughput, parity, plan-cache hit rate.

Defends the serving-layer PR's three claims:

1. **Result parity.**  The same repeated-statement retail workload run
   through the :class:`~repro.server.EngineServer` at 1/4/16 simulated
   clients returns **bit-identical** results to serial single-session
   execution — shared arenas, cached plans, and the scheduler change
   wall time, never answers.
2. **Plan-cache effectiveness.**  After one warmup pass, the repeated
   workload is answered from the plan cache with hit rate >= 0.9 —
   repeated statements skip lexer/parser/binder/optimizer entirely.
   A planner microbench reports the frontend time a hit saves.
3. **Concurrent throughput.**  On >= 4 cores, 4+ clients sustain
   >= 2x the serial queries/second.  On fewer cores only parity and
   hit rate are enforced (this container is often 1-core, as with
   PR 2); the speedup line is still reported for multi-core re-runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_concurrent_serving.py
    PYTHONPATH=src python benchmarks/bench_concurrent_serving.py --quick

``--quick`` (CI smoke) runs reduced sizes/clients and writes no JSON
unless ``--output`` is given.  The full run writes
``BENCH_concurrent_serving.json`` at the repository root, committed so
later PRs have a trajectory to defend.  Exits nonzero on any parity
failure, a plan-cache hit rate below 0.9, or (when enforced) a missed
throughput target.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from benchmarks.common import ResultTable, metrics_snapshot, stopwatch
from repro.embeddings.pretrained import build_pretrained_model
from repro.engine.session import Session
from repro.server import EngineServer
from repro.utils.parallel import default_parallelism
from repro.workloads.retail import RetailWorkload

FULL_SIZES = dict(n_products=400, n_users=150, n_transactions=2_000,
                  n_images=150)
QUICK_SIZES = dict(n_products=120, n_users=40, n_transactions=400,
                   n_images=60)

FULL_CLIENTS = (1, 4, 16)
QUICK_CLIENTS = (1, 4)

FULL_REPEATS = 3
QUICK_REPEATS = 2

#: The repeated-statement workload: interactive relational statements
#: plus semantic work, all deterministically ordered so parity can be
#: checked bit-for-bit.
STATEMENTS = (
    "SELECT brand, COUNT(*) AS n FROM products GROUP BY brand "
    "ORDER BY brand",
    "SELECT ptype, SUM(price) AS total FROM products GROUP BY ptype "
    "ORDER BY ptype",
    "SELECT name, price FROM products WHERE price > 50 "
    "ORDER BY price DESC, name LIMIT 25",
    "SELECT name FROM products WHERE ptype ~ 'shoes' THRESHOLD 0.8 "
    "ORDER BY name",
    "SELECT p.name, k.object FROM products AS p "
    "SEMANTIC JOIN kb.category AS k ON p.ptype ~ k.subject "
    "THRESHOLD 0.9 ORDER BY p.name, k.object",
)


def canonical_rows(table) -> list[tuple]:
    """Order-insensitive, bit-exact canonical form of a result table."""
    rows = [tuple(row.items()) for row in table.to_rows()]
    return sorted(rows, key=repr)


def build_workload(sizes: dict) -> RetailWorkload:
    return RetailWorkload(seed=7, **sizes)


def client_statements(repeats: int) -> list[str]:
    """The per-client statement sequence (identical for every client)."""
    return [statement
            for _ in range(repeats)
            for statement in STATEMENTS]


def run_serial(workload: RetailWorkload, model, repeats: int,
               total_clients: int) -> dict:
    """Single-session baseline over the whole multi-client query list.

    The result cache is pinned OFF (here and in the concurrent runs):
    this benchmark measures *concurrent execution* throughput, and a
    repeated-statement workload would otherwise degenerate into cache
    lookups on both sides — the execution-skip win is measured and
    gated by ``bench_result_cache.py`` instead.
    """
    session = Session(load_default_model=False, result_cache_bytes=0)
    session.register_model(model, default=True)
    workload.register_into(session.catalog, detect=False)
    # Warm in FULL passes over the statement list, not per statement:
    # the first pass computes table statistics lazily (each computation
    # bumps the catalog version and retires every cached plan), so only
    # a second full pass leaves every statement cached under the final,
    # stable version.
    for statement in STATEMENTS:
        session.sql(statement)
    reference = {statement: canonical_rows(session.sql(statement))
                 for statement in STATEMENTS}
    queries = client_statements(repeats) * total_clients
    with stopwatch() as clock:
        for statement in queries:
            session.sql(statement)
    return {
        "reference": reference,
        "queries": len(queries),
        "seconds": clock.seconds,
        "qps": len(queries) / clock.seconds if clock.seconds else 0.0,
    }


def run_concurrent(workload: RetailWorkload, model, n_clients: int,
                   repeats: int, reference: dict) -> dict:
    """One server, ``n_clients`` threads, the repeated workload."""
    # result cache off: execution throughput is what's measured (see
    # run_serial)
    with EngineServer(load_default_model=False,
                      result_cache_bytes=0) as server:
        server.register_model(model, default=True)
        workload.register_into(server.state.catalog, detect=False)
        admin = server.session("warmup")
        # two FULL passes: pass 1 triggers lazy statistics (each bump
        # retires cached plans), pass 2 re-caches every statement under
        # the now-stable catalog version — see run_serial
        for _ in range(2):
            for statement in STATEMENTS:
                admin.sql(statement)
        cache_before = server.state.plan_cache.stats()

        statements = client_statements(repeats)
        mismatches: list[str] = []
        errors: list[BaseException] = []
        barrier = threading.Barrier(n_clients + 1)

        def client_loop(index: int) -> None:
            try:
                client = server.session(f"client-{index}")
                barrier.wait(timeout=60)
                for statement in statements:
                    rows = canonical_rows(client.sql(statement))
                    if rows != reference[statement]:
                        mismatches.append(statement)
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)

        threads = [threading.Thread(target=client_loop, args=(index,))
                   for index in range(n_clients)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=60)
        with stopwatch() as clock:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]

        cache_after = server.state.plan_cache.stats()
        lookups = ((cache_after["hits"] + cache_after["misses"])
                   - (cache_before["hits"] + cache_before["misses"]))
        hits = cache_after["hits"] - cache_before["hits"]
        metrics = server.metrics()
        queries = len(statements) * n_clients
        return {
            "clients": n_clients,
            "queries": queries,
            "seconds": round(clock.seconds, 4),
            "qps": round(queries / clock.seconds, 2) if clock.seconds
            else 0.0,
            "parity": not mismatches,
            "mismatched_statements": sorted(set(mismatches)),
            "plan_cache_hit_rate": round(hits / lookups, 4) if lookups
            else 0.0,
            "queue_wait_seconds_mean":
                metrics["scheduler"]["queue_wait_seconds_mean"],
            "queue_wait_seconds_max":
                metrics["scheduler"]["queue_wait_seconds_max"],
            "lanes": {
                tenant: stats["by_lane"]
                for tenant, stats in
                metrics["scheduler"]["tenants"].items()
                if tenant.startswith("client-")
            },
            # hoisted to the payload's top level by run(): the highest
            # client count's registry is the one worth keeping
            "metrics": metrics_snapshot(server),
        }


def planner_microbench(workload: RetailWorkload, model,
                       rounds: int = 50) -> dict:
    """Frontend cost per statement: cached plan_for vs full replan."""
    session = Session(load_default_model=False)
    session.register_model(model, default=True)
    workload.register_into(session.catalog, detect=False)
    statement = STATEMENTS[-1]
    session.sql(statement)
    session.sql(statement)              # plan now cached, stats settled
    with stopwatch() as cached:
        for _ in range(rounds):
            planned = session.plan_for(statement)
            assert planned.cache_hit
    with stopwatch() as replanned:
        for _ in range(rounds):
            session.optimize(session.sql_plan(statement))
    return {
        "rounds": rounds,
        "cached_plan_for_seconds": round(cached.seconds, 6),
        "full_replan_seconds": round(replanned.seconds, 6),
        "frontend_speedup": round(
            replanned.seconds / cached.seconds, 2) if cached.seconds
        else float("inf"),
    }


def run(sizes: dict, clients: tuple[int, ...], repeats: int) -> dict:
    cpu_count = default_parallelism()
    model = build_pretrained_model(seed=7)
    workload = build_workload(sizes)
    serial = run_serial(workload, model, repeats, max(clients))
    reference = serial.pop("reference")
    concurrent = [run_concurrent(workload, model, n, repeats, reference)
                  for n in clients]
    registry = {}
    for level in concurrent:
        registry = level.pop("metrics")
    return {
        "cpu_count": cpu_count,
        "speedup_enforced": cpu_count >= 4,
        "sizes": sizes,
        "repeats_per_client": repeats,
        "n_statements": len(STATEMENTS),
        "serial": {key: round(value, 4) if isinstance(value, float)
                   else value for key, value in serial.items()},
        "concurrent": concurrent,
        "planner": planner_microbench(workload, model),
        "metrics": registry,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: reduced sizes/clients, no "
                             "JSON unless --output is given")
    parser.add_argument("--output", type=Path, default=None,
                        help="JSON output path (default: repo root "
                             "BENCH_concurrent_serving.json for full "
                             "runs)")
    arguments = parser.parse_args(argv)

    sizes = QUICK_SIZES if arguments.quick else FULL_SIZES
    clients = QUICK_CLIENTS if arguments.quick else FULL_CLIENTS
    repeats = QUICK_REPEATS if arguments.quick else FULL_REPEATS
    started = time.perf_counter()
    results = run(sizes, clients, repeats)
    results["total_benchmark_seconds"] = round(
        time.perf_counter() - started, 2)

    serial_qps = results["serial"]["qps"]
    table = ResultTable(
        f"Concurrent serving (cores={results['cpu_count']}, "
        f"{results['n_statements']} statements x {repeats} repeats "
        f"per client)",
        ["run", "queries", "seconds", "qps", "vs serial", "parity",
         "plan-cache hits"])
    table.add("serial session", results["serial"]["queries"],
              results["serial"]["seconds"], round(serial_qps, 2), "1x",
              "ref", "-")
    for row in results["concurrent"]:
        table.add(f"{row['clients']} client(s)", row["queries"],
                  row["seconds"], row["qps"],
                  f"{row['qps'] / serial_qps:.2f}x" if serial_qps else "-",
                  "OK" if row["parity"] else "MISMATCH",
                  f"{row['plan_cache_hit_rate']:.1%}")
    table.show()
    planner = results["planner"]
    print(f"\nplanner: cached plan_for {planner['cached_plan_for_seconds']}s"
          f" vs full replan {planner['full_replan_seconds']}s over "
          f"{planner['rounds']} rounds -> "
          f"{planner['frontend_speedup']}x frontend skip")

    failures: list[str] = []
    for row in results["concurrent"]:
        if not row["parity"]:
            failures.append(
                f"{row['clients']}-client run diverged from serial on "
                f"{row['mismatched_statements']}")
        if row["plan_cache_hit_rate"] < 0.9:
            failures.append(
                f"{row['clients']}-client plan-cache hit rate "
                f"{row['plan_cache_hit_rate']} < 0.9")
    if results["speedup_enforced"]:
        best = max(row["qps"] for row in results["concurrent"]
                   if row["clients"] >= 4)
        if serial_qps and best < 2.0 * serial_qps:
            failures.append(
                f"throughput {best:.2f} qps < 2x serial "
                f"({serial_qps:.2f} qps) on "
                f"{results['cpu_count']} cores")
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))

    output = arguments.output
    if output is None and not arguments.quick:
        output = (Path(__file__).resolve().parent.parent
                  / "BENCH_concurrent_serving.json")
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {output}")


if __name__ == "__main__":
    main()
