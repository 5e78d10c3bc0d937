"""Minimal serving-layer demo: one server, two concurrent clients.

Spins up an :class:`~repro.server.EngineServer` over the retail
workload, drives it from two client threads issuing the same repeated
statements (dashboard style), and prints the aggregate serving metrics:
plan-cache hits (repeated SQL skips the whole frontend), per-tenant
queue waits, and the shared embedding-arena hit rates.

Run with::

    PYTHONPATH=src python examples/serving.py
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.server import EngineServer
from repro.workloads.retail import RetailWorkload

STATEMENTS = [
    "SELECT brand, COUNT(*) AS n FROM products GROUP BY brand "
    "ORDER BY brand",
    "SELECT name FROM products WHERE ptype ~ 'shoes' THRESHOLD 0.8 "
    "ORDER BY name",
    "SELECT p.name, k.object FROM products AS p "
    "SEMANTIC JOIN kb.category AS k ON p.ptype ~ k.subject "
    "THRESHOLD 0.9 ORDER BY p.name, k.object",
]


def client_loop(server: EngineServer, tenant: str, rounds: int) -> None:
    client = server.session(tenant)
    for _ in range(rounds):
        for statement in STATEMENTS:
            client.sql(statement)
    profile = client.last_profile
    print(f"  {tenant}: last query lane={profile.lane} "
          f"plan-cache-hit={profile.plan_cache_hit} "
          f"result-cache-hit={profile.result_cache_hit} "
          f"queue-wait={profile.queue_wait_seconds * 1e3:.2f} ms")


def main() -> None:
    workload = RetailWorkload(n_products=300, n_users=100,
                              n_transactions=1_000, n_images=100, seed=7)
    with EngineServer() as server:
        workload.register_into(server.state.catalog, detect=False)

        # warm in two full passes: the first computes statistics (each
        # computation retires cached plans), the second re-caches every
        # statement under the stable catalog version
        warmup = server.session("warmup")
        for _ in range(2):
            for statement in STATEMENTS:
                warmup.sql(statement)

        print("two clients, concurrent repeated workload:")
        threads = [
            threading.Thread(target=client_loop,
                             args=(server, tenant, 5))
            for tenant in ("dashboard-a", "dashboard-b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # interactive refinement: tightening a warmed semantic filter is
        # answered residually from the cached super-result (subsumption),
        # not by re-running the embedding kernels
        analyst = server.session("analyst")
        analyst.sql("SELECT name FROM products WHERE ptype ~ 'shoes' "
                    "THRESHOLD 0.85 ORDER BY name")
        print(f"\n  analyst: refined threshold 0.8 -> 0.85, "
              f"reuse-hit={analyst.last_profile.reuse_hit}")

        metrics = server.metrics()
        plan = metrics["plan_cache"]
        sched = metrics["scheduler"]
        print("\nserver metrics:")
        print(f"  plan cache: {plan['hits']} hits / {plan['misses']} "
              f"misses (hit rate {plan['hit_rate']:.1%}, "
              f"{plan['entries']} entries, {plan['families']} families)")
        results = metrics["result_cache"]
        print(f"  result cache: {results['hits']} hits / "
              f"{results['misses']} misses "
              f"(hit rate {results['hit_rate']:.1%}, "
              f"{results['entries']} entries, {results['bytes']} bytes, "
              f"{results['stale_evictions']} stale-swept); "
              f"{sched['result_cache_noops']} executions skipped")
        reuse = metrics["reuse"]
        print(f"  semantic reuse: {reuse['hits']} residual answers / "
              f"{reuse['probes']} probes ({reuse['entries']} entries "
              f"in {reuse['families']} families, "
              f"{reuse['fallbacks']} fallbacks)")
        print(f"  scheduler: {sched['admitted']} admitted on "
              f"{sched['workers']} worker(s), mean queue wait "
              f"{sched['queue_wait_seconds_mean'] * 1e3:.2f} ms")
        for tenant, stats in sched["tenants"].items():
            lanes = stats["by_lane"]
            print(f"    {tenant}: {stats['queries']} queries "
                  f"(interactive {lanes['interactive']}, "
                  f"heavy {lanes['heavy']}), "
                  f"{stats['plan_cache_hits']} plan-cache hits")
        for model_name, arena in metrics["embedding_arenas"].items():
            print(f"  arena[{model_name}]: {arena['rows']} rows, "
                  f"hit rate {arena['hit_rate']:.1%}")


if __name__ == "__main__":
    main()
