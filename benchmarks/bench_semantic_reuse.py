"""Semantic-reuse benchmark: bit-identity, refinement speedup, fallbacks.

Defends the subsumption subsystem's claims:

1. **Bit-identical residuals.**  Every threshold/k-refined and
   predicate-extended statement answered from a cached super-result is
   compared — schema, values, and row order — against a server with
   semantic reuse disabled.  Always enforced, and the reuse server's
   metrics must show the answers really were residuals, not fresh
   executions.
2. **Refinement-workload speedup.**  A sweep of distinct refinements of
   a warmed base statement (the interactive tighten-the-query pattern)
   must run >= 5x faster with reuse than without.  Both servers enjoy
   the plan and exact-result caches; every refined statement is an
   exact-cache *miss* in both, so the ratio isolates what subsumption
   saves: the embedding/join execution.  A latency ratio — enforced on
   single-core CI too.
3. **Proven fallbacks.**  A loosened threshold (not subsumed) and an
   aggregate statement (ineligible shape) must execute normally — zero
   reuse hits — and stay bit-identical to the disabled server.  A
   ``register_table`` between base and refinement must invalidate
   (fresh answer from the new contents).

Usage::

    PYTHONPATH=src python benchmarks/bench_semantic_reuse.py
    PYTHONPATH=src python benchmarks/bench_semantic_reuse.py --quick

``--quick`` (CI smoke) shrinks sizes/rounds and writes no JSON unless
``--output`` is given.  The full run writes ``BENCH_semantic_reuse.json``
at the repository root.  Exits nonzero on any parity failure, a missing
reuse hit, a speedup below 5x, a fallback that did not execute, or a
stale answer after invalidation.
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
from repro.embeddings.thesaurus import default_thesaurus
from repro.server import EngineServer
from repro.storage.table import Table
from repro.utils.parallel import default_parallelism
from repro.workloads.retail import RetailWorkload

FULL_SIZES = dict(n_products=12000, n_labels=90, rounds=12)
QUICK_SIZES = dict(n_products=800, n_labels=72, rounds=6)

#: Full runs gate the headline ratio; ``--quick`` (CI smoke) keeps a
#: reduced gate — at smoke sizes the sub-ms residual is planning-bound
#: (parse/bind/optimize dominates both sides), which caps the
#: observable ratio regardless of what reuse saves.
SPEEDUP_TARGET = 5.0
QUICK_SPEEDUP_TARGET = 2.0

JOIN_TEMPLATE = (
    "SELECT p.name, c.label FROM products AS p "
    "SEMANTIC JOIN catalog AS c ON p.ptype ~ c.label "
    "THRESHOLD {threshold:.4f} TOP {k} ORDER BY p.name, c.label")
FILTER_TEMPLATE = (
    "SELECT name, price FROM products WHERE ptype ~ 'shoes' "
    "THRESHOLD {threshold:.4f} ORDER BY name, price")

JOIN_BASE = dict(threshold=0.30, k=40)
FILTER_BASE = dict(threshold=0.30)


def labels_table(n_labels: int) -> Table:
    """> 64 distinct labels, so DIP never rewrites the join's plan
    (its pruning GEMM would make entries reuse-ineligible)."""
    forms = default_thesaurus().all_forms()
    labels = list(forms) + [f"{form} item" for form in forms]
    return Table.from_dict({
        "label": labels[:n_labels],
        "kind": [f"kind_{i % 7}" for i in range(n_labels)],
    })


def ordered_rows(table) -> list[tuple]:
    """Row-order-preserving, bit-exact rendering of a result table."""
    return [tuple(row.items()) for row in table.to_rows()]


def build_server(model, sizes, semantic_reuse) -> EngineServer:
    server = EngineServer(load_default_model=False,
                          semantic_reuse=semantic_reuse,
                          result_cache_bytes=512 * 1024 * 1024)
    server.register_model(model, default=True)
    workload = RetailWorkload(seed=7, n_products=sizes["n_products"],
                              n_users=40, n_transactions=200, n_images=40)
    server.register_table("products", workload.products())
    server.register_table("catalog", labels_table(sizes["n_labels"]))
    # two passes: pass 1 triggers lazy statistics (bumping the catalog
    # version) and creates the embedding arena (retiring the -1 keys);
    # pass 2 caches the bases under the now-stable versions
    for _ in range(2):
        server.sql(JOIN_TEMPLATE.format(**JOIN_BASE))
        server.sql(FILTER_TEMPLATE.format(**FILTER_BASE))
    return server


def join_refinements(rounds: int, offset_step: float) -> list[str]:
    """Distinct subsumed variants of the join base: tightened thresholds
    and shrunk k — the expensive statements the speedup gate times."""
    return [JOIN_TEMPLATE.format(
        threshold=JOIN_BASE["threshold"] + offset_step * (i + 1),
        k=max(1, JOIN_BASE["k"] - i)) for i in range(rounds)]


def refinements(rounds: int, offset_step: float) -> list[str]:
    """Distinct subsumed variants of both base statements: tightened
    thresholds, shrunk k, and (filter family) extra cheap predicates."""
    statements = []
    for i in range(rounds):
        statements.append(JOIN_TEMPLATE.format(
            threshold=JOIN_BASE["threshold"] + offset_step * (i + 1),
            k=max(1, JOIN_BASE["k"] - i)))
        refined = FILTER_TEMPLATE.format(
            threshold=FILTER_BASE["threshold"] + offset_step * (i + 1))
        if i % 3 == 2:
            refined = refined.replace(
                " ORDER BY", f" AND price > {10 + i} ORDER BY")
        statements.append(refined)
    return statements


def run(sizes: dict, speedup_target: float) -> dict:
    model = build_pretrained_model(seed=7)
    rounds = sizes["rounds"]

    with build_server(model, sizes, semantic_reuse=True) as reuse_server, \
            build_server(model, sizes, semantic_reuse=False) as baseline:
        # --- bit-identity on a parity sweep ---------------------------
        mismatched = []
        parity_set = refinements(rounds, offset_step=0.0031)
        hits_before = reuse_server.state.reuse_registry.stats()["hits"]
        for statement in parity_set:
            if ordered_rows(reuse_server.sql(statement)) \
                    != ordered_rows(baseline.sql(statement)):
                mismatched.append(statement)
        reuse_hits = (reuse_server.state.reuse_registry.stats()["hits"]
                      - hits_before)
        all_residual = reuse_hits == len(parity_set)

        # --- refinement-sweep latency (join family: the statements
        # whose embedding/join execution subsumption actually skips) ---
        timing_set = join_refinements(rounds, offset_step=0.0017)
        with stopwatch() as baseline_clock:
            for statement in timing_set:
                baseline.sql(statement)
        with stopwatch() as reuse_clock:
            for statement in timing_set:
                reuse_server.sql(statement)
        speedup = (baseline_clock.seconds / reuse_clock.seconds
                   if reuse_clock.seconds else float("inf"))

        # --- fallback proofs ------------------------------------------
        fallbacks = {}
        hits = reuse_server.state.reuse_registry.stats()["hits"]
        loosened = JOIN_TEMPLATE.format(threshold=0.25, k=60)
        fallbacks["loosened_not_subsumed"] = (
            ordered_rows(reuse_server.sql(loosened))
            == ordered_rows(baseline.sql(loosened))
            and reuse_server.state.reuse_registry.stats()["hits"] == hits)
        aggregate = ("SELECT brand, COUNT(*) AS n FROM products "
                     "WHERE ptype ~ 'shoes' THRESHOLD 0.30 "
                     "GROUP BY brand ORDER BY brand")
        aggregate_refined = aggregate.replace("0.30", "0.45")
        for _ in range(2):
            reuse_server.sql(aggregate)
            baseline.sql(aggregate)
        fallbacks["aggregate_ineligible"] = (
            ordered_rows(reuse_server.sql(aggregate_refined))
            == ordered_rows(baseline.sql(aggregate_refined))
            and reuse_server.state.reuse_registry.stats()["hits"] == hits)

        # --- invalidation: register_table between base and refinement -
        probe = FILTER_TEMPLATE.format(threshold=0.41)
        products = reuse_server.state.catalog.get("products")
        truncated = Table(products.schema, {
            name: arr[: products.num_rows // 2]
            for name, arr in products.columns.items()})
        reuse_server.register_table("products", truncated, replace=True)
        baseline.register_table("products", truncated, replace=True)
        for _ in range(2):
            reuse_server.sql(FILTER_TEMPLATE.format(**FILTER_BASE))
            baseline.sql(FILTER_TEMPLATE.format(**FILTER_BASE))
        invalidation_ok = (ordered_rows(reuse_server.sql(probe))
                           == ordered_rows(baseline.sql(probe)))

        reuse_stats = reuse_server.state.reuse_registry.stats()
        scheduler_stats = reuse_server.scheduler.stats()
        registry_snapshot = metrics_snapshot(reuse_server)

    return {
        "cpu_count": default_parallelism(),
        "sizes": {k: v for k, v in sizes.items() if k != "rounds"},
        "rounds": rounds,
        "refinements_per_sweep": len(refinements(rounds, 0.0031)),
        "parity": not mismatched,
        "mismatched_statements": sorted(set(mismatched)),
        "all_parity_answers_residual": all_residual,
        "parity_reuse_hits": reuse_hits,
        "timing_statements": len(timing_set),
        "baseline_sweep_seconds": round(baseline_clock.seconds, 6),
        "reuse_sweep_seconds": round(reuse_clock.seconds, 6),
        "refinement_speedup": round(speedup, 2),
        "speedup_target": speedup_target,
        "fallbacks": fallbacks,
        "invalidation_ok": invalidation_ok,
        "reuse_registry": reuse_stats,
        "reuse_noops": scheduler_stats["reuse_noops"],
        "metrics": registry_snapshot,
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
                             "BENCH_semantic_reuse.json for full runs)")
    arguments = parser.parse_args(argv)

    sizes = QUICK_SIZES if arguments.quick else FULL_SIZES
    target = QUICK_SPEEDUP_TARGET if arguments.quick else SPEEDUP_TARGET
    started = time.perf_counter()
    results = run(dict(sizes), speedup_target=target)
    results["total_benchmark_seconds"] = round(
        time.perf_counter() - started, 2)

    table = ResultTable(
        f"Semantic reuse ({results['refinements_per_sweep']} distinct "
        f"refinements per sweep)",
        ["metric", "value"])
    table.add("baseline sweep s", results["baseline_sweep_seconds"])
    table.add("reuse sweep s", results["reuse_sweep_seconds"])
    table.add("refinement speedup", f"{results['refinement_speedup']}x")
    table.add("parity", "OK" if results["parity"] else "MISMATCH")
    table.add("all answers residual",
              results["all_parity_answers_residual"])
    table.add("reuse hits (parity sweep)", results["parity_reuse_hits"])
    table.show()
    print(f"\nfallbacks: {results['fallbacks']}   "
          f"invalidation: "
          f"{'OK' if results['invalidation_ok'] else 'STALE'}")

    failures: list[str] = []
    if not results["parity"]:
        failures.append(
            f"residual answers diverged on "
            f"{results['mismatched_statements']}")
    if not results["all_parity_answers_residual"]:
        failures.append(
            f"only {results['parity_reuse_hits']} of "
            f"{results['refinements_per_sweep']} refinements answered "
            f"residually")
    if results["refinement_speedup"] < target:
        failures.append(
            f"refinement speedup {results['refinement_speedup']}x "
            f"< {target}x")
    for name, ok in results["fallbacks"].items():
        if not ok:
            failures.append(f"fallback proof failed: {name}")
    if not results["invalidation_ok"]:
        failures.append("register_table served a stale residual")
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))

    output = arguments.output
    if output is None and not arguments.quick:
        output = (Path(__file__).resolve().parent.parent
                  / "BENCH_semantic_reuse.json")
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {output}")


if __name__ == "__main__":
    main()
