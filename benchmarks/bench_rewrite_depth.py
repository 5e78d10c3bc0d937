"""Rewrite-engine and generic-plan benchmark: parity, promotion, demotion.

Defends the systematized rewrite engine and the generic-plan tier:

1. **Rewrite parity.**  A sweep of statements with negated/disjunctive
   predicates, renaming projections, joins, and aggregates answers
   bit-identically with the optimizer on and off — the phased rewrite
   suite (normalize -> pushdown -> breakup) never changes results.
   Every fixpoint must also converge.  Always enforced.
2. **Generic-plan hit rate.**  Three parameterized statement families
   with a fresh literal per statement — a relational one, one with a
   DATE literal, and a semantic-threshold filter planned with reuse
   aux columns — each promote after ``GENERIC_PROMOTION_THRESHOLD``
   observations; the remaining sweep is served from the generic plan
   at >= 0.9 hit rate per family (the misses are the periodic
   full-optimization rechecks).  Every served result is bit-identical
   to a ``generic_plans=False`` control session.  Always enforced.
3. **Demotion.**  A join family whose literal flips the chosen physical
   plan is promoted in one selectivity regime, then probed in the
   other: the recheck detects the fingerprint change, drops the generic
   plan, and permanently demotes the family — later statements go back
   to per-literal optimization and never re-promote.  Results stay
   bit-identical throughout (a stale generic plan is slower, never
   wrong).  Always enforced.

Usage::

    PYTHONPATH=src python benchmarks/bench_rewrite_depth.py
    PYTHONPATH=src python benchmarks/bench_rewrite_depth.py --quick

``--quick`` (CI smoke) reduces sizes and writes no JSON unless
``--output`` is given.  The full run writes ``BENCH_rewrite_depth.json``
at the repository root, committed so later PRs have a trajectory to
defend.  Exits nonzero on any gate failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from benchmarks.common import ResultTable, metrics_snapshot, stopwatch
from repro.engine import plan_cache
from repro.engine.session import Session
from repro.engine.sql.binder import Binder
from repro.engine.sql.parser import parse_sql
from repro.optimizer.optimizer import Optimizer
from repro.storage.table import Table
from repro.utils.parallel import default_parallelism

FULL_ITEMS, FULL_ORDERS, FULL_SWEEP = 2_000, 10_000, 50
QUICK_ITEMS, QUICK_ORDERS, QUICK_SWEEP = 500, 2_500, 30

GENERIC_HIT_RATE_TARGET = 0.9

#: Rewrite-parity statements: negations and disjunctions that only the
#: normalize phase unlocks, pushdown through joins and aggregates, and
#: a conjunctive chain the breakup phase decomposes.
REWRITE_STATEMENTS = (
    "SELECT id, price FROM items WHERE NOT (price < 10.0 OR qty > 90)",
    "SELECT id FROM items WHERE price > 5.0 AND qty > 2 AND id > 10",
    "SELECT o.total FROM orders o JOIN items i ON o.item_id = i.id "
    "WHERE NOT (i.price < 100.0 OR o.total < 50.0)",
    "SELECT i.qty, COUNT(*) AS n FROM items i "
    "WHERE NOT (i.qty != 3 AND i.price < 30.0) GROUP BY i.qty",
    "SELECT qty, COUNT(*) AS n FROM items GROUP BY qty",
)

#: The promotion families: a fresh literal tuple per statement, same
#: plan shape regardless of the literals.  Each maps sweep index ->
#: statement; ``semantic`` runs on sessions with a model and the result
#: cache on, so its plans carry reuse aux columns.
SWEEP_START = datetime.date(2022, 1, 1)
GENERIC_FAMILIES = {
    "relational": lambda i: (
        f"SELECT id, price FROM items WHERE price > {10.5 + i} "
        f"AND qty = {i % 5}"),
    "date": lambda i: (
        "SELECT id, price FROM items WHERE added > DATE "
        f"'{SWEEP_START + datetime.timedelta(days=3 * i)}' "
        f"AND qty = {i % 5}"),
    "semantic": lambda i: (
        "SELECT id, label FROM items WHERE label ~ 'shoes' "
        f"THRESHOLD {0.30 + 0.01 * i:.2f} AND price > {10.5 + i} "
        "ORDER BY id"),
}

LABELS = ("shoes", "boots", "parka", "jacket", "sedan", "truck", "kitten",
          "apple")

#: The demotion family: the ``i.price`` literal decides whether the
#: probe side is selective, which flips fusion/DIP placement — exactly
#: the plan-shape change the recheck must catch.
DEMOTION_FAMILY = ("SELECT o.total FROM orders o "
                   "JOIN items i ON o.item_id = i.id WHERE i.price > {}")


def make_tables(n_items: int, n_orders: int) -> dict[str, Table]:
    return {
        "items": Table.from_dict({
            "id": list(range(n_items)),
            "price": [i * 1.5 for i in range(n_items)],
            "qty": [i % 100 for i in range(n_items)],
            "added": [SWEEP_START + datetime.timedelta(days=i % 365)
                      for i in range(n_items)],
            "label": [LABELS[i % len(LABELS)] for i in range(n_items)],
        }),
        "orders": Table.from_dict({
            "item_id": [i % n_items for i in range(n_orders)],
            "total": [float(i % 97) for i in range(n_orders)],
        }),
    }


def build_session(tables: dict[str, Table], *,
                  generic_plans: bool = True,
                  semantic: bool = False) -> Session:
    """A session over ``tables``; ``semantic`` loads the default model
    and keeps the result cache (and with it reuse) on."""
    session = Session(load_default_model=semantic,
                      result_cache_bytes=None if semantic else 0,
                      generic_plans=generic_plans)
    for name, table in tables.items():
        session.register_table(name, table)
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


def run_rewrite_parity(tables: dict[str, Table]) -> dict:
    session = build_session(tables)
    mismatched, diverged = [], []
    depth_rows = []
    # a standalone optimizer over the same catalog reports what the
    # rewrite suite did per statement (the session's internal one is
    # per-statement and not exposed)
    optimizer = Optimizer(session.catalog,
                          execution_context=session.context)
    for statement in REWRITE_STATEMENTS:
        optimized = session.sql(statement)
        naive = session.sql(statement, optimize=False)
        if not exact_equal(optimized, naive):
            mismatched.append(statement)
        plan = Binder(session.catalog,
                      session.default_model_name).bind(
                          parse_sql(statement))
        optimizer.optimize(plan)
        report = optimizer.last_report
        if not report.rewrite_converged:
            diverged.append(statement)
        depth_rows.append({
            "statement": statement[:64],
            "rewrite_passes": report.rewrite_passes,
            "rules_fired": sum(report.rules_applied.values()),
            "rules_applied": dict(sorted(report.rules_applied.items())),
            "converged": report.rewrite_converged,
        })
    return {
        "rewrite_parity": not mismatched,
        "rewrite_mismatched": mismatched,
        "rewrite_converged": not diverged,
        "rewrite_depth": depth_rows,
    }


def run_generic_sweep(tables: dict[str, Table], sweep: int) -> dict:
    families = {name: _sweep_family(tables, sweep, name)
                for name in GENERIC_FAMILIES}
    total = {key: sum(family[key] for family in families.values())
             for key in ("promotions", "hits", "rechecks", "seconds")}
    return {
        "generic_sweep": sweep,
        "generic_promotion_threshold":
            plan_cache.GENERIC_PROMOTION_THRESHOLD,
        "generic_promotions": total["promotions"],
        "generic_hits": total["hits"],
        "generic_rechecks": total["rechecks"],
        # the worst family: every family is gated on its own rate
        "generic_hit_rate": min(family["hit_rate"]
                                for family in families.values()),
        "generic_hit_rate_target": GENERIC_HIT_RATE_TARGET,
        "generic_parity": all(family["parity"]
                              for family in families.values()),
        "generic_sweep_seconds": round(total["seconds"], 4),
        "generic_families": families,
    }


def _sweep_family(tables: dict[str, Table], sweep: int, name: str) -> dict:
    semantic = name == "semantic"
    session = build_session(tables, semantic=semantic)
    control = build_session(tables, generic_plans=False, semantic=semantic)
    cache = session.state.plan_cache
    # warm lazy statistics so the catalog version is stable before the
    # family's first observation (otherwise promotion slips a statement)
    for s in (session, control):
        s.sql("SELECT id FROM items WHERE id > 0")
    statement_of = GENERIC_FAMILIES[name]
    mismatched = 0
    with stopwatch() as clock:
        for i in range(sweep):
            statement = statement_of(i)
            if not exact_equal(session.sql(statement),
                               control.sql(statement)):
                mismatched += 1
    stats = cache.stats()
    # post-promotion statements are the generic tier's addressable set;
    # its misses are the forced full-optimization rechecks
    addressable = sweep - plan_cache.GENERIC_PROMOTION_THRESHOLD
    hit_rate = stats["generic_hits"] / addressable if addressable else 0.0
    return {
        "promotions": stats["promotions"],
        "hits": stats["generic_hits"],
        "rechecks": stats["generic_rechecks"],
        "hit_rate": round(hit_rate, 4),
        "parity": mismatched == 0,
        "seconds": round(clock.seconds, 4),
    }


def run_demotion(tables: dict[str, Table]) -> dict:
    # recheck every other generic serve so the flip demotes within two
    # probes (the module constant is read at serve time)
    with mock.patch.object(plan_cache, "GENERIC_RECHECK_INTERVAL", 2):
        return _run_demotion(tables)


def _run_demotion(tables: dict[str, Table]) -> dict:
    session = build_session(tables)
    control = build_session(tables, generic_plans=False)
    cache = session.state.plan_cache
    n_items = tables["items"].num_rows
    mismatched = 0

    def issue(price: float) -> None:
        nonlocal mismatched
        statement = DEMOTION_FAMILY.format(price)
        if not exact_equal(session.sql(statement),
                           control.sql(statement)):
            mismatched += 1

    issue(0.5)  # warm lazy statistics (stable catalog version)
    for price in (1.0, 2.0, 3.0):  # low-price regime: promote
        issue(price)
    promoted = cache.stats()["promotions"] == 1

    # high-price regime: the probe side turns selective and the full
    # optimization at the recheck chooses a different physical plan
    flip = (n_items - 5) * 1.5
    for offset in range(3):
        issue(flip + offset)
    after_flip = cache.stats()

    # demoted families take per-literal optimization and never
    # re-promote, however many fresh literals arrive
    misses_before = after_flip["misses"]
    hits_before = after_flip["generic_hits"]
    for price in (4.0, 5.0, 6.0, 7.0):
        issue(price)
    final = cache.stats()
    custom_restored = (final["misses"] - misses_before == 4
                       and final["generic_hits"] == hits_before)
    return {
        "demotion_promoted_first": promoted,
        "demotion_demotions": after_flip["demotions"],
        "demotion_generic_entries": final["generic_entries"],
        "demotion_final_promotions": final["promotions"],
        "demotion_custom_restored": custom_restored,
        "demotion_parity": mismatched == 0,
        "demotion_ok": (promoted and after_flip["demotions"] >= 1
                        and final["generic_entries"] == 0
                        and final["promotions"] == 1 and custom_restored),
    }


def run(n_items: int, n_orders: int, sweep: int) -> dict:
    tables = make_tables(n_items, n_orders)
    results = {
        "cpu_count": default_parallelism(),
        "n_items": n_items,
        "n_orders": n_orders,
    }
    results.update(run_rewrite_parity(tables))
    results.update(run_generic_sweep(tables, sweep))
    results.update(run_demotion(tables))
    results["metrics"] = metrics_snapshot(build_session(tables))
    results["platform"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    return results


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: reduced sizes, no JSON "
                             "unless --output is given")
    parser.add_argument("--output", type=Path, default=None,
                        help="JSON output path (default: repo root "
                             "BENCH_rewrite_depth.json for full runs)")
    arguments = parser.parse_args(argv)

    sizes = ((QUICK_ITEMS, QUICK_ORDERS, QUICK_SWEEP) if arguments.quick
             else (FULL_ITEMS, FULL_ORDERS, FULL_SWEEP))
    started = time.perf_counter()
    results = run(*sizes)
    results["total_benchmark_seconds"] = round(
        time.perf_counter() - started, 2)

    table = ResultTable(
        "Rewrite depth (phased suite, per statement)",
        ["statement", "passes", "rules fired", "converged"])
    for row in results["rewrite_depth"]:
        table.add(row["statement"], row["rewrite_passes"],
                  row["rules_fired"], row["converged"])
    table.show()
    print(f"\nrewrite parity: "
          f"{'OK' if results['rewrite_parity'] else 'MISMATCH'}   "
          f"generic hit rate: {results['generic_hit_rate']} "
          f"({results['generic_hits']} hits, "
          f"{results['generic_rechecks']} rechecks)   "
          f"generic parity: "
          f"{'OK' if results['generic_parity'] else 'MISMATCH'}   "
          f"demotion: {'OK' if results['demotion_ok'] else 'BROKEN'}")

    failures: list[str] = []
    if not results["rewrite_parity"]:
        failures.append(
            f"optimizer diverged on {results['rewrite_mismatched']}")
    if not results["rewrite_converged"]:
        failures.append("a rewrite fixpoint failed to converge")
    for name, family in results["generic_families"].items():
        if family["promotions"] < 1:
            failures.append(f"the {name} sweep never promoted its family")
        if family["hit_rate"] < GENERIC_HIT_RATE_TARGET:
            failures.append(
                f"{name} generic hit rate {family['hit_rate']} < "
                f"{GENERIC_HIT_RATE_TARGET}")
        if not family["parity"]:
            failures.append(f"a generic-served {name} result diverged "
                            "from the generic-disabled control")
    if not results["demotion_parity"]:
        failures.append("a result diverged during the demotion cycle")
    if not results["demotion_ok"]:
        failures.append(
            "demotion did not restore per-literal optimization "
            f"(demotions={results['demotion_demotions']}, "
            f"entries={results['demotion_generic_entries']}, "
            f"promotions={results['demotion_final_promotions']})")
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))

    output = arguments.output
    if output is None and not arguments.quick:
        output = (Path(__file__).resolve().parent.parent
                  / "BENCH_rewrite_depth.json")
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {output}")


if __name__ == "__main__":
    main()
