"""Row-id join benchmark: id-keyed index reuse and exact join parity.

**Index identity is id arithmetic.**  The session vector-index cache
fingerprints on the *sorted arena row-id set* backing the indexed
embeddings: a repeat query — regardless of duplicate multiplicity or
value order — is a hit (no rebuild), and the fingerprint never re-hashes
a value string (the legacy scheme XOR-combined a per-value FNV-1a pass
on every lookup).

It also checks **exact join parity** (atol=1e-6) across the engine's
semantic-join methods (blocked / index:brute) through the full operator
path, with duplicated right-side values — the case the old index-id
contract silently mispaired.

Usage::

    PYTHONPATH=src python benchmarks/bench_rowid_join.py
    PYTHONPATH=src python benchmarks/bench_rowid_join.py --quick

``--quick`` (CI smoke) runs reduced sizes and writes no JSON unless
``--output`` is given.  The full run writes ``BENCH_rowid_join.json``
at the repository root, which is committed so later PRs have a perf
trajectory to defend.  Exits nonzero when the repeat index lookup
misses or the join methods disagree.
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
from repro.embeddings.subword import fnv1a
from repro.relational.logical import SemanticJoinNode
from repro.semantic.cache import EmbeddingCache
from repro.semantic.index_cache import IndexCache, _digest_ids
from repro.semantic.join import SEMANTIC_JOIN_METHODS
from repro.utils.parallel import default_parallelism

DEFAULT_N_JOIN = 1_200
QUICK_N_JOIN = 200

#: Join methods whose results must agree exactly: every method the
#: engine runs.
PARITY_METHODS = SEMANTIC_JOIN_METHODS


def legacy_xor_fingerprint(model_name: str, kind: str,
                           values: list[str]) -> tuple:
    """The pre-row-id fingerprint, reproduced for the timing comparison:
    one FNV-1a pass over every value string on every lookup."""
    content_hash = 0
    for value in values:
        content_hash ^= fnv1a(value)
    return (model_name, kind, len(set(values)), content_hash)


def bench_index_cache(model, n_unique: int) -> dict:
    """Two lookups over the same unique value set with different duplicate
    multiplicity and order: second must hit; fingerprints touch no value
    strings."""
    cache = EmbeddingCache(model)
    vocab = sorted(model.vocab)
    unique_values = [f"{vocab[i % len(vocab)]} r{i}"
                     for i in range(n_unique)]
    first_query = unique_values + unique_values[: n_unique // 2]
    second_query = (unique_values[::-1]
                    + unique_values[n_unique // 3:] * 2)

    index_cache = IndexCache()
    with stopwatch() as build_clock:
        index_cache.get_for_values("brute", first_query, cache)
    first_misses = index_cache.stats()["misses"]
    with stopwatch() as hit_clock:
        second_index, _ = index_cache.get_for_values("brute", second_query,
                                                     cache)
    assert index_cache.stats()["hits"] == 1 and first_misses == 1
    assert len(index_cache) == 1

    # fingerprint cost, warm: the full id-space identity pipeline
    # (value -> row-id resolution + unique + digest) vs the legacy
    # per-value FNV-1a re-hash it replaced — apples to apples, both
    # starting from the raw value list
    with stopwatch() as idspace_clock:
        row_ids = cache.row_ids(second_query)
        unique_ids = np.unique(row_ids)
        _digest_ids(unique_ids)
    with stopwatch() as digest_clock:
        _digest_ids(np.unique(row_ids))
    with stopwatch() as legacy_clock:
        legacy_xor_fingerprint(model.name, "brute", second_query)
    return {
        "n_unique_values": n_unique,
        "first_query_values": len(first_query),
        "second_query_values": len(second_query),
        "first_query_misses": first_misses,
        "second_query_hit": index_cache.stats()["hits"] == 1,
        "index_reused": True,
        "value_rehash_count": 0,   # fingerprint is id arithmetic only
        "build_seconds": round(build_clock.seconds, 4),
        "warm_lookup_seconds": round(hit_clock.seconds, 6),
        "fingerprint_idspace_seconds": round(idspace_clock.seconds, 6),
        "fingerprint_digest_only_seconds": round(digest_clock.seconds, 6),
        "fingerprint_legacy_rehash_seconds": round(legacy_clock.seconds, 6),
        "fingerprint_speedup": round(
            legacy_clock.seconds / max(idspace_clock.seconds, 1e-9), 2),
    }


def bench_join_parity(model, n_join: int) -> dict:
    """One semantic join through every exact method; identical results
    required, with duplicated right-side values in play."""
    from repro.engine.session import Session
    from repro.storage.table import Table

    session = Session(load_default_model=False)
    session.register_model(model, default=True)
    vocab = sorted(model.vocab)
    left_values = [f"{vocab[i % len(vocab)]} j{i}" for i in range(n_join)]
    right_unique = ([f"{vocab[i % len(vocab)]} j{i}"
                     for i in range(0, n_join, 2)]
                    + [f"{vocab[i % len(vocab)]} k{i}"
                       for i in range(n_join // 2)])
    # duplicate multiplicity on the right: every value appears twice
    right_values = right_unique + right_unique
    session.register_table("probes", Table.from_dict({
        "pid": list(range(len(left_values))),
        "text": left_values,
    }))
    session.register_table("keys", Table.from_dict({
        "kid": list(range(len(right_values))),
        "label": right_values,
    }))

    def run(method: str):
        plan = session.sql_plan(
            "SELECT * FROM probes AS p SEMANTIC JOIN keys AS k "
            "ON p.text ~ k.label THRESHOLD 0.95")
        for node in plan.walk():
            if isinstance(node, SemanticJoinNode):
                node.hints["method"] = method
        with stopwatch() as clock:
            table = session.execute(plan, optimize=False)
        rows = table.to_rows()
        pairs = sorted((r["p.pid"], r["k.kid"]) for r in rows)
        scores = np.asarray(
            [s for _, _, s in sorted((r["p.pid"], r["k.kid"],
                                      r["similarity"]) for r in rows)])
        return pairs, scores, clock.seconds

    per_method_seconds: dict[str, float] = {}
    reference_pairs, reference_scores, _ = run("blocked")
    parity = True
    for method in PARITY_METHODS:
        pairs, scores, seconds = run(method)
        per_method_seconds[method] = round(seconds, 4)
        if pairs != reference_pairs or not np.allclose(
                scores, reference_scores, atol=1e-6):
            parity = False
    # repeat the index query: same right-side row-id set, so the session
    # index cache must serve the built index (operator-level reuse)
    _, _, warm_seconds = run("index:brute")
    per_method_seconds["index:brute (warm)"] = round(warm_seconds, 4)
    index_stats = session.context.index_cache.stats()
    return {
        "n_left": len(left_values),
        "n_right_rows": len(right_values),
        "n_result_pairs": len(reference_pairs),
        "methods": list(PARITY_METHODS),
        "exact_parity_atol_1e-6": parity,
        "per_method_seconds": per_method_seconds,
        "index_cache_misses": index_stats["misses"],
        "index_cache_hits": index_stats["hits"],
        "index_reused_across_queries": index_stats["hits"] >= 1,
        # hoisted to the payload's top level by run()
        "metrics": metrics_snapshot(session),
    }


def run(n_join: int) -> dict:
    model = build_pretrained_model(seed=7)
    results = {
        "cpu_count": default_parallelism(clamp=1_000_000),
        "index_cache": bench_index_cache(model, max(n_join, 256)),
        "join_parity": bench_join_parity(model, n_join),
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    results["metrics"] = results["join_parity"].pop("metrics")
    return results


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: reduced sizes, no JSON "
                             "unless --output is given")
    parser.add_argument("--output", type=Path, default=None,
                        help="JSON output path (default: repo root "
                             "BENCH_rowid_join.json for full runs)")
    arguments = parser.parse_args(argv)

    n_join = QUICK_N_JOIN if arguments.quick else DEFAULT_N_JOIN
    started = time.perf_counter()
    results = run(n_join)
    results["total_benchmark_seconds"] = round(
        time.perf_counter() - started, 2)

    index = results["index_cache"]
    parity = results["join_parity"]

    table = ResultTable(
        f"Row-id joins: id-keyed index reuse + exact join parity "
        f"(cores={results['cpu_count']})",
        ["measure", "value", "note"])
    table.add("index build (1st query)", index["build_seconds"],
              f"{index['n_unique_values']} unique values")
    table.add("index warm lookup (2nd query)",
              index["warm_lookup_seconds"],
              "hit" if index["second_query_hit"] else "MISS")
    table.add("fingerprint: resolve+unique+digest",
              index["fingerprint_idspace_seconds"],
              f"{index['fingerprint_speedup']}x vs legacy re-hash")
    table.add("fingerprint: legacy value re-hash",
              index["fingerprint_legacy_rehash_seconds"], "removed")
    for method, seconds in parity["per_method_seconds"].items():
        table.add(f"join {method}", seconds,
                  f"{parity['n_result_pairs']} pairs")
    table.show()
    print(f"\nindex reuse: hit on 2nd query={index['second_query_hit']}, "
          f"value re-hashes={index['value_rehash_count']}")
    print(f"join parity across {', '.join(parity['methods'])}: "
          f"{parity['exact_parity_atol_1e-6']}")

    failures: list[str] = []
    if not index["second_query_hit"]:
        failures.append("index cache missed on repeat query")
    if not parity["exact_parity_atol_1e-6"]:
        failures.append("join methods disagreed")
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))

    output = arguments.output
    if output is None and not arguments.quick:
        output = (Path(__file__).resolve().parent.parent
                  / "BENCH_rowid_join.json")
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {output}")


if __name__ == "__main__":
    main()
