"""Ablation — index-based access paths for similarity search (§V).

"Index-based access for similarity search [20] should be accounted for in
the optimization process": this sweep measures the semantic-join access
paths (brute-force GEMM vs LSH vs IVF vs HNSW) across build-side sizes,
reporting build time, probe time, and recall vs the exact result —
the data the cost model's access-path constants are calibrated against.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import SCALE, ResultTable, stopwatch

import numpy as np
import pytest

from repro.embeddings.pretrained import build_pretrained_model
from repro.semantic.cache import EmbeddingCache
from repro.vector.bruteforce import BruteForceIndex
from repro.vector.hnsw import HNSWIndex
from repro.vector.ivf import IVFFlatIndex
from repro.vector.lsh import LSHIndex
from repro.workloads.wiki_strings import WikiStringWorkload

THRESHOLD = 0.9
SIZES = {"small": [1_000, 8_000], "medium": [5_000, 20_000],
         "paper": [20_000, 100_000]}.get(SCALE, [1_000, 8_000])
N_QUERIES = 100

INDEXES = {
    "brute": lambda: BruteForceIndex(),
    "lsh": lambda: LSHIndex(n_tables=12, n_bits=12, seed=3),
    "ivf": lambda: IVFFlatIndex(n_lists=32, n_probes=4, seed=3),
    "hnsw": lambda: HNSWIndex(m=12, ef_construction=64, ef_search=48,
                              seed=3),
}


class IndexSetup:
    def __init__(self):
        self.model = build_pretrained_model(seed=7)
        cache = EmbeddingCache(self.model)
        biggest = max(SIZES)
        workload = WikiStringWorkload(n=biggest + N_QUERIES, seed=31,
                                      unique_texts=True,
                                      concept_fraction=0.6)
        texts = list(workload.side("left").column("text"))
        self.corpus = cache.matrix(texts[:biggest])
        self.queries = cache.matrix(texts[biggest:biggest + N_QUERIES])


_SETUP: IndexSetup | None = None


def get_setup() -> IndexSetup:
    global _SETUP
    if _SETUP is None:
        _SETUP = IndexSetup()
    return _SETUP


@pytest.fixture(scope="module")
def setup():
    return get_setup()


def evaluate(setup: IndexSetup, kind: str, size: int) -> dict:
    corpus = setup.corpus[:size]
    exact = BruteForceIndex().build(corpus)
    exact_ids = [set(exact.range_search(q, THRESHOLD).ids.tolist())
                 for q in setup.queries]

    index = INDEXES[kind]()
    with stopwatch() as build_clock:
        index.build(corpus)
    with stopwatch() as probe_clock:
        approx_ids = [set(index.range_search(q, THRESHOLD).ids.tolist())
                      for q in setup.queries]
    hits = sum(len(a & e) for a, e in zip(approx_ids, exact_ids))
    expected = sum(len(e) for e in exact_ids)
    return {
        "build": build_clock.seconds,
        "probe": probe_clock.seconds,
        "recall": hits / expected if expected else 1.0,
    }


@pytest.mark.benchmark(group="index-probe")
@pytest.mark.parametrize("kind", list(INDEXES))
def test_index_probe_latency(benchmark, setup, kind):
    size = SIZES[0]
    index = INDEXES[kind]().build(setup.corpus[:size])
    query = setup.queries[0]
    result = benchmark(index.range_search, query, THRESHOLD)
    assert result is not None


@pytest.mark.benchmark(group="index-build")
@pytest.mark.parametrize("kind", list(INDEXES))
def test_index_build_latency(benchmark, setup, kind):
    size = SIZES[0]
    corpus = setup.corpus[:size]
    index = benchmark.pedantic(lambda: INDEXES[kind]().build(corpus),
                               rounds=2, iterations=1, warmup_rounds=0)
    assert index.size == size


def test_index_cache_amortization(setup, capsys):
    """Session-level index reuse: the second query pays probes only.

    §V requires model-side indexes to be 'included in the optimization
    process equally as relational data indexes' — which presumes they are
    amortized artifacts, not per-query builds.
    """
    from repro.semantic.cache import EmbeddingCache
    from repro.semantic.index_cache import IndexCache
    from repro.semantic.join import join_index

    cache = EmbeddingCache(setup.model)
    values = [f"value r{i}" for i in range(1_000)]
    cache.prefetch(values)  # embedding cost excluded: isolate index build
    index_cache = IndexCache()
    queries = setup.queries[:50]

    with stopwatch() as cold:
        index = index_cache.get("hnsw", values, cache)
        join_index(queries, None, THRESHOLD, index=index)
    with stopwatch() as warm:
        index = index_cache.get("hnsw", values, cache)
        join_index(queries, None, THRESHOLD, index=index)

    with capsys.disabled():
        print(f"\nindex-cache amortization (hnsw over 1,000 values, "
              f"50 probes): cold {cold.seconds:.3f}s -> warm "
              f"{warm.seconds:.3f}s ({cold.seconds / warm.seconds:.1f}x)")
    stats = index_cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert warm.seconds < cold.seconds / 2


def test_index_ablation_shape(setup, capsys):
    table = ResultTable(
        f"Ablation — similarity access paths ({N_QUERIES} range probes, "
        f"threshold {THRESHOLD})",
        ["corpus size", "index", "build [s]", "probe [s]", "recall"])
    results = {}
    for size in SIZES:
        for kind in INDEXES:
            metrics = evaluate(setup, kind, size)
            results[(size, kind)] = metrics
            table.add(size, kind, metrics["build"], metrics["probe"],
                      metrics["recall"])
    with capsys.disabled():
        table.show()
    largest = max(SIZES)
    # approximate indexes must keep useful recall
    for kind in ("lsh", "ivf", "hnsw"):
        assert results[(largest, kind)]["recall"] >= 0.5, kind
    # and at the largest size, at least one ANN probe beats brute force
    # (the access-path crossover the cost model encodes)
    brute_probe = results[(largest, "brute")]["probe"]
    best_ann = min(results[(largest, k)]["probe"]
                   for k in ("lsh", "ivf", "hnsw"))
    assert best_ann < brute_probe * 1.1


def main() -> None:
    setup = get_setup()

    class _Cap:
        def disabled(self):
            from contextlib import nullcontext

            return nullcontext()

    test_index_ablation_shape(setup, _Cap())


if __name__ == "__main__":
    main()
