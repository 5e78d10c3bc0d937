"""Embedding hot-path benchmark: seed per-string path vs arena/batch path.

The paper's Figure-4 argument is that model-inference data access must be
optimized like any other engine access path.  This benchmark defends that
for our own pipeline: it embeds ``n`` **distinct** strings (default 50k)
through

- the **seed path**: the per-string loop the repository shipped with —
  one interpreted-Python ``embed()`` round-trip per string (normalize,
  per-gram FNV-1a hashing, small-ndarray math, per-vector normalize), and
- the **batch path**: the vectorized ``embed_batch`` kernel (one
  dedup/partition pass, flattened subword segment-sums, one batched
  normalize) feeding the arena-backed ``EmbeddingCache``,

checks the two produce the same vectors (``atol=1e-6``), and reports the
speedup plus arena warm-path numbers (repeat ``matrix()`` calls are one
fancy-index gather).

The workload mixes the string shapes analytics columns actually contain:
two-word in-vocabulary phrases (product types, categories), phrases of
misspelled/dirty parts (the OOV-subword path), and fully unique tokens
(free-text identifiers; the batch path's worst case — no shared work).
All strings are pairwise distinct, so nothing here measures memoization
of repeated strings; it measures the kernels.

Usage::

    PYTHONPATH=src python benchmarks/bench_embedding_pipeline.py
    PYTHONPATH=src python benchmarks/bench_embedding_pipeline.py --quick

``--quick`` (CI smoke) runs n=2000 and writes no JSON unless ``--output``
is given.  The full run writes ``BENCH_embedding_pipeline.json`` at the
repository root, which is committed so later PRs have a perf trajectory
to defend.
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
from repro.embeddings.model import EmbeddingModel
from repro.embeddings.pretrained import build_pretrained_model
from repro.semantic.cache import EmbeddingCache
from repro.utils.rng import make_rng

DEFAULT_N = 50_000
QUICK_N = 2_000


def build_workload(model: EmbeddingModel, n: int, seed: int = 23
                   ) -> list[str]:
    """``n`` pairwise-distinct strings shaped like analytics columns.

    40% in-vocabulary two-word phrases, 40% phrases with dirty
    (misspelled) parts, 20% strings containing a globally unique token.
    """
    rng = make_rng(seed)
    vocab = sorted(model.vocab)

    def misspell(word: str, salt: int) -> str:
        if len(word) < 3:
            return word + "x"
        pos = salt % (len(word) - 1)
        chars = list(word)
        chars[pos], chars[pos + 1] = chars[pos + 1], chars[pos]
        return "".join(chars)

    dirty_pool = [misspell(w, s) for s in range(8) for w in vocab]

    strings: list[str] = []
    seen: set[str] = set()

    def emit(candidate: str, unique_salt: int) -> None:
        if candidate in seen:
            candidate = f"{candidate} u{unique_salt}"
        seen.add(candidate)
        strings.append(candidate)

    n_phrases = (n * 4) // 10
    n_dirty = (n * 4) // 10
    n_unique = n - n_phrases - n_dirty
    v = len(vocab)
    for i in range(n_phrases):
        emit(f"{vocab[i % v]} {vocab[(i // v + i) % v]}", i)
    d = len(dirty_pool)
    for i in range(n_dirty):
        emit(f"{dirty_pool[i % d]} {dirty_pool[(i // d + 3 * i) % d]}", i)
    for i in range(n_unique):
        emit(f"{vocab[int(rng.integers(v))]} q{i}z{int(rng.integers(997))}",
             i)
    assert len(strings) == len(set(strings)) == n
    return strings


def seed_embed_loop(model: EmbeddingModel, texts: list[str]) -> np.ndarray:
    """The seed per-string path: what ``embed_batch`` was before this PR
    (a Python loop of one ``embed()`` round-trip per distinct string)."""
    rows = np.empty((len(texts), model.dim), dtype=np.float32)
    for position, text in enumerate(texts):
        rows[position] = model.embed(text)
    return rows


def seed_matrix_rebuild(store: dict, texts: list[str],
                        dim: int) -> np.ndarray:
    """The seed cache's warm ``matrix()``: rebuild row-by-row from a
    dict of per-string ndarrays."""
    rows = np.empty((len(texts), dim), dtype=np.float32)
    for position, text in enumerate(texts):
        rows[position] = store[text]
    return rows


def _registry_view(cache: EmbeddingCache) -> dict:
    """Arena counters through the metrics registry, for the payload.

    This bench has no engine state, so it registers the cache's gauges
    on a private registry — the snapshot shape matches the server
    benches' ``metrics`` sections.
    """
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    cache.register_metrics(registry)
    return metrics_snapshot(registry)


def run(n: int, seed: int = 23) -> dict:
    model = build_pretrained_model(seed=7)
    strings = build_workload(model, n, seed=seed)

    with stopwatch() as seed_clock:
        seed_rows = seed_embed_loop(model, strings)
    with stopwatch() as batch_clock:
        batch_rows = model.embed_batch(strings)
    parity = bool(np.allclose(seed_rows, batch_rows, atol=1e-6))

    cache = EmbeddingCache(model)
    with stopwatch() as arena_cold:
        cache.matrix(strings)
    with stopwatch() as arena_warm:
        warm = cache.matrix(strings)
    assert warm.shape == (n, model.dim)

    seed_store = {text: row for text, row in zip(strings, seed_rows)}
    with stopwatch() as dict_warm:
        seed_matrix_rebuild(seed_store, strings, model.dim)

    # id-space flow: an operator holding a lookup (row ids + the buffer
    # they index) skips string resolution entirely — repeat access is
    # one contiguous-destination gather
    rows = cache.lookup(strings)
    with stopwatch() as idspace_warm:
        gathered = rows.buffer[rows.ids]
    assert gathered.shape == (n, model.dim)

    speedup = seed_clock.seconds / max(batch_clock.seconds, 1e-9)
    gather_speedup = dict_warm.seconds / max(idspace_warm.seconds, 1e-9)
    return {
        "n_distinct_strings": n,
        "parity_atol_1e-6": parity,
        "seed_per_string_seconds": round(seed_clock.seconds, 4),
        "batch_seconds": round(batch_clock.seconds, 4),
        "speedup": round(speedup, 2),
        "arena_cold_seconds": round(arena_cold.seconds, 4),
        "arena_warm_matrix_seconds": round(arena_warm.seconds, 4),
        "arena_idspace_gather_seconds": round(idspace_warm.seconds, 6),
        "dict_warm_rebuild_seconds": round(dict_warm.seconds, 4),
        "idspace_gather_speedup": round(gather_speedup, 2),
        "arena": cache.stats(),
        "metrics": _registry_view(cache),
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"CI smoke mode: n={QUICK_N}, no JSON unless "
                             f"--output is given")
    parser.add_argument("--n", type=int, default=None,
                        help=f"number of distinct strings "
                             f"(default {DEFAULT_N}, quick {QUICK_N})")
    parser.add_argument("--output", type=Path, default=None,
                        help="JSON output path (default: repo root "
                             "BENCH_embedding_pipeline.json for full runs)")
    arguments = parser.parse_args(argv)

    n = arguments.n or (QUICK_N if arguments.quick else DEFAULT_N)
    if n < 1:
        parser.error(f"--n must be a positive integer, got {n}")
    started = time.perf_counter()
    results = run(n)
    results["total_benchmark_seconds"] = round(
        time.perf_counter() - started, 2)

    table = ResultTable(
        f"Embedding pipeline: seed per-string vs arena/batch "
        f"(n={n} distinct strings)",
        ["path", "seconds", "vs seed"])
    table.add("seed per-string embed loop",
              results["seed_per_string_seconds"], "1x")
    table.add("batch embed_batch kernel", results["batch_seconds"],
              f"{results['speedup']}x")
    table.add("arena cold matrix()", results["arena_cold_seconds"], "")
    table.add("arena warm matrix() [resolve + gather]",
              results["arena_warm_matrix_seconds"], "")
    table.add("arena id-space lookup buffer[ids] [pure gather]",
              results["arena_idspace_gather_seconds"],
              f"{results['idspace_gather_speedup']}x vs dict rebuild")
    table.add("dict-of-rows warm rebuild (seed cache)",
              results["dict_warm_rebuild_seconds"], "")
    table.show()
    print(f"\nbatch/scalar parity (atol=1e-6): "
          f"{results['parity_atol_1e-6']}")
    print(f"arena: {results['arena']['rows']} rows, "
          f"{results['arena']['bytes'] / 2**20:.1f} MiB, "
          f"hit rate {results['arena']['hit_rate']:.1%}")

    if not results["parity_atol_1e-6"]:
        raise SystemExit("FAIL: batch path diverged from seed path")

    output = arguments.output
    if output is None and not arguments.quick:
        output = (Path(__file__).resolve().parent.parent
                  / "BENCH_embedding_pipeline.json")
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {output}")


if __name__ == "__main__":
    main()
