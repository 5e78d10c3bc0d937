"""The embedding arena is bounded by reuse: it compacts instead of growing.

When an embed would overflow the arena, the rows hit since the last
compaction (plus the rows the current call needs) move into a fresh
buffer and every other row is dropped.  Row ids are renumbered; vectors
are not — a dropped string re-embeds bit-identically — so nothing a
query answers may change.  Checked here:

- the compaction rule itself (survivors, sizing, the gauge, ``clear``);
- each distinct raw text is normalized once per resolve, and misses are
  embedded through ``EmbeddingModel.embed_tokens`` bit-identically to
  ``reference_embed_batch``;
- a result-cache exact hit and an ingest delta patch survive a
  compaction (``generation`` does not move);
- the semantic operators answer the same through an arena that compacts
  on every embed;
- under threads, every gathered row is its own string's vector.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from reference_operators import reference_embed_batch

import repro.embeddings.model as model_module
import repro.semantic.cache as cache_module
from repro.engine.session import Session
from repro.obs.metrics import MetricsRegistry
from repro.semantic.cache import EmbeddingCache
from repro.storage.table import Table
from repro.utils.text import normalize_token


class EagerlyCompactingCache(EmbeddingCache):
    """An arena that compacts on every embed, not only on overflow."""

    def _append(self, tokens: list[str]) -> None:
        self._compact(tokens, self.model.embed_tokens(tokens))


def _gathered(cache: EmbeddingCache, texts: list[str]) -> np.ndarray:
    rows = cache.lookup(texts)
    return rows.buffer[rows.ids]


class TestCompactionRule:
    def test_overflow_keeps_reused_rows_and_drops_the_rest(self, model):
        cache = EmbeddingCache(model, initial_capacity=4)
        cache.prefetch(["dog", "cat", "parka", "sedan"])   # full
        cache.matrix(["cat", "sedan"])                     # reused
        cache.prefetch(["apple"])                          # overflows
        assert cache.compactions == 1
        assert sorted(cache._ids) == ["apple", "cat", "sedan"]
        # three survivors: doubled until it holds 2 x 3 rows
        assert cache.capacity == 8
        # survivors keep their relative order; new rows follow
        assert cache.row_ids(["cat", "sedan", "apple"]).tolist() == [0, 1, 2]

    def test_rows_the_overflowing_call_needs_survive(self, model):
        cache = EmbeddingCache(model, initial_capacity=2)
        cache.prefetch(["dog", "cat"])
        misses = cache.misses
        matrix = cache.matrix(["dog", "parka", "sedan"])
        assert cache.compactions == 1
        assert cache.misses == misses + 2   # "dog" was a hit
        assert np.array_equal(matrix, reference_embed_batch(
            model, ["dog", "parka", "sedan"]))
        assert sorted(cache._ids) == ["dog", "parka", "sedan"]

    def test_arena_that_is_all_reused_grows_by_doubling(self, model):
        cache = EmbeddingCache(model, initial_capacity=4)
        words = [f"w{i}" for i in range(4)]
        cache.prefetch(words)
        cache.matrix(words)
        cache.prefetch(["w4"])
        assert cache.rows == 5 and cache.capacity == 16

    def test_compaction_never_shrinks_the_arena(self, model):
        cache = EmbeddingCache(model, initial_capacity=4)
        cache.prefetch([f"a{i}" for i in range(100)])
        cache.prefetch([f"b{i}" for i in range(100)])
        assert cache.capacity == 256 and cache.compactions == 1
        cache.prefetch([f"c{i}" for i in range(60)])
        assert cache.compactions == 2
        assert cache.rows == 60 and cache.capacity == 256

    def test_dropped_string_re_embeds_bit_identically(self, model):
        cache = EmbeddingCache(model, initial_capacity=2)
        first = cache.matrix(["golden retriever", "sneekers"])
        cache.prefetch([f"filler{i}" for i in range(8)])
        assert "sneekers" not in cache._ids
        assert np.array_equal(
            cache.matrix(["golden retriever", "sneekers"]), first)

    def test_compaction_keeps_the_generation(self, model):
        cache = EmbeddingCache(model, initial_capacity=2)
        generation = cache.generation
        cache.prefetch([f"filler{i}" for i in range(9)])
        assert cache.compactions == 1
        assert cache.generation == generation
        assert generation not in cache_module.RETIRED_GENERATIONS

    def test_gauge_and_stats_count_compactions_and_clear_resets(self,
                                                                model):
        registry = MetricsRegistry()
        cache = EmbeddingCache(model, initial_capacity=2)
        cache.register_metrics(registry)
        cache.prefetch(["a", "b"])
        cache.prefetch(["c"])
        cache.prefetch(["d", "e", "f"])
        labels = {"model": model.name}
        gauge = registry.gauge("embedding_arena_compactions", labels=labels)
        assert cache.compactions == cache.stats()["compactions"] == 2
        assert gauge.value == 2
        cache.clear()
        assert cache.compactions == 0 and cache.rows == 0

    def test_all_hit_arena_never_compacts(self, model):
        cache = EmbeddingCache(model)
        words = [f"w{i % 40}" for i in range(2_000)]
        for _ in range(5):
            cache.matrix(words)
        assert cache.compactions == 0 and cache.rows == 40


class TestNormalizeOnce:
    def test_each_distinct_raw_text_normalized_once(self, model,
                                                    monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return " ".join(text.lower().split())

        monkeypatch.setattr(cache_module, "normalize_token", counting)
        monkeypatch.setattr(model_module, "normalize_token", counting)
        cache = EmbeddingCache(model)
        texts = ["Dog", "dog", "Dog", "cat ", "cat "] * 50
        matrix = cache.matrix(texts)
        assert sorted(calls) == ["Dog", "cat ", "dog"]
        assert np.array_equal(matrix, reference_embed_batch(model, texts))
        calls.clear()
        cache.matrix(np.asarray(texts, dtype=object))
        assert sorted(calls) == ["Dog", "cat ", "dog"]

    def test_embed_tokens_is_embed_batch_of_distinct_tokens(self, model):
        tokens = ["dog", "golden retriever", "sneekers", "", "qzxv",
                  "lace-ups"]
        before = model.tokens_embedded
        rows = model.embed_tokens(tokens)
        assert model.tokens_embedded == before + len(tokens)
        assert np.array_equal(rows, reference_embed_batch(model, tokens))
        assert np.array_equal(rows, model.embed_batch(tokens))

    def test_cache_rows_match_the_reference(self, model):
        cache = EmbeddingCache(model, initial_capacity=4)
        texts = ["Dog", "  golden   Retriever", "sneekers", "dog", "Parka",
                 "x y z", "DOG"]
        for start in range(0, len(texts), 2):
            cache.prefetch(texts[start:start + 2])
        assert np.array_equal(cache.matrix(texts),
                              reference_embed_batch(model, texts))


def _text_table(words: list[str], count: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    texts = []
    for position in range(count):
        word = words[int(rng.integers(len(words)))]
        kind = position % 4
        texts.append(word if kind == 0 else word.title() if kind == 1
                     else f"{word}{int(rng.integers(100))}" if kind == 2
                     else f"{word} {words[int(rng.integers(len(words)))]}")
    return Table.from_dict({"id": list(range(count)), "text": texts})


def _session(model, cache: EmbeddingCache | None = None) -> Session:
    session = Session(load_default_model=False)
    session.register_model(model, default=True)
    if cache is not None:
        session.state.embedding_caches[model.name] = cache
    return session


def _sorted_rows(table: Table) -> list[str]:
    return sorted(map(str, table.to_rows()))


class TestServedAnswersSurviveCompaction:
    QUERY = "SELECT id, text FROM t WHERE text ~ 'dog' THRESHOLD 0.5"

    def test_result_hit_and_delta_patch_survive(self, model, thesaurus):
        words = sorted(thesaurus.all_forms())
        base = _text_table(words, 60, seed=1)
        delta = [{"id": 100 + i, "text": text} for i, text in
                 enumerate(["dog", "puppy", "sedan", "Hound", "kitten"])]
        session = _session(model)
        session.catalog.register("t", base)
        session.sql(self.QUERY)
        session.sql(self.QUERY)               # settled: cached
        cache = session.embedding_cache()
        generation, compactions = cache.generation, cache.compactions
        # fresh strings nobody asks for again overflow the arena
        cache.prefetch([f"filler{i}" for i in range(cache.capacity + 1)])
        assert cache.compactions == compactions + 1
        assert cache.generation == generation
        results = session.state.result_cache
        hits = results.stats()["hits"]
        session.sql(self.QUERY)
        assert results.stats()["hits"] == hits + 1
        report = session.append("t", delta)
        assert report.maintained == 1, report.refusals
        patched = session.sql(self.QUERY)
        assert results.stats()["hits"] == hits + 2
        rebuilt = _session(model)
        rebuilt.catalog.register(
            "t", Table.from_rows(base.to_rows() + delta, base.schema))
        assert _sorted_rows(patched) == _sorted_rows(
            rebuilt.sql(self.QUERY))


class TestOperatorParityUnderCompaction:
    STATEMENTS = (
        "SELECT id, text FROM l WHERE text ~ 'dog' THRESHOLD 0.6",
        "SELECT id FROM l WHERE text ~* 'shoes' THRESHOLD 0.7",
        "SELECT a.id, b.id FROM l AS a SEMANTIC JOIN r AS b "
        "ON a.text ~ b.text THRESHOLD 0.9",
        "SELECT a.id, b.id FROM l AS a SEMANTIC JOIN r AS b "
        "ON a.text ~ b.text THRESHOLD 0.5 TOP 3",
        "SELECT cluster_rep, COUNT(*) AS n FROM r "
        "SEMANTIC GROUP BY text THRESHOLD 0.8",
        "SELECT a.id, b.id FROM r AS a SEMANTIC JOIN l AS b "
        "ON a.text ~ b.text THRESHOLD 0.8 TOP 1",
    )

    def test_same_answers_as_a_growing_arena(self, model, thesaurus):
        words = sorted(thesaurus.all_forms())
        left = _text_table(words, 150, seed=2)
        right = _text_table(words, 120, seed=3)
        eager = EagerlyCompactingCache(model)
        compacting, growing = _session(model, eager), _session(model)
        for session in (compacting, growing):
            session.catalog.register("l", left)
            session.catalog.register("r", right)
        for statement in self.STATEMENTS * 2:
            assert _sorted_rows(compacting.sql(statement, optimize=False)) \
                == _sorted_rows(growing.sql(statement, optimize=False)), \
                statement
        assert eager.compactions >= len(self.STATEMENTS)
        assert growing.embedding_cache().compactions == 0


@pytest.mark.concurrency
class TestConcurrentCompaction:
    def test_gathers_stay_exact_while_the_arena_compacts(self, model,
                                                          thesaurus):
        words = sorted(thesaurus.all_forms())
        pool = words[:60] + [f"{w} {w}" for w in words[:20]] \
            + [w.upper() for w in words[:20]]
        expected = dict(zip(pool, reference_embed_batch(model, pool)))
        cache = EmbeddingCache(model, initial_capacity=8)
        stop = threading.Event()
        wrong: list[str] = []

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                picks = [pool[i] for i in rng.integers(len(pool), size=12)]
                for got in (_gathered(cache, picks), cache.matrix(picks)):
                    for text, row in zip(picks, got):
                        if not np.array_equal(row, expected[text]):
                            wrong.append(text)
                            return

        def compactor() -> None:
            # cold strings nobody asks for again: an overflow every
            # other batch or so, each keeping only the readers' rows
            for batch in range(60):
                cache.prefetch([f"cold{batch}_{i}" for i in range(64)])

        threads = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            try:
                compactor()
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert cache.compactions >= 10
        # the index and the buffer still agree row for row
        assert all(cache._tokens[row] == token
                   for token, row in cache._ids.items())
        held = [text for text in pool if normalize_token(text) in cache._ids]
        assert held
        for text, row in zip(held, _gathered(cache, held)):
            assert np.array_equal(row, expected[text])
