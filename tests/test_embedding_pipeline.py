"""Tests for the vectorized embedding pipeline: batch/scalar parity,
the arena-backed cache, and the batched operator kernels."""

import numpy as np
import pytest

from repro.embeddings.subword import fnv1a, fnv1a_batch, subword_ids, \
    subword_ids_batch
from repro.semantic.cache import EmbeddingCache
from repro.semantic.operators import _expand_pairs, _group_rows
from repro.semantic.topk import join_topk
from repro.vector.topk import top_k_indices


class TestBatchSubwordKernels:
    def test_fnv1a_batch_matches_scalar(self):
        texts = ["", "a", "abc", "sneakers", "café", "golden retriever",
                 "über", "x" * 40]
        batch = fnv1a_batch(texts)
        assert batch.dtype == np.uint64
        assert batch.tolist() == [fnv1a(t) for t in texts]

    def test_subword_ids_batch_multiset_parity(self):
        words = ["sneakers", "golden retriever", "", "a", "café latte",
                 "xyzzy12", "q1z9", "dog dog dog"]
        ids, owners = subword_ids_batch(words)
        for index, word in enumerate(words):
            mine = np.sort(ids[owners == index])
            reference = np.sort(subword_ids(word))
            assert np.array_equal(mine, reference), word

    def test_owners_nondecreasing(self):
        _, owners = subword_ids_batch(["alpha", "beta gamma", "delta"])
        assert (np.diff(owners) >= 0).all()

    def test_empty_batch(self):
        ids, owners = subword_ids_batch([])
        assert ids.size == 0 and owners.size == 0


class TestBatchScalarParity:
    """``embed_batch(texts)`` must equal stacked ``embed(t)`` calls."""

    def _check(self, model, texts):
        batch = model.embed_batch(texts)
        reference = np.stack([model.embed(t) for t in texts])
        assert batch.dtype == np.float32
        assert np.allclose(batch, reference, atol=1e-6)

    def test_in_vocab_words(self, model):
        self._check(model, ["dog", "cat", "sneakers", "parka", "sedan"])

    def test_multiword_phrases(self, model):
        self._check(model, ["golden retriever", "sedan parka",
                            "golden puppy", "the quick brown fox"])

    def test_oov_misspellings(self, model):
        self._check(model, ["sneekers", "jackett", "sedann", "xyzzyq"])

    def test_empty_and_whitespace(self, model):
        self._check(model, ["", " ", "   ", "\t"])

    def test_duplicate_heavy_batch(self, model):
        texts = ["dog", "dog", "cat", "dog", "CAT", "  dog  "] * 5
        self._check(model, texts)
        batch = model.embed_batch(texts)
        assert np.allclose(batch[0], batch[1])
        assert np.allclose(batch[2], batch[4])  # normalization collapses

    def test_property_style_random_compositions(self, model, rng):
        """Random mixes of every string class, 20 rounds."""
        vocab = sorted(model.vocab)
        for _ in range(20):
            texts = []
            for _ in range(15):
                kind = rng.integers(5)
                a = vocab[int(rng.integers(len(vocab)))]
                b = vocab[int(rng.integers(len(vocab)))]
                if kind == 0:
                    texts.append(a)
                elif kind == 1:
                    texts.append(f"{a} {b}")
                elif kind == 2:
                    texts.append(a[1:] + a[:1])  # rotated misspelling
                elif kind == 3:
                    texts.append(f"{a} q{int(rng.integers(10_000))}z")
                else:
                    texts.append("")
            self._check(model, texts)

    def test_tokens_embedded_counts_unique(self, model):
        before = model.tokens_embedded
        model.embed_batch(["x1", "x2", "x1", "X1"])
        assert model.tokens_embedded == before + 2


class TestArenaCache:
    def test_growth_preserves_ids_and_vectors(self, model):
        """Ids hold until a compaction; a compaction renumbers rows but
        keeps a reused string's vector, and a string it dropped comes
        back bit-identical."""
        cache = EmbeddingCache(model, initial_capacity=2)
        first = cache.lookup(["dog", "cat"])
        first_rows = first.buffer[first.ids].copy()
        # "dog" is reused (under the id it had); "cat" is not
        assert np.array_equal(cache.row_ids(["dog"]), first.ids[:1])
        # outgrow the arena: it compacts, keeping "dog" and dropping "cat"
        cache.matrix([f"grow{i}" for i in range(70)])
        assert cache.compactions == 1
        assert cache.capacity >= 71 and cache.rows == 71
        misses = cache.misses
        again = cache.lookup(["dog", "cat"])
        assert cache.misses == misses + 1          # only "cat" re-embeds
        assert np.array_equal(again.buffer[again.ids], first_rows)

    def test_row_ids_stable_and_dense(self, model):
        cache = EmbeddingCache(model)
        ids = cache.row_ids(["a", "b", "a", "c"])
        assert ids.tolist() == [0, 1, 0, 2]
        assert cache.rows == 3

    def test_matrix_is_arena_gather(self, model):
        cache = EmbeddingCache(model)
        matrix = cache.matrix(["dog", "cat", "dog"])
        ids = cache.row_ids(["dog", "cat", "dog"])
        assert np.array_equal(matrix, cache.arena[ids])

    def test_matrix_matches_scalar_embed(self, model):
        cache = EmbeddingCache(model)
        matrix = cache.matrix(["dog", "sneekers", "golden retriever"])
        for row, text in zip(matrix, ["dog", "sneekers",
                                      "golden retriever"]):
            assert np.allclose(row, model.embed(text), atol=1e-6)

    def test_arena_view_read_only(self, model):
        cache = EmbeddingCache(model)
        cache.matrix(["dog"])
        with pytest.raises(ValueError):
            cache.arena[0, 0] = 5.0

    def test_clear_resets(self, model):
        cache = EmbeddingCache(model)
        cache.matrix(["dog", "cat"])
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
        assert cache.row_ids(["bird"]).tolist() == [0]

    def test_stats_shape(self, model):
        cache = EmbeddingCache(model)
        cache.matrix(["dog", "cat"])
        stats = cache.stats()
        assert stats["rows"] == 2
        assert stats["bytes"] == 2 * model.dim * 4
        assert 0.0 <= stats["hit_rate"] <= 1.0


class TestHitAccounting:
    """Freshly prefetched rows count once, as misses (the Figure-4 fix)."""

    def test_cold_matrix_counts_only_misses(self, model):
        cache = EmbeddingCache(model)
        cache.matrix(["a", "b"])
        assert cache.misses == 2
        assert cache.hits == 0

    def test_warm_matrix_counts_hits(self, model):
        cache = EmbeddingCache(model)
        cache.matrix(["a", "b"])
        cache.matrix(["a", "b"])
        assert cache.misses == 2
        assert cache.hits == 2

    def test_duplicates_within_cold_call(self, model):
        cache = EmbeddingCache(model)
        cache.matrix(["a", "a", "a"])
        assert cache.misses == 1
        assert cache.hits == 2

    def test_prefetch_counts_no_hits(self, model):
        cache = EmbeddingCache(model)
        cache.prefetch(["a", "b", "a"])
        cache.prefetch(["a", "b"])
        assert cache.misses == 2
        assert cache.hits == 0


class TestMostSimilarSelection:
    def test_matches_full_sort(self, model):
        query = model.embed("dog")
        matrix = model._vocabulary_matrix()
        scores = matrix @ query
        words = model._vocabulary_words()
        full = [words[int(i)] for i in np.argsort(-scores)
                if words[int(i)] != "dog"][:6]
        top = [w for w, _ in model.most_similar("dog", k=6)]
        assert top == full

    def test_scores_descend(self, model):
        scores = [s for _, s in model.most_similar("sneakers", k=8)]
        assert scores == sorted(scores, reverse=True)

    def test_candidates_with_duplicate_query(self, model):
        results = model.most_similar(
            "dog", k=2, candidates=["dog", "dog", "puppy", "cat", "parka"])
        assert "dog" not in [w for w, _ in results]
        assert len(results) == 2


def _split_groups(groups) -> list[np.ndarray]:
    """The offsets form as one array per group."""
    return [groups.rows[start:start + count] for start, count
            in zip(groups.offsets.tolist(), groups.counts.tolist())]


class TestGroupRowsAndExpansion:
    def test_group_rows_covers_all_non_null(self):
        values = np.asarray(["x", None, "y", "x", None, "x"], dtype=object)
        unique, groups = _group_rows(values)
        assert sorted(unique) == ["x", "y"]
        mapping = dict(zip(unique, _split_groups(groups)))
        assert mapping["x"].tolist() == [0, 3, 5]
        assert mapping["y"].tolist() == [2]

    def test_group_rows_all_null(self):
        unique, groups = _group_rows(np.asarray([None, None], dtype=object))
        assert unique == [] and _split_groups(groups) == []

    def test_expansion_matches_per_pair_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            left = [f"v{rng.integers(4)}" for _ in range(12)]
            right = [f"v{rng.integers(4)}" for _ in range(9)]
            lu, lg = _group_rows(np.asarray(left, dtype=object))
            ru, rg = _group_rows(np.asarray(right, dtype=object))
            pairs = rng.integers(1, len(lu) * len(ru) + 1)
            ul = rng.integers(0, len(lu), pairs).astype(np.int64)
            ur = rng.integers(0, len(ru), pairs).astype(np.int64)
            scores = rng.random(pairs).astype(np.float32)
            li, ri, s = _expand_pairs(ul, ur, scores, lg, rg)
            left_groups, right_groups = _split_groups(lg), _split_groups(rg)
            expected_l, expected_r, expected_s = [], [], []
            for p in range(pairs):
                lr, rr = left_groups[int(ul[p])], right_groups[int(ur[p])]
                expected_l.append(np.repeat(lr, rr.shape[0]))
                expected_r.append(np.tile(rr, lr.shape[0]))
                expected_s.append(np.full(lr.shape[0] * rr.shape[0],
                                          float(scores[p]), np.float64))
            assert np.array_equal(li, np.concatenate(expected_l))
            assert np.array_equal(ri, np.concatenate(expected_r))
            assert np.array_equal(s, np.concatenate(expected_s))


class TestBatchedTopK:
    def test_matches_per_row_reference(self, rng):
        left = rng.standard_normal((17, 16)).astype(np.float32)
        right = rng.standard_normal((23, 16)).astype(np.float32)
        for k in (1, 3, 23, 40):
            li, ri, s = join_topk(left, right, k, min_score=-0.5)
            similarity = left @ right.T
            el, er, es = [], [], []
            for row in range(similarity.shape[0]):
                top = top_k_indices(similarity[row], k)
                row_scores = similarity[row][top]
                keep = row_scores >= -0.5
                top, row_scores = top[keep], row_scores[keep]
                if top.shape[0]:
                    el.append(np.full(top.shape[0], row, dtype=np.int64))
                    er.append(top)
                    es.append(row_scores.astype(np.float32))
            assert np.array_equal(li, np.concatenate(el))
            assert np.array_equal(ri, np.concatenate(er))
            assert np.allclose(s, np.concatenate(es))


class TestSessionArenaPersistence:
    def test_arena_persists_and_reports(self):
        from repro.engine.session import Session
        from repro.storage.table import Table

        session = Session()
        session.register_table("products", Table.from_dict({
            "pid": [1, 2, 3],
            "ptype": ["sneakers", "parka", "sedan"],
        }))
        query = ("SELECT p.pid FROM products AS p "
                 "WHERE p.ptype ~ 'clothes' THRESHOLD 0.7")
        session.sql(query)
        first = session.state.arena_stats()
        model_name = session.default_model_name
        rows_after_first = first[model_name]["rows"]
        assert rows_after_first > 0
        session.sql(query)
        second = session.state.arena_stats()
        # same strings: no new rows, strictly more hits
        assert second[model_name]["rows"] == rows_after_first
        assert second[model_name]["hits"] > first[model_name]["hits"]
        assert session.last_profile.arena_rows == rows_after_first
        assert session.last_profile.arena_bytes > 0

    def test_session_embedding_cache_accessor(self):
        from repro.engine.session import Session

        session = Session()
        cache = session.embedding_cache()
        assert cache is session.embedding_cache()
        cache.matrix(["dog"])
        assert session.embedding_cache().rows == 1
