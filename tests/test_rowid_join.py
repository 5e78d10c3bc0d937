"""Row-id plumbing tests: the explicit distinct-embedding id -> value
position mapping, and the semantic join over duplicated and
normalization-collapsed key values."""

import numpy as np
import pytest

from repro.relational.logical import ScanNode, SemanticJoinNode
from repro.relational.physical import ExecutionContext, execute_plan
from repro.semantic.join import expand_index_matches
from repro.storage.catalog import Catalog
from repro.storage.table import Table


class TestIndexIdMapping:
    """Probe ids map back to caller value positions explicitly — the
    duplicate-input contract the old first-appearance scheme silently
    violated."""

    def test_expand_matches_one_to_one_gather(self):
        positions = np.asarray([2, 0, 1], dtype=np.int64)  # a permutation
        li = np.asarray([0, 0, 1], dtype=np.int64)
        qi = np.asarray([0, 2, 1], dtype=np.int64)
        scores = np.asarray([0.9, 0.8, 0.7], dtype=np.float32)
        el, er, es = expand_index_matches(li, qi, scores, positions, 3)
        assert el.tolist() == [0, 0, 1]
        assert er.tolist() == [1, 0, 2]
        assert np.allclose(es, scores)

    def test_expand_matches_duplicates(self):
        # value positions 0 and 2 share index id 0; position 1 owns id 1
        positions = np.asarray([0, 1, 0], dtype=np.int64)
        li = np.asarray([5, 6], dtype=np.int64)
        qi = np.asarray([0, 1], dtype=np.int64)
        scores = np.asarray([0.9, 0.8], dtype=np.float32)
        el, er, es = expand_index_matches(li, qi, scores, positions, 2)
        assert el.tolist() == [5, 5, 6]
        assert er.tolist() == [0, 2, 1]
        assert np.allclose(es, [0.9, 0.9, 0.8])

    def test_expand_matches_empty(self):
        el, er, es = expand_index_matches(
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.float32), np.asarray([0, 0], np.int64), 1)
        assert el.shape == (0,) and er.shape == (0,) and es.shape == (0,)

    def test_expand_matches_random_against_loop(self, rng):
        for _ in range(25):
            n_values = int(rng.integers(1, 12))
            n_index = int(rng.integers(1, n_values + 1))
            positions = rng.integers(0, n_index, n_values).astype(np.int64)
            # ensure every index id owns at least one value position
            positions[:n_index] = np.arange(n_index)
            n_matches = int(rng.integers(0, 8))
            li = rng.integers(0, 5, n_matches).astype(np.int64)
            qi = rng.integers(0, n_index, n_matches).astype(np.int64)
            scores = rng.random(n_matches).astype(np.float32)
            el, er, es = expand_index_matches(li, qi, scores, positions,
                                              n_index)
            expected = []
            for m in range(n_matches):
                for v in range(n_values):
                    if positions[v] == qi[m]:
                        expected.append((int(li[m]), v, float(scores[m])))
            got = list(zip(el.tolist(), er.tolist(),
                           [round(s, 6) for s in es.tolist()]))
            expected = [(left, v, round(s, 6)) for left, v, s in expected]
            assert sorted(got) == sorted(expected)

    @staticmethod
    def run_join(registry, right_labels, threshold, top_k=None):
        """``(pid, kid)`` -> score of a semantic join of one-row
        ``sneakers`` (plus ``parka``/``sedan`` for threshold joins)
        against ``kb`` rows ``10, 11, ...`` labelled ``right_labels``."""
        catalog = Catalog()
        ptypes = (["sneakers"] if top_k is not None
                  else ["sneakers", "parka", "sedan"])
        left = Table.from_dict({"pid": list(range(1, len(ptypes) + 1)),
                                "ptype": ptypes})
        right = Table.from_dict({
            "kid": list(range(10, 10 + len(right_labels))),
            "label": right_labels,
        })
        catalog.register("products", left)
        catalog.register("kb", right)
        context = ExecutionContext(catalog=catalog, models=registry)
        plan = SemanticJoinNode(
            ScanNode("products", left.schema, qualifier="p"),
            ScanNode("kb", right.schema, qualifier="k"),
            "p.ptype", "k.label", "wiki-ft-100", threshold, top_k=top_k)
        return {(r["p.pid"], r["k.kid"]): r["similarity"]
                for r in execute_plan(plan, context).to_rows()}

    def test_operator_join_expands_duplicate_right_values(self, registry):
        # duplicated and normalization-collapsed right values each join:
        # sneakers~shoes x2, parka~jacket x2 (one "Jacket"), sedan~car
        pairs = self.run_join(
            registry, ["shoes", "jacket", "shoes", "Jacket", "car"], 0.9)
        assert sorted(pairs) == [(1, 10), (1, 12), (2, 11), (2, 13),
                                 (3, 14)]
        assert pairs[(1, 10)] == pairs[(1, 12)]
        assert pairs[(2, 11)] == pairs[(2, 13)]

    def test_operator_topk_index_duplicates(self, registry):
        pairs = self.run_join(registry, ["shoes", "shoes", "sedan"], 0.9,
                              top_k=1)
        # top-1 in distinct-embedding space expands to both duplicate rows
        assert sorted(pairs) == [(1, 10), (1, 11)]
        assert pairs[(1, 10)] == pairs[(1, 11)]

    def test_topk_selects_distinct_embeddings_under_collapse(self,
                                                             registry):
        # "Shoes" and "shoes" are raw-distinct but embedding-identical:
        # top-2 picks two distinct embeddings (boots, shoes) and the
        # collapsed shoes rows both join, three rows in all
        pairs = self.run_join(registry, ["shoes", "Shoes", "boots"], 0.0,
                              top_k=2)
        assert sorted(pairs) == [(1, 10), (1, 11), (1, 12)]
        assert pairs[(1, 10)] == pairs[(1, 11)] < pairs[(1, 12)]


class TestCacheFailureSafety:
    def test_transient_embed_failure_does_not_poison_cache(self, model):
        from repro.semantic.cache import EmbeddingCache

        cache = EmbeddingCache(model)
        original = model.embed_tokens
        calls = {"n": 0}

        def flaky(tokens):
            calls["n"] += 1
            if calls["n"] == 1:
                raise MemoryError("transient")
            return original(tokens)

        cache.model = type(model)(
            name=model.name, vocab=model.vocab,
            word_vectors=model.word_vectors,
            bucket_vectors=model.bucket_vectors)
        # the arena embeds its (already normalized, distinct) misses
        # through ``embed_tokens``
        cache.model.embed_tokens = flaky
        with pytest.raises(MemoryError):
            cache.matrix(["hello", "world"])
        assert len(cache) == 0   # nothing interned by the failed call
        retried = cache.matrix(["hello", "world"])
        assert np.allclose(retried, model.embed_batch(["hello", "world"]),
                           atol=1e-6)


class TestCacheInputs:
    def test_cache_accepts_generators(self, cache):
        cache.prefetch(t for t in ["dog", "cat"])
        assert cache.rows == 2
        matrix = cache.matrix(t for t in ["dog", "cat"])
        assert matrix.shape == (2, cache.model.dim)
