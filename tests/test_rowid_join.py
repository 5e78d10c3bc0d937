"""Row-id plumbing tests: index-cache identity on arena row-id sets and
the explicit index-id -> value-position mapping."""

import numpy as np
import pytest

from repro.relational.logical import ScanNode, SemanticJoinNode
from repro.relational.physical import ExecutionContext, execute_plan
from repro.semantic.index_cache import IndexCache
from repro.semantic.join import expand_index_matches
from repro.storage.catalog import Catalog
from repro.storage.table import Table


class TestIndexCacheIdentity:
    """Fingerprints key on sorted arena row-id sets: multiplicity- and
    order-insensitive, collision-resistant, no value re-hashing."""

    def test_duplicate_multiplicity_hits(self, cache):
        index_cache = IndexCache()
        first = index_cache.get("brute", ["shoes", "shoes", "jacket"],
                                cache)
        second = index_cache.get(
            "brute", ["jacket", "shoes", "jacket", "jacket"], cache)
        assert first is second
        assert index_cache.stats()["hits"] == 1
        assert index_cache.stats()["misses"] == 1
        assert len(index_cache) == 1

    def test_no_xor_pair_cancellation_collision(self, cache):
        # the old XOR fingerprint cancelled values appearing an even
        # number of times: ["alpha", "alpha"] and ["beta", "beta"] both
        # XOR-digested to 0 with equal unique counts, colliding
        index_cache = IndexCache()
        first = index_cache.get("brute", ["alpha", "alpha"], cache)
        second = index_cache.get("brute", ["beta", "beta"], cache)
        assert first is not second
        assert index_cache.stats()["misses"] == 2
        assert index_cache.stats()["hits"] == 0

    def test_no_collision_on_cancelled_quads(self, cache):
        # {x, y} each twice vs {p, q} each twice: both XOR to 0 with two
        # unique values — the crafted 4-element collision of the old
        # scheme
        index_cache = IndexCache()
        first = index_cache.get("brute", ["x", "y", "x", "y"], cache)
        second = index_cache.get("brute", ["p", "q", "p", "q"], cache)
        assert first is not second
        assert index_cache.stats()["misses"] == 2

    def test_order_insensitive(self, cache):
        index_cache = IndexCache()
        first = index_cache.get("brute", ["a", "b", "c"], cache)
        second = index_cache.get("brute", ["c", "a", "b"], cache)
        assert first is second

    def test_normalization_collapse_shares_entry(self, cache):
        # distinct raw strings with equal normalized tokens occupy one
        # arena row, so they fingerprint identically
        index_cache = IndexCache()
        first = index_cache.get("brute", ["Dog", "cat"], cache)
        second = index_cache.get("brute", ["dog", "  CAT  "], cache)
        assert first is second
        assert index_cache.stats()["hits"] == 1

    def test_arena_clear_invalidates_entries(self, cache):
        index_cache = IndexCache()
        first = index_cache.get("brute", ["dog"], cache)
        cache.clear()
        # "bird" now interns to row id 0, the id "dog" used to hold; the
        # generation in the fingerprint keeps the stale index unreachable
        second = index_cache.get("brute", ["bird"], cache)
        assert first is not second
        assert index_cache.stats()["misses"] == 2

    def test_distinct_cache_instances_never_alias(self, model):
        from repro.semantic.cache import EmbeddingCache

        # two fresh arenas for one model both number their strings from
        # row id 0; the globally unique generation token keeps their
        # (identical-looking) id sets from colliding in the key
        index_cache = IndexCache()
        cache_a = EmbeddingCache(model)
        cache_b = EmbeddingCache(model)
        first, _ = index_cache.get_for_values(
            "brute", ["apple", "banana"], cache_a)
        second, _ = index_cache.get_for_values(
            "brute", ["car", "train"], cache_b)
        assert first is not second
        assert index_cache.stats()["misses"] == 2
        assert index_cache.stats()["hits"] == 0

    def test_arena_clear_evicts_stale_entries(self, cache):
        index_cache = IndexCache()
        index_cache.get("brute", ["dog"], cache)
        index_cache.get("lsh", ["dog", "cat"], cache)
        cache.clear()
        # stale-generation entries can never hit again; the next build
        # for this model drops them instead of leaking index copies
        index_cache.get("brute", ["bird"], cache)
        assert len(index_cache) == 1

    def test_live_sibling_caches_do_not_thrash(self, model):
        from repro.semantic.cache import EmbeddingCache

        # two live arenas of one model sharing an IndexCache: eviction
        # only targets retired generations, so the siblings' entries
        # coexist and both keep hitting
        index_cache = IndexCache()
        cache_a = EmbeddingCache(model)
        cache_b = EmbeddingCache(model)
        first_a, _ = index_cache.get_for_values("brute", ["apple"], cache_a)
        first_b, _ = index_cache.get_for_values("brute", ["pear"], cache_b)
        again_a, _ = index_cache.get_for_values("brute", ["apple"], cache_a)
        again_b, _ = index_cache.get_for_values("brute", ["pear"], cache_b)
        assert first_a is again_a and first_b is again_b
        assert index_cache.stats()["hits"] == 2
        assert index_cache.stats()["misses"] == 2
        assert len(index_cache) == 2

    def test_index_rows_follow_sorted_id_order(self, cache):
        index_cache = IndexCache()
        # interned out of order: "b" gets a lower row id than "a"
        cache.row_ids(["b", "a"])
        index, unique_ids = index_cache.get_for_ids(
            "brute", cache.row_ids(["a", "b"]), cache)
        assert unique_ids.tolist() == sorted(unique_ids.tolist())
        assert np.allclose(index.vectors, cache.rows_for(unique_ids),
                           atol=1e-6)

    def test_unknown_kind(self, cache):
        with pytest.raises(Exception):
            IndexCache().get("btree", ["a"], cache)


class TestIndexCacheBudget:
    """Built indexes are held under a byte budget (each entry sized as
    its indexed matrix), least recently used first."""

    def test_fill_past_budget_evicts_oldest_first(self, cache):
        entry_bytes = 2 * cache.model.dim * 4        # two rows, float32
        budget = 3 * entry_bytes
        index_cache = IndexCache(max_bytes=budget)
        groups = [[f"word{i}a", f"word{i}b"] for i in range(5)]
        for group in groups:
            index_cache.get("brute", group, cache)
            assert index_cache.stats()["bytes"] <= budget
        stats = index_cache.stats()
        assert stats["entries"] == 3 and stats["evictions"] == 2
        for group in groups[2:]:                     # the newest three hit
            index_cache.get("brute", group, cache)
        assert index_cache.stats()["misses"] == 5
        index_cache.get("brute", groups[0], cache)   # the oldest went first
        assert index_cache.stats()["misses"] == 6

    def test_hits_refresh_recency(self, cache):
        entry_bytes = 2 * cache.model.dim * 4
        index_cache = IndexCache(max_bytes=2 * entry_bytes)
        first, second, third = (["red", "blue"], ["cat", "dog"],
                                ["car", "bus"])
        index_cache.get("brute", first, cache)
        index_cache.get("brute", second, cache)
        index_cache.get("brute", first, cache)       # first is now recent
        index_cache.get("brute", third, cache)       # evicts second
        misses = index_cache.stats()["misses"]
        index_cache.get("brute", first, cache)
        assert index_cache.stats()["misses"] == misses
        index_cache.get("brute", second, cache)
        assert index_cache.stats()["misses"] == misses + 1

    def test_evicted_predecessor_rebuilds_with_identical_results(
            self, cache, model):
        """Evicting an ingest predecessor turns the extension back into a
        full build over the same rows — nothing else changes."""
        from repro.semantic.cache import EmbeddingCache

        first = cache.row_ids(["shoes", "jacket", "car", "fruit"])
        grown = np.concatenate([first, cache.row_ids(["dog", "kitten"])])
        sibling = EmbeddingCache(model)           # another index stream
        other = sibling.row_ids(["sedan", "truck", "bus", "tram"])
        row_bytes = cache.model.dim * 4
        outcomes = []
        for index_cache in (IndexCache(), IndexCache(max_bytes=6 * row_bytes)):
            index_cache.get_for_ids("brute", first, cache)
            index_cache.get_for_ids("brute", other, sibling)
            index, unique_ids = index_cache.get_for_ids("brute", grown, cache)
            outcomes.append((index, unique_ids, index_cache.stats()))
        (kept, kept_ids, kept_stats), (rebuilt, rebuilt_ids, rebuilt_stats) \
            = outcomes
        assert kept_stats["incremental_extends"] == 1
        assert rebuilt_stats["incremental_extends"] == 0
        assert rebuilt_stats["evictions"] >= 1
        assert rebuilt_stats["builds"] == kept_stats["builds"] == 3
        assert np.array_equal(kept_ids, rebuilt_ids)
        assert np.array_equal(kept.vectors, rebuilt.vectors)
        for query in cache.rows_for(grown):
            left, right = kept.search(query, 3), rebuilt.search(query, 3)
            assert np.array_equal(left.ids, right.ids)
            assert np.array_equal(left.scores, right.scores)


class TestIndexIdMapping:
    """Probe ids map back to caller value positions explicitly — the
    duplicate-input contract the old first-appearance scheme silently
    violated."""

    def test_get_for_values_positions(self, cache):
        index_cache = IndexCache()
        values = ["shoes", "jacket", "shoes", "Jacket"]
        index, positions = index_cache.get_for_values("brute", values,
                                                      cache)
        assert positions.shape == (4,)
        assert positions[0] == positions[2]      # duplicate value
        assert positions[1] == positions[3]      # normalization collapse
        assert index.size == 2
        for value, q in zip(values, positions):
            expected = cache.rows_for(cache.row_ids([value]))[0]
            assert np.allclose(index.vectors[int(q)], expected, atol=1e-6)

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

    def test_operator_index_join_duplicates_match_blocked(self, registry):
        # right side carries duplicated and normalization-collapsed
        # values; the index path must produce exactly the blocked
        # kernel's row-level pairs
        catalog = Catalog()
        left = Table.from_dict({
            "pid": [1, 2, 3],
            "ptype": ["sneakers", "parka", "sedan"],
        })
        right = Table.from_dict({
            "kid": [10, 11, 12, 13, 14],
            "label": ["shoes", "jacket", "shoes", "Jacket", "car"],
        })
        catalog.register("products", left)
        catalog.register("kb", right)
        context = ExecutionContext(catalog=catalog, models=registry)

        def run(method):
            plan = SemanticJoinNode(
                ScanNode("products", left.schema, qualifier="p"),
                ScanNode("kb", right.schema, qualifier="k"),
                "p.ptype", "k.label", "wiki-ft-100", 0.9)
            plan.hints["method"] = method
            rows = execute_plan(plan, context).to_rows()
            return sorted((r["p.pid"], r["k.kid"],
                           round(r["similarity"], 5)) for r in rows)

        reference = run("blocked")
        assert len(reference) >= 4   # sneakers~shoes x2, parka~jacket x2
        assert run("index:brute") == reference

    def test_operator_topk_index_duplicates(self, registry):
        catalog = Catalog()
        left = Table.from_dict({"pid": [1], "ptype": ["sneakers"]})
        right = Table.from_dict({
            "kid": [10, 11, 12],
            "label": ["shoes", "shoes", "sedan"],
        })
        catalog.register("products", left)
        catalog.register("kb", right)
        context = ExecutionContext(catalog=catalog, models=registry)
        plan = SemanticJoinNode(
            ScanNode("products", left.schema, qualifier="p"),
            ScanNode("kb", right.schema, qualifier="k"),
            "p.ptype", "k.label", "wiki-ft-100", 0.9, top_k=1)
        plan.hints["method"] = "index:brute"
        rows = execute_plan(plan, context).to_rows()
        # top-1 in distinct-embedding space expands to both duplicate rows
        assert sorted(r["k.kid"] for r in rows) == [10, 11]

    def test_topk_method_consistent_under_collapse(self, registry):
        # "Shoes" and "shoes" are raw-distinct but embedding-identical;
        # top-k must not depend on which access path the optimizer picks
        catalog = Catalog()
        left = Table.from_dict({"pid": [1], "ptype": ["sneakers"]})
        right = Table.from_dict({
            "kid": [10, 11, 12],
            "label": ["shoes", "Shoes", "boots"],
        })
        catalog.register("products", left)
        catalog.register("kb", right)
        context = ExecutionContext(catalog=catalog, models=registry)

        def run(method):
            plan = SemanticJoinNode(
                ScanNode("products", left.schema, qualifier="p"),
                ScanNode("kb", right.schema, qualifier="k"),
                "p.ptype", "k.label", "wiki-ft-100", 0.0, top_k=2)
            plan.hints["method"] = method
            rows = execute_plan(plan, context).to_rows()
            return sorted((r["p.pid"], r["k.kid"],
                           round(r["similarity"], 5)) for r in rows)

        assert run("blocked") == run("index:brute")


class TestCacheFailureSafety:
    def test_transient_embed_failure_does_not_poison_cache(self, model):
        from repro.semantic.cache import EmbeddingCache

        cache = EmbeddingCache(model)
        original = model.embed_batch
        calls = {"n": 0}

        def flaky(texts):
            calls["n"] += 1
            if calls["n"] == 1:
                raise MemoryError("transient")
            return original(texts)

        cache.model = type(model)(
            name=model.name, vocab=model.vocab,
            word_vectors=model.word_vectors,
            bucket_vectors=model.bucket_vectors)
        cache.model.embed_batch = flaky
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
