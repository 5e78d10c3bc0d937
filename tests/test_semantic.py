"""Tests for semantic kernels and operators: the paper's §IV extensions."""

import numpy as np
import pytest

from repro.relational.logical import (
    ScanNode,
    SemanticFilterNode,
    SemanticGroupByNode,
    SemanticJoinNode,
    SemanticSemiFilterNode,
)
from repro.relational.physical import execute_plan
from repro.semantic.cache import EmbeddingCache
from repro.semantic.groupby import cluster_strings
from repro.semantic.join import (
    join_blocked,
    join_index,
    join_nested_loop,
    join_prefetched,
    join_rowkernel,
)
from repro.semantic.select import semantic_any_mask, semantic_select_mask
from repro.vector import BruteForceIndex, HNSWIndex, IVFFlatIndex, LSHIndex

#: The approximate indexes the paper's §V ablation sweeps.
APPROXIMATE_INDEXES = {
    "lsh": lambda: LSHIndex(seed=0),
    "ivf": lambda: IVFFlatIndex(seed=0),
    "hnsw": lambda: HNSWIndex(seed=0),
}


@pytest.fixture(scope="module")
def words():
    left = ["sneakers", "parka", "sedan", "apple", "sofa"]
    right = ["shoes", "jacket", "car", "fruit", "couch", "dog"]
    return left, right


@pytest.fixture(scope="module")
def matrices(model, words):
    left, right = words
    return model.embed_batch(left), model.embed_batch(right)


def _pair_set(left_idx, right_idx):
    return set(zip(left_idx.tolist(), right_idx.tolist()))


class TestJoinKernels:
    def test_blocked_finds_synonym_pairs(self, matrices):
        left_matrix, right_matrix = matrices
        li, ri, scores = join_blocked(left_matrix, right_matrix, 0.9)
        pairs = _pair_set(li, ri)
        assert (0, 0) in pairs   # sneakers ~ shoes
        assert (1, 1) in pairs   # parka ~ jacket
        assert (2, 2) in pairs   # sedan ~ car
        assert (4, 4) in pairs   # sofa ~ couch
        assert np.all(scores >= 0.9)

    def test_all_matrix_kernels_agree(self, matrices):
        left_matrix, right_matrix = matrices
        reference = _pair_set(*join_blocked(left_matrix, right_matrix,
                                            0.9)[:2])
        assert _pair_set(*join_rowkernel(left_matrix, right_matrix,
                                         0.9)[:2]) == reference
        brute = BruteForceIndex().build(right_matrix)
        assert _pair_set(*join_index(left_matrix, brute,
                                     0.9)[:2]) == reference

    def test_string_kernels_agree_with_blocked(self, model, words, matrices):
        left, right = words
        left_matrix, right_matrix = matrices
        reference = _pair_set(*join_blocked(left_matrix, right_matrix,
                                            0.9)[:2])
        nested = join_nested_loop(left, right, model, 0.9)
        prefetched = join_prefetched(left, right, model, 0.9)
        assert _pair_set(*nested[:2]) == reference
        assert _pair_set(*prefetched[:2]) == reference

    @pytest.mark.parametrize("kind", list(APPROXIMATE_INDEXES))
    def test_approximate_index_recall(self, matrices, kind):
        left_matrix, right_matrix = matrices
        reference = _pair_set(*join_blocked(left_matrix, right_matrix,
                                            0.9)[:2])
        index = APPROXIMATE_INDEXES[kind]().build(right_matrix)
        approx = _pair_set(*join_index(left_matrix, index, 0.9)[:2])
        assert approx <= reference or len(reference) == 0
        assert len(approx) >= len(reference) * 0.5

    def test_empty_result(self, model):
        left = model.embed_batch(["sedan"])
        right = model.embed_batch(["apple"])
        li, ri, scores = join_blocked(left, right, 0.9)
        assert li.shape == (0,)

    def test_blocked_block_boundary(self, matrices):
        left_matrix, right_matrix = matrices
        one = join_blocked(left_matrix, right_matrix, 0.7, block=1)
        full = join_blocked(left_matrix, right_matrix, 0.7, block=1024)
        assert _pair_set(*one[:2]) == _pair_set(*full[:2])


class TestSelectKernels:
    def test_mask_matches_synonyms(self, cache):
        values = ["boots", "parka", "sedan", None, "tee"]
        mask, scores = semantic_select_mask(values, "clothes", cache, 0.7)
        assert mask.tolist() == [True, True, False, False, True]
        assert scores[3] == 0.0

    def test_threshold_monotonic(self, cache):
        values = ["boots", "parka", "sedan", "tee"]
        loose, _ = semantic_select_mask(values, "clothes", cache, 0.5)
        strict, _ = semantic_select_mask(values, "clothes", cache, 0.9)
        assert np.all(strict <= loose)

    def test_any_mask_union(self, cache):
        values = ["boots", "sedan", "apple", "kitten"]
        any_mask, _ = semantic_any_mask(values, ["shoes", "car"], cache, 0.9)
        assert any_mask.tolist() == [True, True, False, False]

    def test_any_mask_matches_max_of_singles(self, cache):
        values = ["boots", "sedan", "apple"]
        probes = ["shoes", "fruit"]
        any_mask, any_scores = semantic_any_mask(values, probes, cache, 0.5)
        singles = [semantic_select_mask(values, p, cache, 0.5)[1]
                   for p in probes]
        expected = np.maximum(*singles)
        assert np.allclose(any_scores, expected, atol=1e-5)


class TestClusterStrings:
    def test_synonyms_cluster(self, cache):
        values = ["boots", "sneakers", "oxfords", "sedan", "automobile",
                  "apple"]
        clustering = cluster_strings(values, cache, 0.9)
        labels = clustering.labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[5] not in (labels[0], labels[3])
        assert clustering.n_clusters == 3

    def test_representative_is_most_frequent(self, cache):
        values = ["boots", "boots", "boots", "sneakers"]
        clustering = cluster_strings(values, cache, 0.9)
        assert clustering.representatives[0] == "boots"

    def test_empty(self, cache):
        clustering = cluster_strings([], cache, 0.9)
        assert clustering.n_clusters == 0

    def test_deterministic(self, cache, model):
        values = ["boots", "sneakers", "sedan", "apple"] * 3
        a = cluster_strings(values, cache, 0.85)
        b = cluster_strings(values, EmbeddingCache(model), 0.85)
        assert np.array_equal(a.labels, b.labels)

    def test_threshold_one_isolates_distinct(self, cache):
        values = ["boots", "sneakers"]
        clustering = cluster_strings(values, cache, 1.0)
        assert clustering.n_clusters == 2


class TestSemanticOperators:
    def test_filter_op_with_score(self, context, products_table):
        scan = ScanNode("products", products_table.schema, qualifier="p")
        plan = SemanticFilterNode(scan, "p.ptype", "clothes", "wiki-ft-100",
                                  0.7, score_alias="score")
        result = execute_plan(plan, context)
        kinds = set(result.column("p.ptype").tolist())
        assert kinds == {"sneakers", "parka", "blazer"}
        assert np.all(result.column("score") >= 0.7)

    def test_join_op_expands_duplicates(self, context, catalog, kb_table):
        from repro.storage.table import Table

        left = Table.from_dict({"name": ["boots", "boots", "sedan"]})
        catalog.register("dupes", left)
        scan_l = ScanNode("dupes", left.schema, qualifier="d")
        scan_r = ScanNode("kb", kb_table.schema, qualifier="k")
        plan = SemanticJoinNode(scan_l, scan_r, "d.name", "k.label",
                                "wiki-ft-100", 0.9)
        result = execute_plan(plan, context)
        boots_rows = [r for r in result.to_rows() if r["d.name"] == "boots"]
        assert len(boots_rows) == 2  # both duplicate rows joined to shoes

    def test_groupby_op(self, context, products_table):
        scan = ScanNode("products", products_table.schema, qualifier="p")
        plan = SemanticGroupByNode(scan, "p.ptype", "wiki-ft-100", 0.55)
        result = execute_plan(plan, context)
        by_type = {r["p.ptype"]: r["cluster_id"] for r in result.to_rows()}
        # sneakers/parka/blazer are all clothes-family at 0.55
        assert by_type["sneakers"] == by_type["parka"] == by_type["blazer"]
        assert by_type["sedan"] != by_type["sneakers"]

    def test_semi_filter_op(self, context, products_table):
        scan = ScanNode("products", products_table.schema, qualifier="p")
        plan = SemanticSemiFilterNode(scan, "p.ptype", ["shoes", "car"],
                                      "wiki-ft-100", 0.9)
        result = execute_plan(plan, context)
        assert set(result.column("p.ptype").tolist()) == {"sneakers",
                                                          "sedan"}


class TestCache:
    def test_hit_miss_accounting(self, cache):
        cache.vector("dog")
        cache.vector("dog")
        assert cache.misses == 1
        assert cache.hits == 1

    def test_prefetch_dedup(self, cache):
        cache.prefetch(["a", "b", "a", "b"])
        assert cache.misses == 2
        assert len(cache) == 2

    def test_matrix_matches_model(self, cache, model):
        matrix = cache.matrix(["dog", "cat"])
        assert np.allclose(matrix[0], model.embed("dog"), atol=1e-6)

    def test_matrix_normalizes_tokens(self, cache):
        matrix_a = cache.matrix(["Dog"])
        matrix_b = cache.matrix(["dog"])
        assert np.allclose(matrix_a, matrix_b)

    def test_clear(self, cache):
        cache.vector("dog")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0
