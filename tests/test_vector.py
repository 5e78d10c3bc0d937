"""Tests for vector metrics, top-k helpers, k-means, and the package's
lazy exports."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.vector.kmeans import KMeans
from repro.vector.metrics import (
    cosine_matrix,
    cosine_pairs,
    cosine_similarity,
    l2_distance,
    normalize_rows,
)
from repro.vector.topk import threshold_pairs, top_k_indices


class TestMetrics:
    def test_normalize_rows_unit(self, rng):
        matrix = rng.standard_normal((10, 5))
        normalized = normalize_rows(matrix)
        assert np.allclose(np.linalg.norm(normalized, axis=1), 1.0,
                           atol=1e-6)

    def test_normalize_zero_row_stays_zero(self):
        matrix = np.zeros((2, 3))
        matrix[1] = [1.0, 0.0, 0.0]
        normalized = normalize_rows(matrix)
        assert np.allclose(normalized[0], 0.0)

    def test_normalize_rejects_1d(self):
        with pytest.raises(IndexError_):
            normalize_rows(np.ones(3))

    def test_normalize_copy_semantics(self):
        matrix = np.ones((2, 2), dtype=np.float32) * 2
        normalize_rows(matrix, copy=True)
        assert matrix[0, 0] == 2.0

    def test_cosine_similarity_known(self):
        assert cosine_similarity(np.array([1.0, 0.0]),
                                 np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert cosine_similarity(np.array([1.0, 0.0]),
                                 np.array([0.0, 1.0])) == pytest.approx(0.0)
        assert cosine_similarity(np.array([1.0, 0.0]),
                                 np.array([-1.0, 0.0])) == pytest.approx(-1.0)

    def test_cosine_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_cosine_matrix_matches_manual(self, rng):
        left = rng.standard_normal((4, 8))
        right = rng.standard_normal((6, 8))
        matrix = cosine_matrix(left, right)
        for i in range(4):
            for j in range(6):
                assert matrix[i, j] == pytest.approx(
                    cosine_similarity(left[i], right[j]), abs=1e-5)

    def test_cosine_pairs(self, rng):
        left = rng.standard_normal((5, 8))
        right = rng.standard_normal((5, 8))
        pairs = cosine_pairs(left, right)
        for i in range(5):
            assert pairs[i] == pytest.approx(
                cosine_similarity(left[i], right[i]), abs=1e-5)

    def test_cosine_pairs_shape_mismatch(self, rng):
        with pytest.raises(IndexError_):
            cosine_pairs(rng.standard_normal((2, 3)),
                         rng.standard_normal((3, 3)))

    def test_l2_distance(self, rng):
        left = rng.standard_normal((3, 4))
        right = rng.standard_normal((5, 4))
        distances = l2_distance(left, right)
        for i in range(3):
            for j in range(5):
                expected = np.linalg.norm(left[i] - right[j])
                assert distances[i, j] == pytest.approx(expected, abs=1e-4)

    def test_l2_self_distance_zero(self, rng):
        points = rng.standard_normal((4, 4))
        distances = l2_distance(points, points)
        assert np.allclose(np.diag(distances), 0.0, atol=1e-4)


class TestTopK:
    def test_matches_full_sort(self, rng):
        scores = rng.standard_normal(100)
        top = top_k_indices(scores, 10)
        expected = np.argsort(-scores)[:10]
        assert np.array_equal(np.sort(top), np.sort(expected))

    def test_sorted_best_first(self, rng):
        scores = rng.standard_normal(50)
        top = top_k_indices(scores, 5)
        values = scores[top]
        assert np.all(values[:-1] >= values[1:])

    def test_k_zero(self):
        assert top_k_indices(np.array([1.0, 2.0]), 0).shape == (0,)

    def test_k_exceeds_n(self):
        scores = np.array([3.0, 1.0, 2.0])
        top = top_k_indices(scores, 10)
        assert np.array_equal(top, np.array([0, 2, 1]))

    def test_threshold_pairs(self):
        similarity = np.array([[0.95, 0.2], [0.5, 0.91]])
        rows, cols, scores = threshold_pairs(similarity, 0.9)
        assert set(zip(rows.tolist(), cols.tolist())) == {(0, 0), (1, 1)}
        assert np.all(scores >= 0.9)

    def test_threshold_pairs_none_match(self):
        rows, cols, scores = threshold_pairs(np.zeros((3, 3)), 0.5)
        assert rows.shape == (0,)


class TestKMeans:
    def test_separates_obvious_clusters(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((30, 2)) * 0.05 + np.array([5.0, 5.0])
        b = rng.standard_normal((30, 2)) * 0.05 + np.array([-5.0, -5.0])
        points = np.vstack([a, b])
        kmeans = KMeans(n_clusters=2, seed=3).fit(points)
        labels = kmeans.labels
        assert len(set(labels[:30].tolist())) == 1
        assert len(set(labels[30:].tolist())) == 1
        assert labels[0] != labels[30]

    def test_predict_matches_fit_labels(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((40, 3))
        kmeans = KMeans(n_clusters=4, seed=5).fit(points)
        assert np.array_equal(kmeans.predict(points), kmeans.labels)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        points = rng.standard_normal((50, 4)).astype(np.float32)
        a = KMeans(n_clusters=5, seed=9).fit(points)
        b = KMeans(n_clusters=5, seed=9).fit(points)
        assert np.array_equal(a.labels, b.labels)

    def test_k_larger_than_n(self):
        points = np.eye(3, dtype=np.float32)
        kmeans = KMeans(n_clusters=10, seed=0).fit(points)
        assert kmeans.centroids.shape[0] == 3

    def test_predict_before_fit_raises(self):
        with pytest.raises(IndexError_):
            KMeans(n_clusters=2).predict(np.ones((2, 2)))

    def test_empty_input_raises(self):
        with pytest.raises(IndexError_):
            KMeans(n_clusters=2).fit(np.empty((0, 3)))

    def test_inertia_finite(self, rng):
        points = rng.standard_normal((30, 2)).astype(np.float32)
        kmeans = KMeans(n_clusters=3, seed=1).fit(points)
        assert np.isfinite(kmeans.inertia)


class TestLazyExports:
    APPROXIMATE = ("lsh", "ivf", "hnsw", "kmeans", "quantization")

    def test_engine_import_loads_no_approximate_index(self):
        # the engine plans only exact access: importing it must not
        # load the approximate indexes the paper benches build directly,
        # and the package names still resolve on first use
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = (
            "import sys, repro.server\n"
            "print(' '.join(m for m in sys.modules"
            " if m.startswith('repro.vector.')))\n"
            "from repro.vector import HNSWIndex, join_quantized\n"
            "from repro.vector.hnsw import HNSWIndex as direct\n"
            "assert HNSWIndex is direct and callable(join_quantized)\n")
        loaded = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=env, check=True).stdout.split()
        assert "repro.vector.bruteforce" in loaded
        assert not [name for name in self.APPROXIMATE
                    if f"repro.vector.{name}" in loaded]
