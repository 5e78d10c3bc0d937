"""Semantic GroupBy kernel: on-the-fly threshold clustering.

Greedy leader clustering over unit embeddings: scan values (most frequent
first, then lexicographic — deterministic), assign each to the best
existing leader above the threshold or open a new cluster with itself as
leader.  The leader string doubles as the cluster *representative*, which
is what on-the-fly result consolidation (Figure 3) surfaces to the user.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.semantic.cache import EmbeddingCache


@dataclass
class Clustering:
    """Result of clustering a value list."""

    labels: np.ndarray          # cluster id per input value
    representatives: list[str]  # cluster id -> representative string
    n_clusters: int


def cluster_strings(values: Iterable[str], cache: EmbeddingCache,
                    threshold: float) -> Clustering:
    """Cluster strings by embedding similarity >= ``threshold``.

    Each new leader's row is copied once into a contiguous buffer, so a
    value scores against ``leaders[:k]`` without re-gathering every
    leader row per value.
    """
    values = list(values)
    if not values:
        return Clustering(np.empty(0, dtype=np.int64), [], 0)

    frequency = Counter(values)
    unique = sorted(frequency, key=lambda v: (-frequency[v], v))
    matrix = cache.matrix(unique)

    leader_rows: list[int] = []
    leaders = np.empty_like(matrix)
    unique_labels = np.full(len(unique), -1, dtype=np.int64)
    for row in range(len(unique)):
        k = len(leader_rows)
        if k:
            sims = leaders[:k] @ matrix[row]
            best = int(np.argmax(sims))
            if float(sims[best]) >= threshold:
                unique_labels[row] = best
                continue
        unique_labels[row] = k
        leaders[k] = matrix[row]
        leader_rows.append(row)

    representatives = [unique[row] for row in leader_rows]
    # broadcast unique-value labels back to every row in one vectorized
    # inverse-gather instead of a per-row dict lookup loop
    sorted_unique, inverse = np.unique(np.asarray(values, dtype=object),
                                       return_inverse=True)
    label_for_sorted = np.empty(sorted_unique.shape[0], dtype=np.int64)
    positions = np.searchsorted(sorted_unique, np.asarray(unique,
                                                          dtype=object))
    label_for_sorted[positions] = unique_labels
    labels = label_for_sorted[inverse]
    return Clustering(labels, representatives, len(representatives))
