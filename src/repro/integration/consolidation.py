"""Automated, on-the-fly result consolidation (Figure 3).

Given a column of dirty, context-rich values (synonyms, alternative
spellings, misspellings), produce a canonical mapping — without a domain
expert in the loop.  The semantic path embeds values and threshold-clusters
them; syntactic baselines (edit distance / n-gram Jaccard) are provided
through the same interface so Figure 3's comparison is one function call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import IntegrationError
from repro.semantic.baselines import (
    jaccard_similarity,
    normalized_edit_similarity,
)
from repro.semantic.cache import EmbeddingCache
from repro.semantic.groupby import cluster_strings
from repro.storage.table import Table


@dataclass
class ConsolidationReport:
    """Outcome of consolidating one value set."""

    mapping: dict[str, str]            # raw value -> canonical representative
    clusters: dict[str, list[str]] = field(default_factory=dict)
    method: str = "semantic"

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


class ResultConsolidator:
    """Consolidates values by semantic or syntactic similarity."""

    def __init__(self, cache: EmbeddingCache | None = None,
                 threshold: float = 0.9, method: str = "semantic"):
        if method in ("semantic",) and cache is None:
            raise IntegrationError("semantic consolidation needs a cache")
        if method not in ("semantic", "edit", "jaccard", "exact"):
            raise IntegrationError(f"unknown consolidation method {method!r}")
        self.cache = cache
        self.threshold = threshold
        self.method = method

    def consolidate(self, values) -> ConsolidationReport:
        """Cluster ``values`` and map each to its representative."""
        values = [v for v in values if v is not None]
        unique = sorted(set(values))
        if not unique:
            return ConsolidationReport({}, {}, self.method)
        if self.method == "semantic":
            labels, representatives = self._semantic(values)
        elif self.method == "exact":
            labels = {v: i for i, v in enumerate(unique)}
            representatives = list(unique)
        else:
            labels, representatives = self._syntactic(unique)
        mapping: dict[str, str] = {}
        clusters: dict[str, list[str]] = {}
        for value in unique:
            representative = representatives[labels[value]]
            mapping[value] = representative
            clusters.setdefault(representative, []).append(value)
        return ConsolidationReport(mapping, clusters, self.method)

    def consolidate_column(self, table: Table, column: str) -> Table:
        """Return ``table`` with ``column`` rewritten to canonical values."""
        report = self.consolidate(table.column(column))
        canonical = np.asarray(
            [report.mapping.get(v, v) for v in table.column(column)],
            dtype=object)
        columns = dict(table.columns)
        resolved = table.schema.names[table.schema.index_of(column)]
        columns[resolved] = canonical
        return Table(table.schema, columns)

    # ------------------------------------------------------------------
    def _semantic(self, values) -> tuple[dict[str, int], list[str]]:
        assert self.cache is not None
        clustering = cluster_strings(values, self.cache, self.threshold)
        labels: dict[str, int] = {}
        for value, label in zip(values, clustering.labels):
            labels.setdefault(value, int(label))
        return labels, clustering.representatives

    def _syntactic(self, unique: list[str]) -> tuple[dict[str, int],
                                                     list[str]]:
        similarity = (normalized_edit_similarity if self.method == "edit"
                      else jaccard_similarity)
        representatives: list[str] = []
        labels: dict[str, int] = {}
        for value in unique:
            assigned = None
            best = self.threshold
            for cluster_id, representative in enumerate(representatives):
                score = similarity(value, representative)
                if score >= best:
                    best = score
                    assigned = cluster_id
            if assigned is None:
                labels[value] = len(representatives)
                representatives.append(value)
            else:
                labels[value] = assigned
        return labels, representatives


def pairwise_f1(predicted: dict[str, str],
                truth: dict[str, str]) -> tuple[float, float, float]:
    """Pairwise precision/recall/F1 of a consolidation mapping.

    Two values are a predicted pair when mapped to the same representative;
    a true pair when they share a ground-truth group.
    """
    values = sorted(set(predicted) & set(truth))
    predicted_pairs = set()
    true_pairs = set()
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            if predicted[a] == predicted[b]:
                predicted_pairs.add((a, b))
            if truth[a] == truth[b]:
                true_pairs.add((a, b))
    if not predicted_pairs and not true_pairs:
        return 1.0, 1.0, 1.0
    true_positive = len(predicted_pairs & true_pairs)
    precision = (true_positive / len(predicted_pairs)
                 if predicted_pairs else 0.0)
    recall = true_positive / len(true_pairs) if true_pairs else 0.0
    if precision + recall == 0.0:
        return 0.0, 0.0, 0.0
    f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1
