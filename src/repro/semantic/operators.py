"""Physical operators for the semantic plan nodes.

These subclass the same :class:`~repro.relational.physical.PhysicalOperator`
as relational operators — a semantic join *is* a join to the executor, the
paper's central integration requirement.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from repro.relational.physical import PhysicalOperator, _combine
from repro.semantic.cache import EmbeddingCache
from repro.semantic.groupby import cluster_strings
from repro.semantic.join import expand_index_matches, join_blocked
from repro.semantic.topk import join_topk
from repro.semantic.select import semantic_any_mask, semantic_select_mask
from repro.storage.schema import Schema
from repro.storage.table import Table


class SemanticSemiFilterOp(PhysicalOperator):
    """Streaming disjunctive semantic filter (any-probe match)."""

    def __init__(self, child: PhysicalOperator, column: str,
                 probes: list[str], cache: EmbeddingCache, threshold: float,
                 schema: Schema):
        super().__init__(schema, (child,))
        self.column = column
        self.probes = probes
        self.cache = cache
        self.threshold = threshold

    def _batches(self) -> Iterator[Table]:
        for batch in self.children[0].batches():
            values = batch.column(self.column)
            mask, _ = semantic_any_mask(values, self.probes, self.cache,
                                        self.threshold)
            if mask.any():
                yield batch.filter(mask)


class SemanticFilterOp(PhysicalOperator):
    """Streaming semantic select: per-batch probe-similarity mask."""

    def __init__(self, child: PhysicalOperator, column: str, probe: str,
                 cache: EmbeddingCache, threshold: float,
                 score_alias: str | None, schema: Schema,
                 mode: str = "value"):
        super().__init__(schema, (child,))
        self.column = column
        self.probe = probe
        self.cache = cache
        self.threshold = threshold
        self.score_alias = score_alias
        self.mode = mode

    def _batches(self) -> Iterator[Table]:
        from repro.semantic.select import semantic_contains_mask

        kernel = (semantic_contains_mask if self.mode == "contains"
                  else semantic_select_mask)
        for batch in self.children[0].batches():
            values = batch.column(self.column)
            mask, scores = kernel(values, self.probe,
                                  self.cache, self.threshold)
            if not mask.any():
                continue
            filtered = batch.filter(mask)
            if self.score_alias:
                columns = dict(filtered.columns)
                columns[self.score_alias] = scores[mask].astype(np.float64)
                filtered = Table(self.schema, columns)
            yield filtered


class SemanticJoinOp(PhysicalOperator):
    """Semantic join: dedup key values, run a similarity kernel, expand.

    One kernel per join kind: blocked GEMM for a threshold join, one
    GEMM with a per-row top-k selection for a ``TOP k`` join.
    """

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_column: str, right_column: str, cache: EmbeddingCache,
                 threshold: float, score_alias: str, schema: Schema,
                 top_k: int | None = None,
                 aux_alias: str | None = None):
        super().__init__(schema, (left, right))
        self.left_column = left_column
        self.right_column = right_column
        self.cache = cache
        self.threshold = threshold
        self.score_alias = score_alias
        self.top_k = top_k
        self.aux_alias = aux_alias

    def _batches(self) -> Iterator[Table]:
        left = self.children[0].execute()
        right = self.children[1].execute()
        if left.num_rows == 0 or right.num_rows == 0:
            return
        left_unique, left_groups = _group_rows(left.column(self.left_column))
        right_unique, right_groups = _group_rows(
            right.column(self.right_column))
        if not left_unique or not right_unique:
            return

        ranks = None
        if self.top_k is not None:
            ul, ur, scores, ranks = self._match_topk(left_unique,
                                                     right_unique,
                                                     self.top_k)
        else:
            ul, ur, scores = join_blocked(self.cache.matrix(left_unique),
                                          self.cache.matrix(right_unique),
                                          self.threshold)
        if ul.shape[0] == 0:
            return

        left_idx, right_idx, all_scores, pair_index = _expand_pairs(
            ul, ur, scores, left_groups, right_groups,
            return_pair_index=True)

        n_aux = 2 if self.aux_alias is not None else 0
        combined_schema = Schema(
            list(self.schema.fields)[:len(self.schema.fields) - 1 - n_aux])
        combined = _combine(left.take(left_idx), right.take(right_idx),
                            combined_schema)
        columns = dict(combined.columns)
        columns[self.score_alias] = all_scores
        if self.aux_alias is not None:
            # group = left-distinct id, rank = pair position within the
            # group's descending-score top-k selection; expanded rows of
            # one pair share both (the reuse residual's truncation keys)
            columns[f"{self.aux_alias}_group"] = \
                ul[pair_index].astype(np.int64)
            group_ranks = (ranks if ranks is not None
                           else np.zeros(ul.shape[0], dtype=np.int64))
            columns[f"{self.aux_alias}_rank"] = \
                group_ranks[pair_index].astype(np.int64)
        yield Table(self.schema, columns)

    def _match_topk(self, left_unique: list[str], right_unique: list[str],
                    k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]:
        # top-k is selected in *distinct-embedding* space and expanded
        # to every value position sharing an arena row: values that
        # collapse to one embedding all join (may exceed k matches)
        cache = self.cache
        left_matrix = cache.matrix(left_unique)
        right = cache.lookup(right_unique)
        unique_ids, positions = np.unique(right.ids, return_inverse=True)
        li, qi, scores = join_topk(left_matrix, right.buffer[unique_ids],
                                   k, min_score=self.threshold)
        # pair rank inside each left row's selection: the kernel emits
        # left-major with per-row scores descending and the min_score
        # mask cutting a per-row *suffix*, so ranks are dense from 0
        ranks = _ranks_within_runs(li)
        expanded_li, value_idx, expanded_scores, pair_index = \
            expand_index_matches(li, qi, scores, positions,
                                 unique_ids.shape[0],
                                 return_pair_index=True)
        return (expanded_li, value_idx, expanded_scores,
                ranks[pair_index] if ranks.shape[0] else ranks)


class SemanticGroupByOp(PhysicalOperator):
    """Semantic group-by: cluster the column, append id + representative."""

    def __init__(self, child: PhysicalOperator, column: str,
                 cache: EmbeddingCache, threshold: float, cluster_alias: str,
                 representative_alias: str, schema: Schema):
        super().__init__(schema, (child,))
        self.column = column
        self.cache = cache
        self.threshold = threshold
        self.cluster_alias = cluster_alias
        self.representative_alias = representative_alias

    def _batches(self) -> Iterator[Table]:
        table = self.children[0].execute()
        if table.num_rows == 0:
            return
        values = [v if v is not None else "" for v in
                  table.column(self.column)]
        clustering = cluster_strings(values, self.cache, self.threshold)
        representatives = np.asarray(clustering.representatives,
                                     dtype=object)[clustering.labels]
        columns = dict(table.columns)
        columns[self.cluster_alias] = clustering.labels
        columns[self.representative_alias] = representatives
        yield Table(self.schema, columns)


class RowGroups(NamedTuple):
    """Row indices grouped by distinct value, in one flat array: group
    ``g`` is ``rows[offsets[g]:offsets[g] + counts[g]]``, ascending."""

    rows: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray


def _group_rows(values: np.ndarray) -> tuple[list[str], RowGroups]:
    """Unique non-null values and, aligned with them, the row indices
    holding each — computed with one ``np.unique(return_inverse=True)``
    pass and one stable sort instead of a Python dict-of-lists loop."""
    values = np.asarray(values, dtype=object)
    present = np.not_equal(values, None)
    row_indices = np.nonzero(present)[0].astype(np.int64)
    if row_indices.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return [], RowGroups(empty, empty, empty)
    unique, inverse = np.unique(values[present], return_inverse=True)
    counts = np.bincount(inverse, minlength=unique.shape[0])
    order = np.argsort(inverse, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return ([str(value) for value in unique],
            RowGroups(row_indices[order], counts, offsets))


def _ranks_within_runs(run_ids: np.ndarray) -> np.ndarray:
    """Position of each element inside its run of equal ``run_ids``.

    ``run_ids`` must be run-contiguous (the left-major pair emission
    order); ranks restart at 0 on every run boundary.
    """
    n = run_ids.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    index = np.arange(n, dtype=np.int64)
    new_run = np.concatenate(([True], run_ids[1:] != run_ids[:-1]))
    run_starts = np.maximum.accumulate(np.where(new_run, index, 0))
    return index - run_starts


def _expand_pairs(ul: np.ndarray, ur: np.ndarray, scores: np.ndarray,
                  left_groups: RowGroups, right_groups: RowGroups,
                  return_pair_index: bool = False
                  ) -> tuple[np.ndarray, ...]:
    """Expand matched unique-value pairs to row-level join output.

    Counts-based ``np.repeat`` expansion gathered through the groups'
    offsets (no per-pair Python loop): for pair ``p`` every left row
    repeats ``|right group|`` times against the right group cycled
    ``|left group|`` times — the same (left-major, right-minor) order
    the join has always emitted.  The all-distinct case (every group a
    single row) is a pure gather.

    With ``return_pair_index`` a fourth array maps each output row back
    to the input-pair position it expanded from (for per-pair metadata
    like the reuse ranks).
    """
    pair_left = left_groups.counts[ul]
    pair_right = right_groups.counts[ur]
    if (pair_left == 1).all() and (pair_right == 1).all():
        result = (left_groups.rows[left_groups.offsets[ul]],
                  right_groups.rows[right_groups.offsets[ur]],
                  scores.astype(np.float64))
        if return_pair_index:
            return (*result, np.arange(ul.shape[0], dtype=np.int64))
        return result

    sizes = pair_left * pair_right
    total = int(sizes.sum())
    block_starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    offset_in_block = (np.arange(total, dtype=np.int64)
                       - np.repeat(block_starts, sizes))
    # output row o of pair p's block is (left o // |R|, right o % |R|)
    width = np.repeat(pair_right, sizes)
    left_idx = left_groups.rows[np.repeat(left_groups.offsets[ul], sizes)
                                + offset_in_block // width]
    right_idx = right_groups.rows[np.repeat(right_groups.offsets[ur], sizes)
                                  + offset_in_block % width]
    all_scores = np.repeat(scores.astype(np.float64), sizes)
    if return_pair_index:
        pair_index = np.repeat(np.arange(ul.shape[0], dtype=np.int64),
                               sizes)
        return left_idx, right_idx, all_scores, pair_index
    return left_idx, right_idx, all_scores
