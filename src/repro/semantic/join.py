"""Semantic similarity join kernels — the full Figure-4 ladder.

All kernels answer the same question: which pairs ``(i, j)`` of
``left[i]``/``right[j]`` have cosine similarity >= ``threshold`` in the
model's latent space.  They differ *only* in implementation strategy, which
is the entire point of the paper's Figure 4:

===================  ====================================================
kernel               paper rung it reproduces
===================  ====================================================
``join_nested_loop`` naive Python: embeds per pair, pure-Python dot
``join_prefetched``  + data-access optimization (embeddings prefetched
                     into a contiguous matrix; still a Python double loop)
``join_rowkernel``   + "tight code, fewer function calls" (one vectorized
                     kernel call per left row)
``join_blocked``     + "CPU-specific instructions" (float32 BLAS GEMM over
                     blocks — SIMD fused multiply-add inside the kernel)
``kernel_parallel``  + scale-up (``join_blocked``'s block GEMMs on a thread
                     pool; defined in ``bench_fig4_optimization_ladder.py``)
``join_index``       index-based access path: range-probes a built
                     :class:`~repro.vector.index.VectorIndex` (LSH / IVF /
                     HNSW / brute), the §V index ablation
===================  ====================================================

Matrix-based kernels take pre-normalized embedding matrices (see
:class:`~repro.semantic.cache.EmbeddingCache`); ``join_nested_loop`` and
``join_prefetched`` take raw strings because *how embeddings are fetched*
is part of what they measure.

The engine runs one kernel, ``join_blocked`` (top-k joins:
:func:`repro.semantic.topk.join_topk`); the other kernels are library
code the paper benchmarks call directly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.embeddings.model import EmbeddingModel
from repro.vector.index import VectorIndex
from repro.vector.topk import threshold_pairs

JoinPairs = tuple[np.ndarray, np.ndarray, np.ndarray]

DEFAULT_BLOCK = 1024


def _empty_pairs() -> JoinPairs:
    return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float32))


def join_nested_loop(left_values: Sequence[str], right_values: Sequence[str],
                     model: EmbeddingModel, threshold: float) -> JoinPairs:
    """Naive per-pair join: re-embeds on every access, pure-Python dot.

    This is the paper's left-most Figure-4 bar — the code a data analyst
    writes first.  Complexity O(|L| * |R| * dim) in interpreted Python with
    a model invocation per pair operand.  Intentionally unoptimized.
    """
    left_idx: list[int] = []
    right_idx: list[int] = []
    scores: list[float] = []
    for i, left_value in enumerate(left_values):
        for j, right_value in enumerate(right_values):
            a = model.embed(left_value)
            b = model.embed(right_value)
            total = 0.0
            for k in range(a.shape[0]):  # per-element Python loop, on purpose
                total += float(a[k]) * float(b[k])
            if total >= threshold:
                left_idx.append(i)
                right_idx.append(j)
                scores.append(total)
    return (np.asarray(left_idx, dtype=np.int64),
            np.asarray(right_idx, dtype=np.int64),
            np.asarray(scores, dtype=np.float32))


def join_python_eager(left_values: Sequence[str],
                      right_values: Sequence[str], model: EmbeddingModel,
                      threshold: float) -> JoinPairs:
    """The analyst's first Python program (Figure 4's baseline rungs).

    Embeddings are loaded eagerly into plain Python lists (one model call
    per *distinct* string — "they load the data eagerly"), then matching
    runs as two nested Python loops with a per-dimension Python dot
    product.  Applying or not applying the 1% filter before calling this
    is exactly the pushdown rung of the ladder.
    """
    lookup: dict[str, list[float]] = {}
    for value in list(left_values) + list(right_values):
        if value not in lookup:
            lookup[value] = model.embed(value).tolist()
    left_idx: list[int] = []
    right_idx: list[int] = []
    scores: list[float] = []
    for i, left_value in enumerate(left_values):
        a = lookup[left_value]
        for j, right_value in enumerate(right_values):
            b = lookup[right_value]
            total = 0.0
            for k in range(len(a)):
                total += a[k] * b[k]
            if total >= threshold:
                left_idx.append(i)
                right_idx.append(j)
                scores.append(total)
    return (np.asarray(left_idx, dtype=np.int64),
            np.asarray(right_idx, dtype=np.int64),
            np.asarray(scores, dtype=np.float32))


def join_prefetched(left_values: Sequence[str], right_values: Sequence[str],
                    model: EmbeddingModel, threshold: float) -> JoinPairs:
    """Prefetched join: embeddings fetched once into contiguous matrices.

    Still a Python double loop, but each pair is one ``np.dot`` over rows
    already resident in cache-friendly storage — the "prefetch" rung.
    """
    left_matrix = model.embed_batch(list(left_values))
    right_matrix = model.embed_batch(list(right_values))
    left_idx: list[int] = []
    right_idx: list[int] = []
    scores: list[float] = []
    for i in range(left_matrix.shape[0]):
        row = left_matrix[i]
        for j in range(right_matrix.shape[0]):
            score = float(np.dot(row, right_matrix[j]))
            if score >= threshold:
                left_idx.append(i)
                right_idx.append(j)
                scores.append(score)
    return (np.asarray(left_idx, dtype=np.int64),
            np.asarray(right_idx, dtype=np.int64),
            np.asarray(scores, dtype=np.float32))


def join_rowkernel(left_matrix: np.ndarray, right_matrix: np.ndarray,
                   threshold: float) -> JoinPairs:
    """Tight-code join: one vectorized kernel call per left row (GEMV)."""
    left_idx: list[np.ndarray] = []
    right_idx: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    right_t = np.ascontiguousarray(right_matrix.T)
    for i in range(left_matrix.shape[0]):
        row_scores = left_matrix[i] @ right_t
        matches = np.nonzero(row_scores >= threshold)[0]
        if matches.shape[0]:
            left_idx.append(np.full(matches.shape[0], i, dtype=np.int64))
            right_idx.append(matches.astype(np.int64))
            scores.append(row_scores[matches].astype(np.float32))
    if not left_idx:
        return _empty_pairs()
    return (np.concatenate(left_idx), np.concatenate(right_idx),
            np.concatenate(scores))


def join_blocked(left_matrix: np.ndarray, right_matrix: np.ndarray,
                 threshold: float, block: int = DEFAULT_BLOCK) -> JoinPairs:
    """Blocked GEMM join: float32 matrix multiply per block pair ("SIMD")."""
    left_matrix = np.ascontiguousarray(left_matrix, dtype=np.float32)
    right_t = np.ascontiguousarray(right_matrix.astype(np.float32).T)
    left_idx: list[np.ndarray] = []
    right_idx: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    for start in range(0, left_matrix.shape[0], block):
        stop = min(start + block, left_matrix.shape[0])
        similarity = left_matrix[start:stop] @ right_t
        rows, cols, vals = threshold_pairs(similarity, threshold)
        if rows.shape[0]:
            left_idx.append(rows.astype(np.int64) + start)
            right_idx.append(cols.astype(np.int64))
            scores.append(vals.astype(np.float32))
    if not left_idx:
        return _empty_pairs()
    return (np.concatenate(left_idx), np.concatenate(right_idx),
            np.concatenate(scores))


def join_index(left_matrix: np.ndarray, index: VectorIndex,
               threshold: float) -> JoinPairs:
    """Index-accelerated join: range-probe a built index over the right
    side once per left row (§V index-based access path).

    The caller builds ``index`` (any :mod:`repro.vector` index), so one
    build can be timed apart from, or amortized across, its probes.
    """
    left_idx: list[np.ndarray] = []
    right_idx: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    for i in range(left_matrix.shape[0]):
        result = index.range_search(left_matrix[i], threshold)
        if len(result):
            left_idx.append(np.full(len(result), i, dtype=np.int64))
            right_idx.append(result.ids)
            scores.append(result.scores.astype(np.float32))
    if not left_idx:
        return _empty_pairs()
    return (np.concatenate(left_idx), np.concatenate(right_idx),
            np.concatenate(scores))


def expand_index_matches(left_idx: np.ndarray, index_ids: np.ndarray,
                         scores: np.ndarray, positions: np.ndarray,
                         n_index: int, return_pair_index: bool = False
                         ) -> tuple[np.ndarray, ...]:
    """Scatter matches against distinct embeddings back onto caller value
    positions.

    ``positions[v]`` is the id of the distinct arena row holding value
    position ``v``'s embedding — the inverse of ``np.unique`` over the
    values' arena row ids, as the top-k semantic join computes it.
    Duplicated — or normalization-collapsed — values share one id, so
    treating matched ids as value positions would silently mispair rows
    whenever that sharing occurs.  Here every match against id ``q``
    (``n_index`` distinct ids) expands to all value positions mapped to
    ``q``; the 1:1 case reduces to a pure gather.

    With ``return_pair_index`` a fourth array maps each output pair back
    to the input-match position it expanded from (per-pair metadata —
    e.g. the reuse subsystem's top-k ranks — rides along through it).
    """
    left_idx = np.asarray(left_idx, dtype=np.int64)
    index_ids = np.asarray(index_ids, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    if left_idx.shape[0] == 0:
        if return_pair_index:
            return (*_empty_pairs(), np.empty(0, dtype=np.int64))
        return _empty_pairs()
    counts = np.bincount(positions, minlength=n_index)
    order = np.argsort(positions, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    sizes = counts[index_ids]
    if (sizes == 1).all():
        result = (left_idx, order[starts[index_ids]],
                  scores.astype(np.float32))
        if return_pair_index:
            return (*result, np.arange(left_idx.shape[0], dtype=np.int64))
        return result
    total = int(sizes.sum())
    block_starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    offsets = (np.arange(total, dtype=np.int64)
               - np.repeat(block_starts, sizes))
    value_idx = order[np.repeat(starts[index_ids], sizes) + offsets]
    expanded = (np.repeat(left_idx, sizes), value_idx,
                np.repeat(scores.astype(np.float32), sizes))
    if return_pair_index:
        return (*expanded,
                np.repeat(np.arange(left_idx.shape[0], dtype=np.int64),
                          sizes))
    return expanded


def join_quantized_reranked(left_matrix: np.ndarray,
                            right_matrix: np.ndarray,
                            threshold: float) -> JoinPairs:
    """Low-precision candidate generation + exact re-rank (§VI).

    The int8 pass (4x smaller matrices) over-generates candidates with a
    guard band, then only the candidate pairs are re-scored in float32 —
    the standard low-precision-inference recipe, with exactness preserved.
    """
    from repro.vector.quantization import join_quantized, quantize_rows

    ql = quantize_rows(left_matrix, assume_normalized=True)
    qr = quantize_rows(right_matrix, assume_normalized=True)
    li, ri, _ = join_quantized(ql, qr, threshold)
    if li.shape[0] == 0:
        return _empty_pairs()
    exact = np.einsum("nd,nd->n",
                      left_matrix[li].astype(np.float32),
                      right_matrix[ri].astype(np.float32))
    keep = exact >= threshold
    return (li[keep], ri[keep], exact[keep].astype(np.float32))

