"""Top-k semantic join: each probe row matches its k most similar keys.

The threshold join (Figure 4) answers "all pairs above tau"; many
context-rich pipelines instead want "the best k matches per row" (the §V
"top-k searches" the paper says must join the optimization process),
exact, by one GEMM.
"""

from __future__ import annotations

import numpy as np

from repro.vector.topk import top_k_indices

JoinPairs = tuple[np.ndarray, np.ndarray, np.ndarray]


def join_topk(left_matrix: np.ndarray, right_matrix: np.ndarray, k: int,
              min_score: float = -1.0) -> JoinPairs:
    """Exact top-k join via one GEMM; optional score floor.

    The top-k selection runs batched over all probe rows at once
    (``np.argpartition(axis=1)`` + ``take_along_axis``), not row by row.
    """
    similarity = left_matrix @ right_matrix.T
    n_left, n_right = similarity.shape
    k = min(int(k), n_right)
    if k <= 0 or n_left == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.float32))
    if k == n_right:
        top = np.argsort(-similarity, axis=1, kind="stable")
    else:
        candidates = np.argpartition(-similarity, k - 1, axis=1)[:, :k]
        candidate_scores = np.take_along_axis(similarity, candidates,
                                              axis=1)
        order = np.argsort(-candidate_scores, axis=1, kind="stable")
        top = np.take_along_axis(candidates, order, axis=1)
    top_scores = np.take_along_axis(similarity, top, axis=1)
    keep = (top_scores >= min_score).ravel()
    left_idx = np.repeat(np.arange(n_left, dtype=np.int64), k)[keep]
    right_idx = top.ravel()[keep].astype(np.int64)
    scores = top_scores.ravel()[keep].astype(np.float32)
    return left_idx, right_idx, scores

