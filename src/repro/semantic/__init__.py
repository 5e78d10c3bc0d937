"""Model-assisted semantic operators (paper §IV).

Three operator extensions, each a first-class plan node executed like any
relational operator:

- **Semantic Select** — context-based filtering
  (``word = "Clothes" USING MODEL "M" WITH COSINE THRESHOLD >= 0.9``),
- **Semantic Join** — joining relations on join-key *context* (latent-space
  distance between key embeddings),
- **Semantic GroupBy** — on-the-fly clustering of a column by similarity
  threshold.

The join ships the full physical ladder of the paper's Figure 4 — from the
deliberately naive per-pair Python loop to prefetched, row-kernel, blocked
(BLAS) and index-accelerated variants — plus syntactic
baselines (edit distance, Jaccard) for the Figure 3 comparison.  The
engine plans and runs only the exact access paths in
``SEMANTIC_JOIN_METHODS``; the other kernels are for the paper benches.
"""

from repro.semantic.cache import EmbeddingCache
from repro.semantic.index_cache import IndexCache
from repro.semantic.join import (
    expand_index_matches,
    join_blocked,
    join_index,
    join_nested_loop,
    join_prefetched,
    join_python_eager,
    join_quantized_reranked,
    join_rowkernel,
    SEMANTIC_JOIN_METHODS,
)
from repro.semantic.select import semantic_any_mask, semantic_select_mask
from repro.semantic.groupby import cluster_strings
from repro.semantic.topk import join_topk, join_topk_index
from repro.semantic.baselines import (
    edit_similarity_join,
    jaccard_similarity,
    jaccard_similarity_join,
    levenshtein,
    normalized_edit_similarity,
)

__all__ = [
    "EmbeddingCache",
    "IndexCache",
    "expand_index_matches",
    "join_blocked",
    "join_index",
    "join_nested_loop",
    "join_prefetched",
    "join_python_eager",
    "join_quantized_reranked",
    "join_rowkernel",
    "SEMANTIC_JOIN_METHODS",
    "semantic_any_mask",
    "semantic_select_mask",
    "cluster_strings",
    "join_topk",
    "join_topk_index",
    "edit_similarity_join",
    "jaccard_similarity",
    "jaccard_similarity_join",
    "levenshtein",
    "normalized_edit_similarity",
]
