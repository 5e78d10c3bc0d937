"""Vector processing substrate (paper §V, refs [20], [32]).

Distance metrics, exact (brute-force) search, and three approximate
nearest-neighbour indexes — random-hyperplane LSH, IVF-Flat, and a
lightweight HNSW graph — plus k-means and scalar quantization.  The
engine plans only exact access (``join_blocked`` / ``join_topk``); the
approximate indexes are library code the paper benches build
directly, so they load lazily on first attribute access and importing
the engine (``repro.server``) never loads them.
"""

from importlib import import_module
from typing import Any

from repro.vector.metrics import (
    cosine_matrix,
    cosine_pairs,
    cosine_similarity,
    l2_distance,
    normalize_rows,
)
from repro.vector.bruteforce import BruteForceIndex
from repro.vector.index import VectorIndex
from repro.vector.topk import top_k_indices, threshold_pairs

#: Exported name -> the module that defines it, imported on first use.
_LAZY = {
    "LSHIndex": "lsh",
    "IVFFlatIndex": "ivf",
    "HNSWIndex": "hnsw",
    "KMeans": "kmeans",
    "QuantizedMatrix": "quantization",
    "join_quantized": "quantization",
    "quantize_rows": "quantization",
    "quantized_similarity": "quantization",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


__all__ = [
    "cosine_matrix",
    "cosine_pairs",
    "cosine_similarity",
    "l2_distance",
    "normalize_rows",
    "BruteForceIndex",
    "VectorIndex",
    "top_k_indices",
    "threshold_pairs",
    *_LAZY,
]
