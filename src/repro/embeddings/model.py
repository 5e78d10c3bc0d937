"""The embedding model: word vectors + hashed subword vectors (fastText-like).

A model is immutable once built.  It exposes a tiny, engine-facing API:
``embed`` / ``embed_batch`` map strings into the latent space, and
``most_similar`` answers vocabulary-restricted nearest-neighbour queries
(used to regenerate the paper's Table I).

The model also counts how many tokens it embedded (``tokens_embedded``),
which the optimizer's cost model and the Figure-4 prefetch experiment use
to attribute model-inference work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import ModelError
from repro.embeddings.subword import (
    DEFAULT_BUCKETS,
    DEFAULT_MAX_N,
    DEFAULT_MIN_N,
    fnv1a,
    subword_ids,
    subword_ids_batch,
)
from repro.utils.rng import make_rng
from repro.utils.text import normalize_token


def fit_bucket_vectors(
    vocab: dict[str, int],
    word_vectors: np.ndarray,
    buckets: int,
    min_n: int = DEFAULT_MIN_N,
    max_n: int = DEFAULT_MAX_N,
) -> np.ndarray:
    """Derive subword bucket vectors from finished word vectors.

    Each bucket receives the mean of the vectors of every vocabulary word
    containing an n-gram hashing into it.  A word's mean-of-grams then
    reconstructs (approximately) its own vector, and an out-of-vocabulary
    misspelling — sharing most n-grams with the intended word — lands close
    to it.  This mirrors how fastText's trained subword vectors behave
    without requiring subword-level training.
    """
    dim = word_vectors.shape[1]
    sums = np.zeros((buckets, dim), dtype=np.float64)
    counts = np.zeros(buckets, dtype=np.int64)
    for word, index in vocab.items():
        ids = subword_ids(word, buckets, min_n, max_n)
        if ids.size == 0:
            continue
        np.add.at(sums, ids, word_vectors[index])
        np.add.at(counts, ids, 1)
    nonzero = counts > 0
    sums[nonzero] /= counts[nonzero, None]
    return sums.astype(np.float32)


@dataclass
class EmbeddingModel:
    """fastText-style embedding model.

    Parameters
    ----------
    name:
        Registry name (referenced by queries as ``USING MODEL name``).
    vocab:
        word -> row index into ``word_vectors``.  Multi-word phrases are
        legal vocabulary entries (``"golden retriever"``).
    word_vectors:
        ``(V, dim)`` float32 matrix.
    bucket_vectors:
        ``(buckets, dim)`` float32 matrix of hashed subword vectors.
    subword_weight:
        Mixing weight of the subword mean for *in-vocabulary* words
        (out-of-vocabulary words always use subwords alone).
    """

    name: str
    vocab: dict[str, int]
    word_vectors: np.ndarray
    bucket_vectors: np.ndarray
    min_n: int = DEFAULT_MIN_N
    max_n: int = DEFAULT_MAX_N
    subword_weight: float = 0.3
    tokens_embedded: int = field(default=0, repr=False)
    _vocab_matrix: np.ndarray | None = field(default=None, repr=False)
    _vocab_words: list[str] | None = field(default=None, repr=False)
    _vocab_raw: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.word_vectors.ndim != 2:
            raise ModelError("word_vectors must be a (V, dim) matrix")
        if len(self.vocab) != self.word_vectors.shape[0]:
            raise ModelError(
                f"vocab size {len(self.vocab)} != word_vectors rows "
                f"{self.word_vectors.shape[0]}"
            )
        if self.bucket_vectors.shape[1] != self.dim:
            raise ModelError("bucket_vectors dim mismatch")

    @property
    def dim(self) -> int:
        """Dimensionality of the latent space."""
        return int(self.word_vectors.shape[1])

    @property
    def buckets(self) -> int:
        return int(self.bucket_vectors.shape[0])

    def __contains__(self, word: str) -> bool:
        return normalize_token(word) in self.vocab

    def __len__(self) -> int:
        return len(self.vocab)

    # ------------------------------------------------------------------
    # Embedding
    # ------------------------------------------------------------------
    def embed(self, text: str) -> np.ndarray:
        """Embed one string into a unit vector of shape ``(dim,)``."""
        self.tokens_embedded += 1
        vector = self._raw_vector(normalize_token(text))
        return _unit(vector)

    def embed_batch(self, texts: Iterable[str]) -> np.ndarray:
        """Embed a sequence of strings into a ``(n, dim)`` float32 matrix.

        This is the vectorized hot path: tokens are normalized and
        deduplicated once, partitioned into in-vocabulary / multi-word /
        out-of-vocabulary groups, and each group is embedded with a
        handful of NumPy kernel calls (one fancy-index gather for vocab
        rows, one flattened segment-sum for all subword means, one
        normalization pass over the whole batch).  Per-string ``embed``
        calls remain the documented slow path the paper's Figure-4
        baseline rungs measure.
        """
        tokens = [normalize_token(text) for text in texts]
        first_seen: dict[str, int] = {}
        inverse = np.empty(len(tokens), dtype=np.int64)
        unique: list[str] = []
        for position, token in enumerate(tokens):
            uid = first_seen.get(token)
            if uid is None:
                uid = len(unique)
                first_seen[token] = uid
                unique.append(token)
            inverse[position] = uid
        rows = _unit_rows(self._raw_vectors_batch(unique))
        self.tokens_embedded += len(unique)
        if len(unique) == len(tokens):
            return rows
        return rows[inverse]

    def similarity(self, text_a: str, text_b: str) -> float:
        """Cosine similarity of two strings in latent space."""
        return float(np.dot(self.embed(text_a), self.embed(text_b)))

    # ------------------------------------------------------------------
    # Vocabulary-restricted nearest neighbours (Table I)
    # ------------------------------------------------------------------
    def most_similar(
        self,
        query: str,
        k: int = 10,
        candidates: list[str] | None = None,
        exclude_self: bool = True,
    ) -> list[tuple[str, float]]:
        """Top-``k`` most cosine-similar words.

        Searches the model vocabulary, or ``candidates`` when given.
        ``exclude_self`` drops an exact (normalized) match of the query
        string itself, as is conventional for word-similarity listings.
        """
        query_token = normalize_token(query)
        query_vector = self.embed(query_token)
        if candidates is None:
            words = self._vocabulary_words()
            matrix = self._vocabulary_matrix()
        else:
            words = [normalize_token(c) for c in candidates]
            matrix = self.embed_batch(words)
        scores = matrix @ query_vector
        from repro.vector.topk import top_k_indices

        # argpartition-backed selection: fetch k (+1 for a possible
        # self-match) instead of sorting the whole vocabulary; widen only
        # in the rare case duplicates of the query crowd the cut.
        fetch = k + 1 if exclude_self else k
        results: list[tuple[str, float]] = []
        while True:
            order = top_k_indices(scores, fetch)
            results.clear()
            for index in order:
                word = words[int(index)]
                if exclude_self and word == query_token:
                    continue
                results.append((word, float(scores[int(index)])))
                if len(results) == k:
                    break
            if len(results) >= k or order.shape[0] >= scores.shape[0]:
                return results
            fetch = min(scores.shape[0], fetch * 2)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _raw_vector(self, token: str) -> np.ndarray:
        index = self.vocab.get(token)
        if index is not None:
            vector = self.word_vectors[index].astype(np.float32)
            if self.subword_weight > 0.0:
                ids = subword_ids(token, self.buckets, self.min_n, self.max_n)
                if ids.size:
                    subword_mean = self.bucket_vectors[ids].mean(axis=0)
                    vector = ((1.0 - self.subword_weight) * vector
                              + self.subword_weight * subword_mean)
            return vector
        parts = token.split()
        if len(parts) > 1:
            return np.mean([self._raw_vector(part) for part in parts], axis=0)
        ids = subword_ids(token, self.buckets, self.min_n, self.max_n)
        if ids.size:
            vector = self.bucket_vectors[ids].mean(axis=0)
            if float(np.abs(vector).max(initial=0.0)) > 0.0:
                return vector
        return self._fallback_vector(token)

    def _raw_vectors_batch(self, tokens: list[str]) -> np.ndarray:
        """Raw (pre-normalization) vectors for distinct tokens, batched.

        Semantically equivalent to ``[self._raw_vector(t) for t in
        tokens]`` but grouped so the whole batch needs O(groups) NumPy
        calls instead of O(tokens) Python round-trips.  Vocabulary
        entries are one gather from the per-model memo
        (:meth:`_vocabulary_raw`); only out-of-vocabulary words hash
        n-grams.  Multi-word phrases recurse one level onto their
        (single-word) parts, so repeated parts across phrases are
        embedded once.
        """
        rows = np.zeros((len(tokens), self.dim), dtype=np.float64)
        vocab_pos: list[int] = []
        vocab_idx: list[int] = []
        multi_pos: list[int] = []
        oov_pos: list[int] = []
        for position, token in enumerate(tokens):
            index = self.vocab.get(token)
            if index is not None:
                vocab_pos.append(position)
                vocab_idx.append(index)
            elif " " in token:
                multi_pos.append(position)
            else:
                oov_pos.append(position)

        if vocab_pos:
            rows[np.asarray(vocab_pos)] = self._vocabulary_raw()[
                np.asarray(vocab_idx)]

        if oov_pos:
            means, has_grams = self._subword_means(
                [tokens[p] for p in oov_pos])
            usable = has_grams & (np.abs(means).max(axis=1) > 0.0)
            positions = np.asarray(oov_pos)
            rows[positions[usable]] = means[usable]
            for position in positions[~usable]:
                rows[position] = self._fallback_vector(tokens[position])

        if multi_pos:
            part_of: dict[str, int] = {}
            parts: list[str] = []
            owners: list[int] = []
            refs: list[int] = []
            for owner, position in enumerate(multi_pos):
                for part in tokens[position].split():
                    ref = part_of.get(part)
                    if ref is None:
                        ref = len(parts)
                        part_of[part] = ref
                        parts.append(part)
                    owners.append(owner)
                    refs.append(ref)
            # float32 like the scalar path's np.mean over raw vectors;
            # also halves the gather/segment-sum memory traffic
            part_rows = self._raw_vectors_batch(parts).astype(np.float32)
            sums, counts = _segment_sums(
                part_rows, np.asarray(refs, dtype=np.int64),
                np.asarray(owners, dtype=np.int64), len(multi_pos))
            rows[np.asarray(multi_pos)] = sums / counts[:, None]
        return rows

    def _subword_means(self,
                       words: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Mean subword-bucket vector per word, as one segment-sum.

        Returns ``(means, has_grams)`` where ``means`` is ``(n, dim)``
        float64 (zero rows where a word produced no n-grams) and
        ``has_grams`` flags words with at least one gram.
        """
        ids, owners = subword_ids_batch(words, self.buckets, self.min_n,
                                        self.max_n)
        sums, counts = _segment_sums(self.bucket_vectors, ids, owners,
                                     len(words))
        has_grams = counts > 0
        sums[has_grams] /= counts[has_grams, None]
        return sums, has_grams

    def _fallback_vector(self, token: str) -> np.ndarray:
        """Deterministic pseudo-random unit vector for fully unknown input."""
        rng = make_rng(fnv1a(token) % (2**63 - 1))
        vector = rng.standard_normal(self.dim).astype(np.float32)
        return vector

    def _vocabulary_words(self) -> list[str]:
        if self._vocab_words is None:
            self._vocab_words = [None] * len(self.vocab)  # type: ignore[list-item]
            for word, index in self.vocab.items():
                self._vocab_words[index] = word
        return self._vocab_words

    def _vocabulary_raw(self) -> np.ndarray:
        """Raw vector of every vocabulary entry, ``(V, dim)`` float64.

        Built once per model with the batch arithmetic every known word
        used to repeat per batch: the word vector, mixed with its
        subword mean at ``subword_weight`` where the word has grams.  A
        word's gram order and segment sum do not depend on the batch it
        is hashed in, so a row is bit-identical to hashing that word
        anywhere.  Two racing first calls may both build it; the copies
        are identical, so the last assignment wins harmlessly.
        """
        if self._vocab_raw is None:
            raw = self.word_vectors.astype(np.float64)
            if self.subword_weight > 0.0:
                means, has_grams = self._subword_means(
                    self._vocabulary_words())
                weight = self.subword_weight
                raw[has_grams] = ((1.0 - weight) * raw[has_grams]
                                  + weight * means[has_grams])
            self._vocab_raw = raw
        return self._vocab_raw

    def _vocabulary_matrix(self) -> np.ndarray:
        if self._vocab_matrix is None:
            words = self._vocabulary_words()
            self._vocab_matrix = self.embed_batch(words)
        return self._vocab_matrix


def _segment_sums(source: np.ndarray, indices: np.ndarray,
                  owners: np.ndarray, n_segments: int,
                  chunk: int = 1 << 16) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment sums of ``source[indices]`` grouped by sorted ``owners``.

    ``owners`` must be nondecreasing (as :func:`subword_ids_batch`
    guarantees), which allows ``np.add.reduceat`` over contiguous
    segments — orders of magnitude faster than the unbuffered
    ``np.ufunc.at``.  Gathers are chunked (``chunk`` rows at a time,
    aligned to segment boundaries) so the float64 working set stays
    bounded for very large batches.

    Returns ``(sums, counts)``: ``(n_segments, dim)`` float64 sums (zero
    rows for absent segments) and the per-segment element counts.
    """
    sums = np.zeros((n_segments, source.shape[1]), dtype=np.float64)
    counts = np.bincount(owners, minlength=n_segments)
    if indices.size == 0:
        return sums, counts
    present = np.nonzero(counts)[0]
    bounds = np.concatenate(
        ([0], np.cumsum(counts[present], dtype=np.int64)))
    segment = 0
    while segment < present.size:
        stop = int(np.searchsorted(bounds, bounds[segment] + chunk,
                                   side="left"))
        stop = min(max(stop, segment + 1), present.size)
        low, high = int(bounds[segment]), int(bounds[stop])
        block = source[indices[low:high]]
        starts = (bounds[segment:stop] - low).astype(np.intp)
        # native-dtype accumulation (float32 for bucket vectors) keeps
        # reduceat memory-bound; the scalar path's np.mean accumulates in
        # float32 too, so this matches its precision envelope.
        sums[present[segment:stop]] = np.add.reduceat(block, starts, axis=0)
        segment = stop
    return sums, counts


def _unit(vector: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        result = np.zeros_like(vector, dtype=np.float32)
        result[0] = 1.0
        return result
    return (vector / norm).astype(np.float32)


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-normalize a matrix in one pass (batch analogue of ``_unit``).

    Zero rows map to the first basis vector, matching ``_unit``.
    """
    norms = np.linalg.norm(matrix, axis=1)
    zero = norms == 0.0
    if zero.any():
        matrix = matrix.copy()
        matrix[zero] = 0.0
        matrix[zero, 0] = 1.0
        norms = np.where(zero, 1.0, norms)
    return (matrix / norms[:, None]).astype(np.float32)
