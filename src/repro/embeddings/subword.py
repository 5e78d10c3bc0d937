"""Hashed character n-gram (subword) machinery, as in fastText.

fastText represents a word as the sum of its word vector and the vectors of
its character n-grams, each n-gram hashed into a fixed number of buckets.
The hash must be deterministic across processes, so we use FNV-1a rather
than Python's randomized ``hash()``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.utils.text import ngrams

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: fastText defaults: n-grams of length 3..5.
DEFAULT_MIN_N = 3
DEFAULT_MAX_N = 5
#: Number of hash buckets for subword vectors (prime, to spread collisions).
DEFAULT_BUCKETS = 20011


def fnv1a(text: str) -> int:
    """64-bit FNV-1a hash of ``text`` (deterministic across runs)."""
    value = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def fnv1a_batch(texts: Sequence[str]) -> np.ndarray:
    """64-bit FNV-1a of every string in ``texts``, as a ``uint64`` array.

    Bit-identical to :func:`fnv1a`, but the per-byte mix runs as NumPy
    ``uint64`` array ops (wrapping multiply == mod 2**64): strings are
    grouped by encoded length and each group is hashed with one xor/mul
    pair per byte *position* instead of per byte — the batch subword
    kernel's replacement for millions of interpreted-Python hash loops.
    """
    count = len(texts)
    out = np.empty(count, dtype=np.uint64)
    if count == 0:
        return out
    encoded = [text.encode("utf-8") for text in texts]
    lengths = np.fromiter((len(raw) for raw in encoded),
                          dtype=np.int64, count=count)
    order = np.argsort(lengths, kind="stable")
    ordered = [encoded[i] for i in order.tolist()]
    sorted_lengths = lengths[order]
    # group by the lengths that actually occur (one long string must not
    # cost an O(max_len) scan over empty groups)
    distinct = np.unique(lengths)
    group_starts = np.searchsorted(sorted_lengths, distinct, side="left")
    group_stops = np.searchsorted(sorted_lengths, distinct, side="right")
    prime = np.uint64(_FNV_PRIME)
    for length, start, stop in zip(distinct.tolist(),
                                   group_starts.tolist(),
                                   group_stops.tolist()):
        if length == 0:
            out[order[start:stop]] = np.uint64(_FNV_OFFSET)
            continue
        stacked = np.frombuffer(
            b"".join(ordered[start:stop]), dtype=np.uint8
        ).reshape(stop - start, length).astype(np.uint64)
        value = np.full(stop - start, _FNV_OFFSET, dtype=np.uint64)
        for position in range(length):
            value ^= stacked[:, position]
            value *= prime
        out[order[start:stop]] = value
    return out


def subword_ids(
    word: str,
    buckets: int = DEFAULT_BUCKETS,
    min_n: int = DEFAULT_MIN_N,
    max_n: int = DEFAULT_MAX_N,
) -> np.ndarray:
    """Bucket ids of the character n-grams of ``word``.

    Returns an ``int64`` array (possibly empty for very short words).
    Multi-word phrases hash each word's grams independently, mirroring how
    fastText treats tokens.
    """
    ids: list[int] = []
    for part in word.split():
        for gram in ngrams(part, min_n, max_n):
            ids.append(fnv1a(gram) % buckets)
    return np.asarray(ids, dtype=np.int64)


def subword_ids_batch(
    words: Iterable[str],
    buckets: int = DEFAULT_BUCKETS,
    min_n: int = DEFAULT_MIN_N,
    max_n: int = DEFAULT_MAX_N,
) -> tuple[np.ndarray, np.ndarray]:
    """Bucket ids of the n-grams of every word, flattened across the batch.

    Returns ``(ids, owners)``: equal-length ``int64`` arrays where
    ``ids[k]`` is a bucket id and ``owners[k]`` the index into ``words``
    of the token that produced it.  The flattened ``(token, gram)`` layout
    feeds segment-sum kernels (``np.add.reduceat`` + ``np.bincount``) so a
    whole batch's subword means come out of a handful of vectorized calls.
    ``owners`` is nondecreasing, which is what lets callers segment-sum
    with ``reduceat`` instead of the much slower unbuffered ``np.add.at``.
    Within one word the grams form the same *multiset* :func:`subword_ids`
    yields but may be ordered differently (the ASCII fast path hashes all
    windows of one size across the batch at once); segment sums and means
    are order-insensitive, so callers must not rely on gram order.

    ASCII parts (the overwhelming case) are hashed without materializing
    per-gram strings at all: each decorated part is encoded once into a
    shared byte buffer and every n-gram window is hashed with NumPy
    ``uint64`` gathers over it.
    """
    ascii_parts: list[bytes] = []
    ascii_owner: list[int] = []
    slow_grams: list[str] = []
    slow_counts: list[int] = []
    slow_owner: list[int] = []
    for index, word in enumerate(words):
        for part in word.split():
            if part.isascii():
                ascii_parts.append(b"<%s>" % part.encode("ascii"))
                ascii_owner.append(index)
            else:
                # byte windows != char windows for multibyte UTF-8; hash
                # these (rare) parts gram-by-gram like subword_ids does.
                grams = ngrams(part, min_n, max_n)
                slow_grams.extend(grams)
                slow_counts.append(len(grams))
                slow_owner.append(index)

    ids_chunks: list[np.ndarray] = []
    owner_chunks: list[np.ndarray] = []
    bucket_count = np.uint64(buckets)
    if ascii_parts:
        lengths = np.fromiter((len(p) for p in ascii_parts),
                              dtype=np.int64, count=len(ascii_parts))
        buffer = np.frombuffer(b"".join(ascii_parts),
                               dtype=np.uint8).astype(np.uint64)
        part_starts = np.concatenate(
            ([0], np.cumsum(lengths)))[:-1]
        part_owner = np.asarray(ascii_owner, dtype=np.int64)
        prime = np.uint64(_FNV_PRIME)
        for size in range(min_n, max_n + 1):
            per_part = np.maximum(lengths - size + 1, 0)
            total = int(per_part.sum())
            if total == 0:
                continue
            gram_offsets = np.concatenate(
                ([0], np.cumsum(per_part)))[:-1]
            intra = (np.arange(total, dtype=np.int64)
                     - np.repeat(gram_offsets, per_part))
            window_starts = np.repeat(part_starts, per_part) + intra
            value = np.full(total, _FNV_OFFSET, dtype=np.uint64)
            for position in range(size):
                value ^= buffer[window_starts + position]
                value *= prime
            ids_chunks.append((value % bucket_count).astype(np.int64))
            owner_chunks.append(np.repeat(part_owner, per_part))
    if slow_grams:
        ids_chunks.append(
            (fnv1a_batch(slow_grams) % bucket_count).astype(np.int64))
        owner_chunks.append(np.repeat(
            np.asarray(slow_owner, dtype=np.int64),
            np.asarray(slow_counts, dtype=np.int64)))
    if not ids_chunks:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    ids = np.concatenate(ids_chunks)
    owners = np.concatenate(owner_chunks)
    order = np.argsort(owners, kind="stable")
    return ids[order], owners[order]


def shared_gram_fraction(word_a: str, word_b: str, min_n: int = DEFAULT_MIN_N,
                         max_n: int = DEFAULT_MAX_N) -> float:
    """Jaccard overlap of the n-gram sets of two words.

    Used by tests to check that misspellings genuinely share most subwords
    with their source word, which is what makes OOV embedding work.
    """
    grams_a = set(ngrams(word_a, min_n, max_n))
    grams_b = set(ngrams(word_b, min_n, max_n))
    if not grams_a and not grams_b:
        return 1.0
    union = grams_a | grams_b
    return len(grams_a & grams_b) / len(union)
