"""The cold semantic path stays bit-identical to the code it replaced.

Three per-batch costs moved out of the path every cold statement runs:
known words come from a per-model raw-vector memo instead of re-hashing
their n-grams, leader clustering scores against a contiguous leader
buffer, and join keys group into one row array plus offsets.  Each is
checked here against the replaced code (``tests/reference_operators.py``)
or a naive reference, with ``np.array_equal`` — not a tolerance.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_operators import (
    reference_cluster_strings,
    reference_embed_batch,
)

from repro.embeddings.model import EmbeddingModel
from repro.semantic.groupby import cluster_strings
from repro.semantic.operators import RowGroups, _expand_pairs, _group_rows

SETTINGS = settings(deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _fresh(model: EmbeddingModel,
           subword_weight: float | None = None) -> EmbeddingModel:
    """A model sharing ``model``'s arrays with no memo built yet."""
    return EmbeddingModel(
        model.name, model.vocab, model.word_vectors, model.bucket_vectors,
        model.min_n, model.max_n,
        model.subword_weight if subword_weight is None else subword_weight)


@st.composite
def _texts(draw, words: list[str], phrases: list[str]) -> str:
    kind = draw(st.sampled_from(
        ["word", "phrase", "variant", "oov", "mixed", "unicode", "empty"]))
    if kind == "word":
        return draw(st.sampled_from(words))
    if kind == "phrase":
        return draw(st.sampled_from(phrases))
    if kind == "variant":   # case and whitespace around a known entry
        base = draw(st.sampled_from(words + phrases))
        spaced = "  ".join(base.split())
        return draw(st.sampled_from(
            [base.upper(), base.title(), f"  {spaced}\t", f"\n{base} "]))
    if kind == "oov":
        return draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz-'",
                            min_size=1, max_size=12))
    if kind == "mixed":     # known and unknown parts in one string
        parts = draw(st.lists(
            st.one_of(st.sampled_from(words),
                      st.text(alphabet="abcdefghijklmnopqrstuvwxyz",
                              min_size=1, max_size=8)),
            min_size=2, max_size=4))
        return " ".join(parts)
    if kind == "unicode":
        return draw(st.text(alphabet="éüßçøåñ漢字ア ab", min_size=1,
                            max_size=10))
    return draw(st.sampled_from(["", " ", "\t"]))


class TestVocabularyMemo:
    @SETTINGS
    @given(data=st.data())
    def test_embed_batch_equals_per_batch_hashing(self, model, data):
        words = sorted(w for w in model.vocab if " " not in w)
        phrases = sorted(w for w in model.vocab if " " in w)
        texts = data.draw(st.lists(_texts(words, phrases), min_size=1,
                                   max_size=60))
        # duplicates inside one batch and across batches
        texts += data.draw(st.lists(st.sampled_from(texts), max_size=10))
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(texts)), max_size=3)))
        weight = data.draw(st.sampled_from([None, 0.0]))
        subject = _fresh(model, weight)
        for start, stop in zip([0] + cuts, cuts + [len(texts)]):
            batch = texts[start:stop]
            got = subject.embed_batch(batch)
            expected = reference_embed_batch(subject, batch)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_memo_is_built_once_and_not_counted(self, model):
        subject = _fresh(model)
        subject.embed_batch(["dog", "golden retriever", "dogg"])
        memo = subject._vocab_raw
        assert memo is not None and memo.shape == (len(model), model.dim)
        assert memo.dtype == np.float64
        assert subject.tokens_embedded == 3
        subject.embed_batch(["cat"])
        assert subject._vocab_raw is memo

    def test_vocabulary_matrix_goes_through_the_memo(self, model):
        subject = _fresh(model)
        expected = reference_embed_batch(subject,
                                         subject._vocabulary_words())
        assert np.array_equal(subject._vocabulary_matrix(), expected)

    @pytest.mark.concurrency
    def test_racing_first_calls_get_identical_rows(self, model):
        words = sorted(model.vocab)
        texts = words[:80] + [f"{w} zq{i}" for i, w in enumerate(words[:40])]
        subject = _fresh(model)
        barrier = threading.Barrier(4)
        results: list[np.ndarray | None] = [None] * 4

        def first_call(slot: int) -> None:
            barrier.wait()
            results[slot] = subject.embed_batch(texts)

        threads = [threading.Thread(target=first_call, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = reference_embed_batch(subject, texts)
        for rows in results:
            assert rows is not None and np.array_equal(rows, expected)


class _MatrixCache:
    """Stands in for the arena: ``matrix`` gathers fixed rows by value."""

    def __init__(self, rows: dict[str, np.ndarray]) -> None:
        self._index = {value: i for i, value in enumerate(rows)}
        self._rows = np.stack(list(rows.values()))

    def matrix(self, texts: list[str]) -> np.ndarray:
        return self._rows[[self._index[t] for t in texts]]


class TestLeaderBuffer:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           dim=st.sampled_from([1, 3, 8, 17, 100]), near=st.sampled_from([-1, 0, 1]),
           loose=st.booleans())
    def test_clustering_equals_gather_loop(self, seed, n, dim, near, loose):
        rng = np.random.default_rng(seed)
        distinct = rng.standard_normal((max(1, n // 2), dim))
        # duplicated rows give exact ties between identical leaders
        picks = rng.integers(0, distinct.shape[0], n)
        matrix = distinct[picks]
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        matrix = matrix.astype(np.float32)
        rows = {f"v{i:02d}": matrix[i] for i in range(n)}
        values = [f"v{i:02d}" for i in rng.integers(0, n, 2 * n)]
        # a threshold on (or one ulp beside) a score the loop will meet
        score = (matrix @ matrix[int(rng.integers(0, n))])[
            int(rng.integers(0, n))]
        if near:
            score = np.nextafter(score, np.float32(near * np.inf))
        threshold = float(score) if not loose else float(score) - 0.5
        cache = _MatrixCache(rows)
        got = cluster_strings(values, cache, threshold)
        expected = reference_cluster_strings(values, cache, threshold)
        assert np.array_equal(got.labels, expected.labels)
        assert got.labels.dtype == expected.labels.dtype
        assert got.representatives == expected.representatives
        assert got.n_clusters == expected.n_clusters

    def test_every_value_its_own_leader(self):
        eye = np.eye(5, dtype=np.float32)
        cache = _MatrixCache({f"v{i}": eye[i] for i in range(5)})
        values = [f"v{i}" for i in range(5)]
        got = cluster_strings(values, cache, 0.5)
        assert got.n_clusters == 5
        assert got.representatives == values


def _naive_groups(values: list) -> tuple[list[str], list[list[int]]]:
    groups: dict[str, list[int]] = {}
    for row, value in enumerate(values):
        if value is not None:
            groups.setdefault(value, []).append(row)
    unique = sorted(groups)
    return unique, [groups[value] for value in unique]


def _group(groups: RowGroups, g: int) -> np.ndarray:
    start = int(groups.offsets[g])
    return groups.rows[start:start + int(groups.counts[g])]


class TestRowGroupOffsets:
    @settings(max_examples=200, deadline=None)
    @given(left=st.lists(st.one_of(st.none(),
                                   st.sampled_from(["a", "b", "c", "dé"])),
                         min_size=1, max_size=25),
           right=st.lists(st.one_of(st.none(),
                                    st.sampled_from(["a", "b", "x", "dé"])),
                          min_size=1, max_size=25),
           seed=st.integers(0, 2**32 - 1))
    def test_group_then_expand_equals_dict_of_lists(self, left, right,
                                                    seed):
        lu, lg = _group_rows(np.asarray(left, dtype=object))
        ru, rg = _group_rows(np.asarray(right, dtype=object))
        naive_lu, naive_lg = _naive_groups(left)
        naive_ru, naive_rg = _naive_groups(right)
        assert (lu, ru) == (naive_lu, naive_ru)
        for groups, naive in ((lg, naive_lg), (rg, naive_rg)):
            assert isinstance(groups, RowGroups)
            assert [_group(groups, g).tolist()
                    for g in range(len(naive))] == naive
        if not lu or not ru:
            return
        rng = np.random.default_rng(seed)
        pairs = int(rng.integers(1, 2 * len(lu) * len(ru) + 1))
        ul = rng.integers(0, len(lu), pairs).astype(np.int64)
        ur = rng.integers(0, len(ru), pairs).astype(np.int64)
        scores = rng.random(pairs).astype(np.float32)
        li, ri, s, pair_index = _expand_pairs(ul, ur, scores, lg, rg,
                                              return_pair_index=True)
        expected = [(lrow, rrow, float(scores[p]), p)
                    for p in range(pairs)
                    for lrow in naive_lg[int(ul[p])]
                    for rrow in naive_rg[int(ur[p])]]
        assert list(zip(li.tolist(), ri.tolist(), s.tolist(),
                        pair_index.tolist())) == expected
        assert li.dtype == ri.dtype == pair_index.dtype == np.int64
        assert s.dtype == np.float64

