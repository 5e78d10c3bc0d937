"""The estimator's cheap statistics reads equal the ones they replaced.

Planning cost is per statement, so the semantic sample and the
histogram range fraction were made cheap: the sample draws its picks
over non-null positions memoized on the base table instead of copying
the column into a Python list, and the histogram fraction reads cached
Python floats and visits only the bins that overlap the range.  Every
estimate — and so every optimizer decision — must stay bit-identical.
These properties compare both reads with the old forms
(``tests/reference_operators.py``) using ``==``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_operators import (
    reference_histogram_fraction,
    reference_sample_values,
)
from repro.optimizer.cardinality import CardinalityEstimator
from repro.relational.logical import ScanNode
from repro.storage.catalog import Catalog
from repro.storage.schema import Field, Schema
from repro.storage.statistics import ColumnStats
from repro.storage.table import Table
from repro.storage.types import DataType

WORDS = st.sampled_from(["shoes", "parka", "sedan", "kitten", "apple",
                         "blazer", "van", "pear"])


def estimator_over(table: Table, sample_size: int, seed: int
                   ) -> CardinalityEstimator:
    catalog = Catalog()
    catalog.register("t", table)
    return CardinalityEstimator(catalog, sample_size=sample_size, seed=seed)


def string_table(values: list[str | None]) -> Table:
    return Table(Schema([Field("s", DataType.STRING)]),
                 {"s": np.array(values, dtype=object)})


class TestSampleColumn:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.one_of(st.none(), WORDS), max_size=40),
           sample_size=st.integers(1, 16), seed=st.integers(0, 2**16),
           qualifier=st.sampled_from([None, "x"]))
    def test_strings_with_nulls(self, values, sample_size, seed,
                                qualifier):
        """Lengths below, at and above ``sample_size``, ``None`` at
        random positions, plain and qualified scans."""
        table = string_table(values)
        estimator = estimator_over(table, sample_size, seed)
        scan = ScanNode("t", table.schema, qualifier=qualifier)
        column = "x.s" if qualifier else "s"
        expected = reference_sample_values(table.columns["s"],
                                           sample_size, seed)
        assert estimator._sample_column(column, scan) == expected
        # the memoized positions serve the next estimate identically
        assert estimator._sample_column(column, scan) == expected

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.integers(-1000, 1000), min_size=1,
                           max_size=40),
           sample_size=st.integers(1, 16), seed=st.integers(0, 2**16))
    def test_numeric_columns(self, values, sample_size, seed):
        table = Table.from_dict({"n": values})
        estimator = estimator_over(table, sample_size, seed)
        sampled = estimator._sample_column("n", ScanNode("t", table.schema))
        expected = reference_sample_values(table.columns["n"],
                                           sample_size, seed)
        assert sampled == expected
        assert [type(v) for v in sampled] == [type(v) for v in expected]

    def test_exact_sample_size_boundary(self):
        values = ["shoes", None, "parka", "van", None, "pear"]
        for sample_size in (3, 4, 5):
            table = string_table(values)
            estimator = estimator_over(table, sample_size, seed=97)
            assert estimator._sample_column(
                "s", ScanNode("t", table.schema)) == \
                reference_sample_values(table.columns["s"], sample_size, 97)

    def test_unknown_column_samples_nothing(self):
        table = string_table(["shoes"])
        estimator = estimator_over(table, 4, seed=1)
        assert estimator._sample_column(
            "missing", ScanNode("t", table.schema)) == []

    def test_positions_memo_is_per_table(self):
        table = string_table(["shoes", None, "van"])
        first = table.non_null_positions("s")
        assert first.tolist() == [0, 2]
        assert table.non_null_positions("s") is first
        grown = Table.concat([table, string_table([None, "pear"])])
        assert grown.non_null_positions("s").tolist() == [0, 2, 4]


@st.composite
def histograms(draw):
    """Sorted edges (duplicates make zero-width bins) plus counts."""
    bins = draw(st.integers(1, 8))
    edges = sorted(draw(st.lists(
        st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                  st.sampled_from([0.0, 1.0, 2.5])),
        min_size=bins + 1, max_size=bins + 1)))
    counts = draw(st.lists(st.integers(0, 10_000), min_size=bins,
                           max_size=bins))
    return (np.asarray(counts, dtype=np.int64),
            np.asarray(edges, dtype=np.float64))


BOUNDS = st.one_of(st.none(), st.floats(-2e6, 2e6),
                   st.sampled_from([0.0, 1.0, 2.5, float("inf"),
                                    float("-inf"), float("nan")]))


def column_stats(histogram: np.ndarray, edges: np.ndarray) -> ColumnStats:
    return ColumnStats("c", DataType.FLOAT64, count=int(histogram.sum()),
                       null_count=0, distinct=len(histogram),
                       min_value=float(edges[0]),
                       max_value=float(edges[-1]), histogram=histogram,
                       bin_edges=edges)


class TestHistogramFraction:
    @settings(max_examples=400, deadline=None)
    @given(histogram=histograms(), low=BOUNDS, high=BOUNDS)
    def test_bit_identical_to_every_bin_loop(self, histogram, low, high):
        """Zero-width bins, ``None`` bounds, ranges outside the edges,
        empty and inverted ranges."""
        counts, edges = histogram
        stats = column_stats(counts, edges)
        expected = reference_histogram_fraction(counts, edges, low, high)
        assert stats._histogram_fraction(low, high) == expected
        # a second read goes through the cached floats
        assert stats._histogram_fraction(low, high) == expected

    def test_reassigned_arrays_are_reread(self):
        counts = np.asarray([5, 5], dtype=np.int64)
        edges = np.asarray([0.0, 1.0, 2.0])
        stats = column_stats(counts, edges)
        assert stats._histogram_fraction(None, 1.0) == 0.5
        # merge_table_stats assigns fresh arrays after construction
        stats.histogram = np.asarray([5, 15], dtype=np.int64)
        assert stats._histogram_fraction(None, 1.0) == \
            reference_histogram_fraction(stats.histogram, edges, None, 1.0)
        assert stats._histogram_fraction(None, 1.0) == 0.25
