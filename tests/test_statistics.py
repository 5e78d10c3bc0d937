"""Tests for table/column statistics and selectivity estimates."""

import numpy as np
import pytest

from repro.storage.statistics import (
    compute_column_stats,
    compute_table_stats,
)
from repro.storage.table import Table
from repro.storage.types import DataType


class TestColumnStats:
    def test_numeric_basics(self):
        values = np.arange(100, dtype=np.int64)
        stats = compute_column_stats("x", DataType.INT64, values)
        assert stats.count == 100
        assert stats.distinct == 100
        assert stats.min_value == 0.0
        assert stats.max_value == 99.0

    def test_string_ndv(self):
        values = np.asarray(["a", "b", "a", None], dtype=object)
        stats = compute_column_stats("s", DataType.STRING, values)
        assert stats.distinct == 2
        assert stats.null_count == 1

    def test_float_nan_counts_as_null(self):
        values = np.asarray([1.0, np.nan, 2.0])
        stats = compute_column_stats("f", DataType.FLOAT64, values)
        assert stats.null_count == 1

    def test_selectivity_eq_uniform(self):
        values = np.asarray([1, 2, 3, 4], dtype=np.int64)
        stats = compute_column_stats("x", DataType.INT64, values)
        assert stats.selectivity_eq() == pytest.approx(0.25)

    def test_selectivity_range_uniform(self):
        values = np.arange(1000, dtype=np.int64)
        stats = compute_column_stats("x", DataType.INT64, values)
        # top 10% of the domain
        fraction = stats.selectivity_range(900.0, None)
        assert fraction == pytest.approx(0.1, abs=0.02)

    def test_selectivity_range_skewed_histogram(self):
        # 90% of mass at small values: histogram should see the skew
        values = np.concatenate([np.zeros(900), np.linspace(1, 100, 100)])
        stats = compute_column_stats("x", DataType.FLOAT64, values)
        fraction = stats.selectivity_range(50.0, None)
        assert fraction < 0.2

    def test_selectivity_range_outside_domain(self):
        values = np.arange(10, dtype=np.int64)
        stats = compute_column_stats("x", DataType.INT64, values)
        assert stats.selectivity_range(100.0, None) == pytest.approx(
            0.0, abs=0.01)

    def test_selectivity_constant_column(self):
        values = np.full(10, 5, dtype=np.int64)
        stats = compute_column_stats("x", DataType.INT64, values)
        assert stats.selectivity_range(None, 10.0) == 1.0
        assert stats.selectivity_range(6.0, None) == 0.0

    def test_range_narrower_than_float_spacing_has_no_histogram(self):
        # 2**53 - 1 and 2**53 are distinct integers one float64 ulp
        # apart: no 32 finite-width bins fit between them
        values = np.asarray([2 ** 53, 2 ** 53 - 1], dtype=np.int64)
        stats = compute_column_stats("x", DataType.INT64, values)
        assert stats.distinct == 2
        assert stats.max_value > stats.min_value
        assert stats.histogram is None
        assert 0.0 <= stats.selectivity_range(float(2 ** 53), None) <= 1.0

    def test_empty_column(self):
        stats = compute_column_stats("x", DataType.INT64,
                                     np.empty(0, dtype=np.int64))
        assert stats.selectivity_eq() == 0.0
        assert stats.selectivity_range(0, 1) == 0.0


class TestTableStats:
    def test_compute_all_columns(self, products_table):
        stats = compute_table_stats(products_table)
        assert stats.row_count == products_table.num_rows
        assert set(stats.columns) == set(products_table.schema.names)

    def test_column_suffix_lookup(self, products_table):
        stats = compute_table_stats(products_table.qualified("p"))
        assert stats.column("price") is not None
        assert stats.column("p.price") is not None
        assert stats.column("ghost") is None
