"""Table and column statistics for cardinality estimation.

The optimizer's selectivity model (paper §V: "include high-level cost
information, such as the effect on the input/output cardinality") consumes
row counts, distinct-value counts, min/max, and equi-width histograms
computed here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.storage.table import Table
from repro.storage.types import DataType

#: Histogram resolution for numeric columns.
HISTOGRAM_BINS = 32

Array = np.ndarray[Any, np.dtype[Any]]


@dataclass
class ColumnStats:
    """Statistics of one column."""

    name: str
    dtype: DataType
    count: int
    null_count: int
    distinct: int
    min_value: float | None = None
    max_value: float | None = None
    histogram: Array | None = field(default=None, repr=False)
    bin_edges: Array | None = field(default=None, repr=False)
    _histogram_memo: tuple[Array, Array, list[float], list[float],
                           float] | None = field(
        default=None, init=False, repr=False, compare=False)

    def selectivity_eq(self) -> float:
        """Estimated selectivity of ``col = literal`` (uniform over NDV)."""
        if self.distinct <= 0:
            return 0.0
        return 1.0 / self.distinct

    def selectivity_range(self, low: float | None, high: float | None) -> float:
        """Estimated selectivity of a (half-)open numeric range predicate."""
        if self.count == 0:
            return 0.0
        if self.histogram is not None and self.bin_edges is not None:
            return self._histogram_fraction(low, high)
        if self.min_value is None or self.max_value is None:
            return 1.0 / 3.0  # classic System-R magic number
        span = self.max_value - self.min_value
        if span <= 0:
            inside = ((low is None or low <= self.min_value)
                      and (high is None or high >= self.max_value))
            return 1.0 if inside else 0.0
        lo = self.min_value if low is None else max(low, self.min_value)
        hi = self.max_value if high is None else min(high, self.max_value)
        if hi <= lo:
            return 0.0
        return float(np.clip((hi - lo) / span, 0.0, 1.0))

    def _histogram_fraction(self, low: float | None,
                            high: float | None) -> float:
        counts, edges, total = self._histogram_floats()
        if total == 0:
            return 0.0
        lo = edges[0] if low is None else low
        hi = edges[-1] if high is None else high
        # Only bins whose right edge reaches lo and whose left edge
        # reaches hi can add anything; every other bin adds exactly 0.0,
        # so skipping them leaves the float sum's bits unchanged.
        first = max(bisect_left(edges, lo), 1) - 1
        stop = min(bisect_right(edges, hi), len(counts))
        covered = 0.0
        for i in range(first, stop):
            left, right = edges[i], edges[i + 1]
            width = right - left
            if width <= 0:
                covered += counts[i] if lo <= left <= hi else 0.0
                continue
            overlap = max(0.0, min(hi, right) - max(lo, left))
            covered += counts[i] * (overlap / width)
        return min(1.0, max(0.0, covered / total))

    def _histogram_floats(self) -> tuple[list[float], list[float], float]:
        """(counts, edges, total) as Python floats, cached against the
        arrays they were read from (merges assign new arrays)."""
        assert self.histogram is not None and self.bin_edges is not None
        memo = self._histogram_memo
        if memo is None or memo[0] is not self.histogram \
                or memo[1] is not self.bin_edges:
            counts = self.histogram.astype(np.float64)
            memo = (self.histogram, self.bin_edges, counts.tolist(),
                    self.bin_edges.tolist(), float(counts.sum()))
            self._histogram_memo = memo
        return memo[2], memo[3], memo[4]


@dataclass
class TableStats:
    """Statistics of a whole table."""

    row_count: int
    columns: dict[str, ColumnStats]

    def column(self, name: str) -> ColumnStats | None:
        if name in self.columns:
            return self.columns[name]
        suffix = [c for n, c in self.columns.items() if n.endswith("." + name)]
        if len(suffix) == 1:
            return suffix[0]
        return None


def compute_column_stats(name: str, dtype: DataType,
                         values: Array) -> ColumnStats:
    """Compute stats for one column array."""
    count = int(values.shape[0])
    if dtype == DataType.STRING:
        mask = np.asarray([v is not None for v in values], dtype=bool)
        non_null = values[mask]
        distinct = len(set(non_null.tolist()))
        return ColumnStats(name, dtype, count, count - int(mask.sum()),
                           distinct)
    non_null = values
    null_count = 0
    if dtype == DataType.FLOAT64:
        finite = ~np.isnan(values)
        non_null = values[finite]
        null_count = count - int(finite.sum())
    distinct = int(np.unique(non_null).shape[0]) if non_null.shape[0] else 0
    stats = ColumnStats(name, dtype, count, null_count, distinct)
    if dtype.is_numeric or dtype == DataType.BOOL:
        if non_null.shape[0]:
            numeric = non_null.astype(np.float64)
            stats.min_value = float(numeric.min())
            stats.max_value = float(numeric.max())
            if stats.max_value > stats.min_value:
                try:
                    hist, edges = np.histogram(numeric, bins=HISTOGRAM_BINS)
                except ValueError:
                    # a range too narrow for the float64 spacing at
                    # this magnitude (e.g. 2**53 - 1 .. 2**53) has no
                    # finite-width bins: no histogram, as for one value
                    return stats
                stats.histogram = hist
                stats.bin_edges = edges
    return stats


def compute_table_stats(table: Table) -> TableStats:
    """Compute statistics for every column of ``table``."""
    columns = {
        field.name: compute_column_stats(
            field.name, field.dtype, table.columns[field.name]
        )
        for field in table.schema
    }
    return TableStats(row_count=table.num_rows, columns=columns)


def merge_table_stats(old: TableStats, delta: Table) -> TableStats:
    """Fold an appended ``delta`` into existing stats in O(delta) time.

    The ingest fast path: scanning the whole grown table on every
    append would make mutation cost O(table), so only the new rows are
    profiled and the summaries combine.  Counts, nulls, and min/max
    merge exactly; the distinct count takes the larger side (a lower
    bound — the overlap between old and new value sets is unknowable
    from summaries) and delta values are folded into the *old*
    histogram's bins, with out-of-range mass clamped to the boundary
    bins.  Both drifts affect cardinality estimates only, never
    results.
    """
    columns: dict[str, ColumnStats] = {}
    for field_ in delta.schema:
        prior = old.columns.get(field_.name)
        values = delta.columns[field_.name]
        if prior is None:
            columns[field_.name] = compute_column_stats(
                field_.name, field_.dtype, values)
            continue
        fresh = compute_column_stats(field_.name, field_.dtype, values)
        merged = ColumnStats(
            field_.name, field_.dtype, prior.count + fresh.count,
            prior.null_count + fresh.null_count,
            max(prior.distinct, fresh.distinct))
        bounds = [v for v in (prior.min_value, fresh.min_value)
                  if v is not None]
        merged.min_value = min(bounds) if bounds else None
        bounds = [v for v in (prior.max_value, fresh.max_value)
                  if v is not None]
        merged.max_value = max(bounds) if bounds else None
        if prior.histogram is not None and prior.bin_edges is not None:
            merged.histogram = prior.histogram
            merged.bin_edges = prior.bin_edges
            numeric = values
            if field_.dtype == DataType.FLOAT64:
                numeric = values[~np.isnan(values)]
            if numeric.shape[0]:
                clamped = np.clip(numeric.astype(np.float64),
                                  prior.bin_edges[0], prior.bin_edges[-1])
                hist, _ = np.histogram(clamped, bins=prior.bin_edges)
                merged.histogram = prior.histogram + hist
        columns[field_.name] = merged
    return TableStats(row_count=old.row_count + delta.num_rows,
                      columns=columns)
