"""Dense key codes and sort orders: the one factorize primitive of the
relational operators.

:class:`KeyIndex` dictionary-encodes a tuple of key columns into dense
int64 codes numbered in first-seen order, with the first row of each
code.  Two rows share a code exactly when a Python ``dict`` keyed on
their ``tolist()`` tuples would put them in one entry: ``1 == 1.0 ==
True``, ``-0.0 == 0.0``, NaN never equals NaN, ``None`` equals ``None``.
Hash join build and probe, group-by and ``COUNT(DISTINCT)`` all run on
these codes (``relational/physical.py``); nothing walks rows in Python.

Each key column is first encoded on its own: booleans and narrow
integers by offset, floats and wide integers by one sort, anything else
by one ``dict`` pass over ``tolist()``.  Multi-column codes combine by
mixed radix (compressed by a sort when the radix space outgrows the
rows), and one slot table renumbers them in first-seen order.

:func:`sort_order` is the one row-order routine: ``Table.sort_by``, the
top-k of ``SortOp`` under a limit, and ``ingest/delta.py``'s top-k merge
share it.  The historical sort ran one stable argsort per key, last key
first, and reversed the whole order once per descending key; the same
order comes from a single stable ``np.lexsort`` over each key's
*effective* direction (:func:`effective_directions`) plus, when an odd
number of keys descend, a trailing descending position key.
"""

from __future__ import annotations

from itertools import count, repeat
from typing import Any, Sequence

import numpy as np

Array = np.ndarray[Any, np.dtype[Any]]
#: int64 codes or row ids
Codes = Array


def _direct_limit(rows: int) -> int:
    """Largest code space kept as a lookup table instead of sorted."""
    return 2 * rows + 1024


def _dense(values: Array, nan_equal: bool) -> tuple[Codes, Array]:
    """Codes indexing the sorted distinct ``values`` (returned too).

    NaNs sort last; they share one code when ``nan_equal`` (sort order)
    and get one code each otherwise (dict equality).
    """
    n = values.shape[0]
    order = np.argsort(values)
    ordered = values[order]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    if nan_equal and values.dtype.kind == "f":
        nan = np.isnan(ordered)
        new[1:] &= ~(nan[1:] & nan[:-1])
    codes = np.empty(n, dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    return codes, ordered[new]


def _narrow(values: Array) -> bool:
    """Signed (or < 64-bit unsigned) integers spanning a small range:
    encoded by offset from the minimum, no sort."""
    kind, n = values.dtype.kind, values.shape[0]
    if not n or not (kind == "i" or (kind == "u" and values.itemsize < 8)):
        return False
    return int(values.max()) - int(values.min()) < _direct_limit(n)


def _find(distinct: Array, values: Array) -> Codes:
    """Position of each value in the sorted ``distinct``, or -1."""
    if distinct.shape[0] == 0:
        return np.full(values.shape[0], -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(distinct, values), distinct.shape[0] - 1)
    return np.where(distinct[pos] == values, pos, -1).astype(np.int64)


class _ColumnCodes:
    """One key column as codes in ``[0, slots)`` under dict equality
    (not necessarily dense, not in first-seen order)."""

    def __init__(self, values: Array) -> None:
        n = values.shape[0]
        kind = values.dtype.kind
        self.values = values
        self.low = 0
        self.distinct: Array | None = None
        self.index: dict[Any, int] | None = None
        if kind == "b":
            self.codes: Codes = values.astype(np.int64)
            self.slots = 2
        elif _narrow(values):
            self.low = int(values.min())
            self.codes = values.astype(np.int64) - self.low
            self.slots = int(values.max()) - self.low + 1
        elif kind in "iuf":
            self.codes, self.distinct = _dense(values, nan_equal=False)
            self.slots = self.distinct.shape[0]
        else:
            # one dict pass: a cell's code is the row its key first
            # occurred at
            self.index = {}
            self.codes = np.fromiter(
                map(self.index.setdefault, values.tolist(), count()),
                dtype=np.int64, count=n)
            self.slots = n

    def lookup(self, probe: Array) -> Codes:
        """This column's code of each probe value, or -1 if absent."""
        if self.index is None and probe.dtype == self.values.dtype:
            if self.distinct is not None:
                return _find(self.distinct, probe)
            if probe.dtype.kind == "b":
                return probe.astype(np.int64)
            high = self.low + self.slots - 1
            inside = (probe >= self.low) & (probe <= high)
            codes = np.full(probe.shape[0], -1, dtype=np.int64)
            codes[inside] = probe[inside].astype(np.int64) - self.low
            return codes
        if self.index is None:
            # mixed dtypes compare as Python values (exact int/float
            # equality), like the dict they stand in for
            self.index = dict(zip(self.values.tolist(), self.codes.tolist()))
        n = probe.shape[0]
        return np.fromiter(map(self.index.get, probe.tolist(), repeat(-1, n)),
                           dtype=np.int64, count=n)


class KeyIndex:
    """Dense first-seen codes of a tuple of key columns.

    ``codes[i]`` is row ``i``'s key, ``first[c]`` the first row holding
    key ``c`` (ascending), ``count`` the number of distinct keys.
    :meth:`lookup` encodes other rows (a join's probe side) into the same
    code space; :meth:`matches` expands them into join pairs.
    """

    def __init__(self, columns: Sequence[Array]) -> None:
        n = columns[0].shape[0]
        self._columns = [_ColumnCodes(values) for values in columns]
        combined, slots = self._columns[0].codes, self._columns[0].slots
        #: per extra column: its radix, and the sorted distinct combined
        #: codes when the radix space had to be compressed
        self._steps: list[tuple[int, Array | None]] = []
        for column in self._columns[1:]:
            combined = combined * column.slots + column.codes
            slots *= column.slots
            distinct: Array | None = None
            if slots > _direct_limit(n):
                combined, distinct = _dense(combined, nan_equal=True)
                slots = distinct.shape[0]
            self._steps.append((column.slots, distinct))
        first = np.full(slots, n, dtype=np.int64)
        np.minimum.at(first, combined, np.arange(n, dtype=np.int64))
        present = np.flatnonzero(first < n)
        by_first = present[np.argsort(first[present])]
        self._remap = np.full(slots, -1, dtype=np.int64)
        self._remap[by_first] = np.arange(by_first.shape[0], dtype=np.int64)
        self.codes: Codes = self._remap[combined]
        self.first: Codes = first[by_first]
        self.count = int(by_first.shape[0])
        self._segments: tuple[Codes, Codes, Codes] | None = None

    def lookup(self, columns: Sequence[Array]) -> Codes:
        """The code of each probe row's key tuple; -1 when no row of the
        index holds it."""
        combined = self._columns[0].lookup(columns[0])
        miss = combined < 0
        for column, values, (radix, distinct) in zip(
                self._columns[1:], columns[1:], self._steps):
            codes = column.lookup(values)
            miss |= codes < 0
            combined = combined * radix + codes
            if distinct is not None:
                combined = _find(distinct, combined)
                miss |= combined < 0
        out = np.full(combined.shape[0], -1, dtype=np.int64)
        hit = ~miss
        out[hit] = self._remap[combined[hit]]
        return out

    def segments(self) -> tuple[Codes, Codes, Codes]:
        """``(order, starts, sizes)``: row ids grouped by code, each
        group in row order; key ``c`` owns
        ``order[starts[c] : starts[c] + sizes[c]]``."""
        if self._segments is None:
            codes = self.codes
            # a stable sort of <= 16-bit codes is a radix sort
            narrow = codes.astype(np.uint16) if self.count <= 1 << 16 \
                else codes
            order = np.argsort(narrow, kind="stable").astype(np.int64)
            sizes = np.bincount(codes, minlength=self.count).astype(np.int64)
            self._segments = (order, np.cumsum(sizes) - sizes, sizes)
        return self._segments

    def matches(self, probe: Codes) -> tuple[Codes, Codes]:
        """Join pairs ``(probe row ids, index row ids)`` for probe codes:
        probe order first, then index row order within one key."""
        order, starts, sizes = self.segments()
        hit = probe >= 0
        runs = np.zeros(probe.shape[0], dtype=np.int64)
        runs[hit] = sizes[probe[hit]]
        begin = np.zeros(probe.shape[0], dtype=np.int64)
        begin[hit] = starts[probe[hit]]
        left = np.repeat(np.arange(probe.shape[0], dtype=np.int64), runs)
        # pair j of a run reads the build row at begin + j
        shift = np.repeat(begin - (np.cumsum(runs) - runs), runs)
        right = order[shift + np.arange(left.shape[0], dtype=np.int64)]
        return left, right


# ----------------------------------------------------------------------
# Sort orders
# ----------------------------------------------------------------------
def effective_directions(ascending: Sequence[bool]) -> list[bool]:
    """Declared directions -> the ones a reversal-per-descending-key
    sort realizes.

    Each whole-order reversal (one per descending key) flips every key
    sorted *before* that pass — every key after it in declaration order
    — so key ``i``'s effective direction is its declared one flipped iff
    an odd number of keys ``0..i-1`` descend.
    """
    effective: list[bool] = []
    flips = 0
    for asc in ascending:
        effective.append(asc if flips % 2 == 0 else not asc)
        flips += not asc
    return effective


def _sortable(values: Array) -> Array:
    # object columns compare as their strings
    return values.astype(str) if values.dtype == object else values


def stable_order(columns: Sequence[Array], ascending: Sequence[bool],
                 reverse_ties: bool = False) -> Codes:
    """Stable lexicographic row order with NO reversals.

    Descending keys sort by negated rank (NaN ranks last ascending,
    first descending, as ``np.sort`` places it).  Rows tied on every key
    keep input order, or the reverse of it with ``reverse_ties``.
    """
    keys = [values if asc else -_dense(values, nan_equal=True)[0]
            for values, asc in zip(map(_sortable, columns), ascending)]
    if reverse_ties:
        keys.append(-np.arange(columns[0].shape[0], dtype=np.int64))
    if len(keys) == 1:
        return np.argsort(keys[0], kind="stable").astype(np.int64)
    # np.lexsort treats its LAST key as primary
    return np.lexsort(keys[::-1]).astype(np.int64)


def _candidates(values: Array, ascending: bool, limit: int) -> Codes:
    """Rows that can reach the first ``limit`` places on the primary key
    alone: the ``limit`` best plus every tie at the boundary."""
    n = values.shape[0]
    if values.dtype.kind == "b":
        values = values.view(np.uint8)
    elif values.dtype.kind not in "iuf":
        return np.arange(n, dtype=np.int64)
    if ascending:
        bound = np.partition(values, limit - 1)[limit - 1]
        if bound != bound:          # NaN boundary: every row qualifies
            return np.arange(n, dtype=np.int64)
        keep = values <= bound
    else:
        bound = np.partition(values, n - limit)[n - limit]
        keep = values >= bound
        if values.dtype.kind == "f":
            keep |= np.isnan(values)  # NaN sorts first descending
    return np.flatnonzero(keep).astype(np.int64)


def sort_order(columns: Sequence[Array], ascending: Sequence[bool],
               limit: int | None = None) -> Codes:
    """The row order of the reversal-per-descending-key stable sort
    (``Table.sort_by``), or exactly its first ``limit`` rows.

    With a limit below the row count only the primary key's candidates
    (:func:`_candidates`) are sorted; they are a superset of the prefix
    and keep their input order, so the result equals the full sort's
    prefix, ties included.
    """
    directions = effective_directions(ascending)
    reverse_ties = (len(ascending) - sum(ascending)) % 2 == 1
    if limit is None or limit >= columns[0].shape[0]:
        return stable_order(columns, directions, reverse_ties)
    if limit <= 0:
        return np.empty(0, dtype=np.int64)
    rows = _candidates(columns[0], ascending[0], limit)
    order = stable_order([values[rows] for values in columns], directions,
                         reverse_ties)
    return rows[order[:limit]]
