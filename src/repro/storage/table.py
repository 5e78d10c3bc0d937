"""Columnar tables: the unit of data flowing through the engine.

A :class:`Table` is a schema plus one NumPy array per column.  Physical
operators exchange *tables as batches* (vectorized volcano): a scan slices
its source into fixed-size chunks with :meth:`Table.batches`, and every
downstream operator consumes/produces the same shape.

Appends grow a table in O(delta) rows copied: :meth:`Table.append`
writes into the spare capacity of a :class:`GrowthBuffer` and returns
prefix views over it (amortized doubling, the embedding arena's
publish-safe growth rule).
"""

from __future__ import annotations

import threading
from typing import Iterator

import numpy as np

from repro.errors import SchemaError
from repro.storage.schema import Field, Schema
from repro.storage.types import DataType, coerce_array


#: Estimated Python-object overhead per string element.
_OBJECT_OVERHEAD = 56

#: Object columns longer than this are size-estimated from a strided
#: sample instead of a full pass — measuring every string of a large
#: result cost more than the residual/store work around it.
_ESTIMATE_SAMPLE = 512


class GrowthBuffer:
    """Column arrays with spare capacity that appended tables view.

    Every table :meth:`Table.append` returns is a prefix view of one
    buffer.  ``length`` is the published row count: rows below it
    belong to a table already handed out and are never written again.
    The rows after it are claimed under ``_lock`` (:meth:`claim`), so of
    two holders of the same tip table only the first writes into the
    buffer; the second copies into a buffer of its own.
    """

    def __init__(self, columns: dict[str, np.ndarray], length: int) -> None:
        self.columns = columns
        self.capacity = int(next(iter(columns.values())).shape[0])
        self.length = length
        # leaf: held only to move ``length`` (repro.analysis.lock_levels)
        self._lock = threading.Lock()

    def claim(self, start: int, stop: int) -> bool:
        """Take rows ``[start, stop)`` for the caller to write.

        True when ``start`` is the published length (the caller holds
        the tip) and the rows fit; the length then moves to ``stop``.
        """
        with self._lock:
            if self.length != start or stop > self.capacity:
                return False
            self.length = stop
            return True


class Table:
    """Immutable-by-convention columnar table.

    A table never changes once built, but its columns may share storage
    with other tables: :meth:`select`, :meth:`slice` and friends return
    views, and a table :meth:`append` returns is a prefix view of a
    :class:`GrowthBuffer` shared with the tables appended before and
    after it.  Sharing is safe because nothing writes a row below a
    published length — which is also why callers must never mutate a
    table's arrays in place.
    """

    # Class-level defaults, shadowed per instance only when set: most
    # tables are short-lived operator batches that never use them.
    #: the buffer this table is a prefix view of (set by append)
    _buffer: GrowthBuffer | None = None
    #: memo of estimated_bytes
    _estimated_bytes: int | None = None

    def __init__(self, schema: Schema, columns: dict[str, np.ndarray]):
        if set(columns) != set(schema.names):
            raise SchemaError(
                f"columns {sorted(columns)} do not match schema "
                f"{schema.names}"
            )
        lengths = {name: arr.shape[0] for name, arr in columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged columns: {lengths}")
        self.schema = schema
        self.columns = columns

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict[str, list], schema: Schema | None = None) -> "Table":
        """Build from ``{column: values}``; types inferred if no schema."""
        if schema is None:
            fields = []
            for name, values in data.items():
                if len(values) == 0:
                    raise SchemaError(
                        f"cannot infer type of empty column {name!r}; "
                        "pass an explicit schema"
                    )
                sample = next((v for v in values if v is not None), None)
                if sample is None:
                    raise SchemaError(f"column {name!r} is all null")
                fields.append(Field(name, DataType.infer(sample)))
            schema = Schema(fields)
        columns = {
            field.name: coerce_array(data[field.name], field.dtype)
            for field in schema
        }
        return cls(schema, columns)

    @classmethod
    def from_rows(cls, rows: list[dict], schema: Schema) -> "Table":
        """Build from a list of row dicts."""
        data = {
            field.name: [row.get(field.name) for row in rows]
            for field in schema
        }
        columns = {
            field.name: coerce_array(data[field.name], field.dtype)
            for field in schema
        }
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        columns = {
            field.name: np.empty(0, dtype=field.dtype.numpy_dtype)
            for field in schema
        }
        return cls(schema, columns)

    @classmethod
    def concat(cls, tables: list["Table"]) -> "Table":
        """Vertically concatenate same-schema tables."""
        if not tables:
            raise SchemaError("concat of zero tables")
        schema = tables[0].schema
        for table in tables[1:]:
            if table.schema.names != schema.names:
                raise SchemaError("concat over mismatched schemas")
        columns = {
            name: np.concatenate([t.columns[name] for t in tables])
            for name in schema.names
        }
        return cls(schema, columns)

    def append(self, delta: "Table") -> "Table":
        """``Table.concat([self, delta])``, bit-identical in values and
        dtypes, copying only ``delta``'s rows when it can.

        When ``self`` is the tip of a :class:`GrowthBuffer` with room,
        the delta is written into the spare capacity and the result is a
        prefix view of the buffer.  Otherwise (not a tip, another holder
        claimed the tail first, or the buffer is full) both tables are
        copied into a new buffer of about twice the rows.  ``self`` and
        every table handed out earlier keep their shorter views.  Column
        dtypes that differ fall back to :meth:`concat` (which promotes).

        A size estimate already memoized on ``self`` is carried forward
        as ``self``'s plus ``delta``'s, so the old rows are never
        re-measured (see :meth:`estimated_bytes`).
        """
        names = self.schema.names
        if not names or delta.schema.names != names or any(
                self.columns[name].dtype != delta.columns[name].dtype
                or self.columns[name].shape[1:]
                != delta.columns[name].shape[1:] for name in names):
            return Table.concat([self, delta])
        if delta.num_rows == 0:
            return self
        start = self.num_rows
        stop = start + delta.num_rows
        buffer = self._buffer
        if buffer is None or not buffer.claim(start, stop):
            buffer = GrowthBuffer(
                {name: np.empty((2 * stop,) + arr.shape[1:], dtype=arr.dtype)
                 for name, arr in self.columns.items()}, stop)
            for name, arr in self.columns.items():
                buffer.columns[name][:start] = arr
        for name in names:
            buffer.columns[name][start:stop] = delta.columns[name]
        grown = Table(self.schema, {name: buffer.columns[name][:stop]
                                    for name in names})
        grown._buffer = buffer
        if self._estimated_bytes is not None:
            grown._estimated_bytes = (self._estimated_bytes
                                      + delta.estimated_bytes())
        return grown

    def copy(self) -> "Table":
        """A deep column-copy sharing no array storage with ``self``.

        Element objects (strings) are shared — they are immutable — but
        every ndarray buffer is fresh, so in-place mutation of either
        side cannot reach the other.  A memoized size estimate carries
        over (the values are the same).
        """
        copy = Table(self.schema,
                     {name: arr.copy() for name, arr in self.columns.items()})
        copy._estimated_bytes = self._estimated_bytes
        return copy

    # ------------------------------------------------------------------
    # Shape / access
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        fields = self.schema.fields
        return int(self.columns[fields[0].name].shape[0]) if fields else 0

    def column(self, name: str) -> np.ndarray:
        index = self.schema.index_of(name)
        return self.columns[self.schema.fields[index].name]

    def non_null_positions(self, name: str) -> np.ndarray:
        """Row positions of column ``name`` whose value is not ``None``.

        Memoized per table: a table is never mutated in place (appends
        and upserts register a new one), so the memo cannot go stale.
        Only an object column can hold ``None``; a NaN float is a value.
        """
        memo = self.__dict__.setdefault("_non_null_positions", {})
        positions = memo.get(name)
        if positions is None:
            values = self.columns[name]
            if values.dtype == object:
                present = np.fromiter((v is not None for v in values),
                                      dtype=bool, count=values.shape[0])
                positions = np.flatnonzero(present)
            else:
                positions = np.arange(values.shape[0])
            memo[name] = positions
        return positions

    def estimated_bytes(self) -> int:
        """Estimated resident bytes of the column arrays (memoized).

        Numeric columns are exact (``nbytes`` of the table's own rows: a
        growth buffer's spare capacity is not counted); object columns
        add a per-element overhead plus the string payload, which is
        close enough for budget enforcement — the budget bounds memory
        growth, it is not an allocator.  Large object columns
        extrapolate the payload from a deterministic strided sample: a
        full per-string pass over a big result cost more than the
        snapshot copy it was budgeting.  A table :meth:`append` grew
        from a measured one reports the sum of the two estimates.
        """
        if self._estimated_bytes is None:
            total = 0
            for arr in self.columns.values():
                if arr.dtype == object:
                    n = int(arr.shape[0])
                    total += n * _OBJECT_OVERHEAD
                    if n <= _ESTIMATE_SAMPLE:
                        total += sum(len(str(value)) for value in arr)
                    else:
                        sample = arr[::max(1, n // _ESTIMATE_SAMPLE)]
                        sampled = sum(len(str(value)) for value in sample)
                        total += int(sampled * (n / sample.shape[0]))
                else:
                    total += int(arr.nbytes)
            self._estimated_bytes = total
        return self._estimated_bytes

    def row(self, index: int) -> dict:
        return {name: self.columns[name][index] for name in self.schema.names}

    def to_rows(self) -> list[dict]:
        names = self.schema.names
        return [
            {name: _to_python(self.columns[name][i]) for name in names}
            for i in range(self.num_rows)
        ]

    def __repr__(self) -> str:
        return f"Table({self.schema!r}, rows={self.num_rows})"

    # ------------------------------------------------------------------
    # Transformations (each returns a new Table)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Table":
        columns = {name: arr[indices] for name, arr in self.columns.items()}
        return Table(self.schema, columns)

    def filter(self, mask: np.ndarray) -> "Table":
        if mask.shape[0] != self.num_rows:
            raise SchemaError("filter mask length mismatch")
        columns = {name: arr[mask] for name, arr in self.columns.items()}
        return Table(self.schema, columns)

    def select(self, names: list[str]) -> "Table":
        resolved = [self.schema.names[self.schema.index_of(n)] for n in names]
        schema = self.schema.select(resolved)
        columns = {name: self.columns[name] for name in resolved}
        return Table(schema, columns)

    def slice(self, start: int, stop: int) -> "Table":
        columns = {name: arr[start:stop] for name, arr in self.columns.items()}
        return Table(self.schema, columns)

    def with_column(self, field: Field, values: np.ndarray) -> "Table":
        if values.shape[0] != self.num_rows:
            raise SchemaError("with_column length mismatch")
        schema = Schema(list(self.schema.fields) + [field])
        columns = dict(self.columns)
        columns[field.name] = values
        return Table(schema, columns)

    def renamed(self, mapping: dict[str, str]) -> "Table":
        schema = self.schema.renamed(mapping)
        columns = {
            mapping.get(name, name): arr for name, arr in self.columns.items()
        }
        return Table(schema, columns)

    def qualified(self, qualifier: str) -> "Table":
        schema = self.schema.qualified(qualifier)
        columns = {
            new.name: self.columns[old.name]
            for old, new in zip(self.schema.fields, schema.fields)
        }
        return Table(schema, columns)

    def batches(self, batch_size: int) -> Iterator["Table"]:
        """Slice into batches of at most ``batch_size`` rows."""
        if batch_size <= 0:
            raise SchemaError("batch_size must be positive")
        total = self.num_rows
        if total == 0:
            return
        for start in range(0, total, batch_size):
            yield self.slice(start, min(start + batch_size, total))

    def sort_by(self, keys: list[tuple[str, bool]],
                limit: int | None = None) -> "Table":
        """Stable multi-key sort; ``keys`` are (column, ascending) pairs.

        Object columns compare as strings.  Rows tied on every key keep
        input order when an even number of keys descend and reversed
        input order when an odd number do (the order of one stable pass
        per key, last key first, reversing once per descending key).
        With ``limit`` only the first ``limit`` rows of that order are
        gathered.
        """
        # deferred: repro.relational imports this module
        from repro.relational.keys import sort_order

        if not keys:
            return self.slice(0, self.num_rows if limit is None else limit)
        order = sort_order([self.column(name) for name, _ in keys],
                           [ascending for _, ascending in keys], limit)
        return self.take(order)


def _to_python(value):
    if isinstance(value, np.generic):
        return value.item()
    return value
