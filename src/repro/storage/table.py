"""Columnar tables: the unit of data flowing through the engine.

A :class:`Table` is a schema plus one NumPy array per column.  Physical
operators exchange *tables as batches* (vectorized volcano): a scan slices
its source into fixed-size chunks with :meth:`Table.batches`, and every
downstream operator consumes/produces the same shape.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import SchemaError
from repro.storage.schema import Field, Schema
from repro.storage.types import DataType, coerce_array


class Table:
    """Immutable-by-convention columnar table."""

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

    # ------------------------------------------------------------------
    # Shape / access
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        if not self.schema.names:
            return 0
        return int(self.columns[self.schema.names[0]].shape[0])

    def column(self, name: str) -> np.ndarray:
        index = self.schema.index_of(name)
        return self.columns[self.schema.names[index]]

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
