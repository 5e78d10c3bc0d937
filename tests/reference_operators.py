"""Test-only reference operators: the per-row bodies the engine ran
before ``repro.relational.keys`` (PR 14), kept verbatim as the oracle of
``tests/test_factorized_operators.py``.

``ReferenceHashJoinOp`` keeps its historical ``extra_predicate`` defect
for LEFT / SEMI / ANTI joins (the matched mask is set before the
predicate runs); the differential test only compares those join types
without an extra predicate.  ``reference_sort_by`` is the old
``Table.sort_by``: one stable argsort per key, last key first, and one
whole-order reversal per descending key.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ExecutionError, PlanError
from repro.relational.expressions import AggExpr, AggFunc, Expr
from repro.relational.logical import JoinType
from repro.relational.physical import PhysicalOperator
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType


def reference_sort_by(table: Table, keys: list[tuple[str, bool]]) -> Table:
    """Stable multi-key sort; ``keys`` are (column, ascending) pairs."""
    order = np.arange(table.num_rows)
    for name, ascending in reversed(keys):
        values = table.column(name)[order]
        if values.dtype == object:
            local = np.argsort(values.astype(str), kind="stable")
        else:
            local = np.argsort(values, kind="stable")
        if not ascending:
            local = local[::-1]
        order = order[local]
    return table.take(order)


class ReferenceSortOp(PhysicalOperator):
    """Pipeline breaker: materialize, sort, re-emit."""

    def __init__(self, child: PhysicalOperator, keys: list[tuple[str, bool]]):
        super().__init__(child.schema, (child,))
        self.keys = keys

    def _batches(self) -> Iterator[Table]:
        table = self.children[0].execute()
        yield reference_sort_by(table, self.keys)


class ReferenceHashJoinOp(PhysicalOperator):
    """Equi hash join; builds on the right input, streams the left."""

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_keys: list[str], right_keys: list[str],
                 join_type: JoinType, extra_predicate: Expr | None,
                 schema: Schema):
        super().__init__(schema, (left, right))
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.join_type = join_type
        self.extra_predicate = extra_predicate

    def _batches(self) -> Iterator[Table]:
        if not self.left_keys:
            raise PlanError("HashJoinOp requires join keys")
        build = self.children[1].execute()
        hash_table: dict[tuple, list[int]] = {}
        build_key_arrays = [build.column(k) for k in self.right_keys]
        for row, key in enumerate(zip(*build_key_arrays)):
            hash_table.setdefault(tuple(key), []).append(row)

        left = self.children[0]
        for batch in left.batches():
            probe_key_arrays = [batch.column(k) for k in self.left_keys]
            left_indices: list[int] = []
            right_indices: list[int] = []
            matched_mask = np.zeros(batch.num_rows, dtype=bool)
            for row, key in enumerate(zip(*probe_key_arrays)):
                matches = hash_table.get(tuple(key))
                if matches:
                    matched_mask[row] = True
                    if self.join_type in (JoinType.SEMI, JoinType.ANTI):
                        continue
                    left_indices.extend([row] * len(matches))
                    right_indices.extend(matches)
            yield from self._emit(batch, build, left_indices, right_indices,
                                  matched_mask)

    def _emit(self, batch: Table, build: Table, left_indices: list[int],
              right_indices: list[int],
              matched_mask: np.ndarray) -> Iterator[Table]:
        if self.join_type == JoinType.SEMI:
            if matched_mask.any():
                yield batch.filter(matched_mask)
            return
        if self.join_type == JoinType.ANTI:
            if (~matched_mask).any():
                yield batch.filter(~matched_mask)
            return
        left_idx = np.asarray(left_indices, dtype=np.int64)
        right_idx = np.asarray(right_indices, dtype=np.int64)
        combined = _combine(batch.take(left_idx), build.take(right_idx),
                            self.schema)
        if self.extra_predicate is not None and combined.num_rows:
            combined = combined.filter(
                self.extra_predicate.evaluate(combined))
        if self.join_type == JoinType.LEFT:
            missing = ~matched_mask
            if missing.any():
                unmatched = _null_extend(batch.filter(missing), build.schema,
                                         self.schema)
                combined = Table.concat([combined, unmatched])
        if combined.num_rows:
            yield combined


class ReferenceAggregateOp(PhysicalOperator):
    """Hash aggregate (pipeline breaker)."""

    def __init__(self, child: PhysicalOperator, group_keys: list[str],
                 aggregates: list[AggExpr], schema: Schema):
        super().__init__(schema, (child,))
        self.group_keys = group_keys
        self.aggregates = aggregates

    def _batches(self) -> Iterator[Table]:
        table = self.children[0].execute()
        if not self.group_keys:
            rows = [self._aggregate_rows(table,
                                         np.arange(table.num_rows))]
            yield Table.from_rows(rows, self.schema)
            return
        key_arrays = [table.column(k) for k in self.group_keys]
        groups: dict[tuple, list[int]] = {}
        for row, key in enumerate(zip(*key_arrays)):
            groups.setdefault(tuple(key), []).append(row)
        key_names = self.schema.names[: len(self.group_keys)]
        rows = []
        for key, indices in groups.items():
            row = dict(zip(key_names, key))
            row.update(self._aggregate_rows(table,
                                            np.asarray(indices, np.int64)))
            rows.append(row)
        yield Table.from_rows(rows, self.schema)

    def _aggregate_rows(self, table: Table, indices: np.ndarray) -> dict:
        out: dict = {}
        for agg in self.aggregates:
            if agg.operand is None:
                if agg.func != AggFunc.COUNT:
                    raise ExecutionError(f"{agg.func} requires an operand")
                out[agg.alias] = int(indices.shape[0])
                continue
            values = agg.operand.evaluate(table.take(indices))
            out[agg.alias] = _apply_agg(agg.func, values)
        return out


def _apply_agg(func: AggFunc, values: np.ndarray):
    if func == AggFunc.COUNT:
        return int(values.shape[0])
    if func == AggFunc.COUNT_DISTINCT:
        return int(len(set(values.tolist())))
    if values.shape[0] == 0:
        return 0 if func == AggFunc.SUM else None
    if func == AggFunc.SUM:
        return values.sum().item()
    if func == AggFunc.MIN:
        return values.min().item() if values.dtype != object else min(values)
    if func == AggFunc.MAX:
        return values.max().item() if values.dtype != object else max(values)
    if func == AggFunc.AVG:
        return float(np.mean(values.astype(np.float64)))
    raise ExecutionError(f"unsupported aggregate {func}")


def _combine(left: Table, right: Table, schema: Schema) -> Table:
    columns = {}
    names = schema.names
    position = 0
    for name in left.schema.names:
        columns[names[position]] = left.columns[name]
        position += 1
    for name in right.schema.names:
        columns[names[position]] = right.columns[name]
        position += 1
    return Table(schema, columns)


def _null_extend(left: Table, right_schema: Schema, schema: Schema) -> Table:
    """Pad unmatched left rows with type-appropriate null fills."""
    columns = {}
    names = schema.names
    position = 0
    for name in left.schema.names:
        columns[names[position]] = left.columns[name]
        position += 1
    n = left.num_rows
    for fld in right_schema.fields:
        if fld.dtype == DataType.STRING:
            fill = np.asarray([None] * n, dtype=object)
        elif fld.dtype == DataType.FLOAT64:
            fill = np.full(n, np.nan)
        elif fld.dtype == DataType.BOOL:
            fill = np.zeros(n, dtype=bool)
        else:
            fill = np.zeros(n, dtype=np.int64)
        columns[names[position]] = fill
        position += 1
    return Table(schema, columns)
