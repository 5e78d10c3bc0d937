"""Correctness oracle: an untimed verify replay against the simplest path.

The first operations of a workload are served once more on a freshly
set-up server and every result is compared — order-insensitively and
bit-exactly, column dtypes included — with a cache-less ``Session``
holding the same rows at that step: no result cache, no semantic
reuse, no generic plans, pipelines interpreted.  For appends the
oracle's table is rebuilt from ``Table.concat`` of the batches so far,
so it never goes through ingest.
"""

from __future__ import annotations

from collections import Counter

from repro.engine.session import Session
from repro.storage.table import Table


def canonical(table: Table) -> tuple:
    """Order-insensitive, bit-exact form of a result: column names,
    dtypes, and the multiset of rows."""
    names = tuple(table.schema.names)
    columns = [table.column(name) for name in names]
    return (names, tuple(str(column.dtype) for column in columns),
            Counter(zip(*(column.tolist() for column in columns)))
            if columns else Counter())


def verify_replay(workload, seed: int, count: int, serve) -> list[str]:
    """Replay ``workload.ops[:count]`` through ``serve`` (a callable
    taking one op, on an already warmed-up server) beside the oracle;
    returns one line per mismatching operation."""
    oracle = Session(seed=seed, result_cache_bytes=0, semantic_reuse=False,
                     generic_plans=False, compiled_pipelines="off")
    workload.install(oracle)
    current = dict(workload.tables)
    for op in workload.warmup:
        if op.kind == "append":         # the server already took these
            current[op.table] = Table.concat([current[op.table], op.rows])
            oracle.register_table(op.table, current[op.table], replace=True)
    expected: dict[str, tuple] = {}     # statement text -> canonical
    mismatches: list[str] = []
    for index, op in enumerate(workload.ops[:count]):
        if op.kind == "append":
            serve(op)
            current[op.table] = Table.concat([current[op.table], op.rows])
            oracle.register_table(op.table, current[op.table], replace=True)
            expected.clear()
            continue
        served = canonical(serve(op))
        if op.text not in expected:
            expected[op.text] = canonical(oracle.sql(op.text))
        if served != expected[op.text]:
            mismatches.append(f"op {index} [{op.family}]: {op.text}")
    return mismatches
