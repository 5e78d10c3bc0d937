"""Ablation — just-in-time pipeline specialization (§VI).

The paper: "Just-in-time code generation ... enables specializing the code
paths".  This benchmark measures the interpreted filter (expression-tree
mask + ``Table.filter``) against the generated one-filter pipeline kernel
(:func:`repro.relational.codegen.compile_pipeline`) across batch counts,
exposing the classic JIT trade-off: a fixed compile cost amortized per
batch.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import ResultTable, stopwatch

import numpy as np
import pytest

from repro.relational.codegen import PipelineSpec, compile_pipeline
from repro.relational.expressions import col
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.utils.rng import make_rng

N_ROWS = 4_096
BATCHES = [1, 16, 256]

PREDICATE = ((col("price") > 50.0) & (col("qty") < 3)) | \
    (col("brand") == "acme")


def make_batch(seed: int = 3) -> Table:
    rng = make_rng(seed)
    return Table.from_dict({
        "price": rng.uniform(0, 100, N_ROWS).tolist(),
        "qty": [int(x) for x in rng.integers(1, 10, N_ROWS)],
        "brand": [["acme", "globex", "initech"][int(i)]
                  for i in rng.integers(0, 3, N_ROWS)],
    })


def filter_spec(batch: Table) -> PipelineSpec:
    """``PREDICATE`` as a one-filter pipeline over every batch column."""
    return PipelineSpec(
        input_columns=tuple(batch.schema.names),
        ops=(("filter", (PREDICATE,)),),
        output=tuple((field.name, field.dtype == DataType.STRING)
                     for field in batch.schema.fields))


def interpreted_filter(batch: Table) -> Table:
    return batch.filter(PREDICATE.evaluate(batch))


@pytest.fixture(scope="module")
def batch():
    return make_batch()


@pytest.mark.benchmark(group="jit")
def test_interpreted_predicate(benchmark, batch):
    result = benchmark(interpreted_filter, batch)
    assert result.num_rows > 0


@pytest.mark.benchmark(group="jit")
def test_compiled_predicate(benchmark, batch):
    kernel = compile_pipeline(filter_spec(batch))
    arrays = benchmark(kernel, batch)
    assert len(arrays) == len(batch.schema.names)


def test_jit_shape(batch, capsys):
    expected = interpreted_filter(batch)
    kernel = compile_pipeline(filter_spec(batch))
    for name, array in zip(batch.schema.names, kernel(batch)):
        assert array.dtype == expected.column(name).dtype
        assert np.array_equal(array, expected.column(name))

    table = ResultTable(
        f"JIT specialization — {N_ROWS}-row batches",
        ["batches", "interpreted [s]", "compiled+compile [s]", "gain"])
    for batches in BATCHES:
        with stopwatch() as interpreted:
            for _ in range(batches):
                interpreted_filter(batch)
        with stopwatch() as compiled:
            fresh = compile_pipeline(filter_spec(batch))
            for _ in range(batches):
                fresh(batch)
        table.add(batches, interpreted.seconds, compiled.seconds,
                  f"{interpreted.seconds / compiled.seconds:.2f}x")
    with capsys.disabled():
        table.show()
    # at high batch counts the compiled kernel must not lose
    with stopwatch() as interpreted:
        for _ in range(256):
            interpreted_filter(batch)
    fresh = compile_pipeline(filter_spec(batch))
    with stopwatch() as compiled:
        for _ in range(256):
            fresh(batch)
    assert compiled.seconds <= interpreted.seconds * 1.1


def main() -> None:
    from contextlib import nullcontext

    class _Cap:
        def disabled(self):
            return nullcontext()

    test_jit_shape(make_batch(), _Cap())


if __name__ == "__main__":
    main()
