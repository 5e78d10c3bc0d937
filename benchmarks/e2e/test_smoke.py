"""Smoke test of the end-to-end benchmark (collected by the tier-1 run).

Every workload at ``--scale smoke`` in both run modes: each metric named
in BENCHMARK.json is printed with a finite value and the declared unit,
nothing fails or mismatches the oracle, counter-derived metrics repeat
exactly for a fixed seed, and different seeds give different operations.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, build_workload  # noqa: E402

CONTRACT = run.load_contract()
#: Units of metrics computed from engine counters and gauges alone.
EXACT_UNITS = {"count", "ratio", "bytes"}


@pytest.fixture(autouse=True, scope="module")
def one_default_model_per_seed():
    """Every server and oracle builds the same default model (~0.1 s,
    some forty times in this file).  It is a pure function of the seed,
    and queries only bump its ``tokens_embedded`` counter, which the
    benchmark reads as per-statement deltas: build it once per seed."""
    from repro.embeddings import pretrained

    build, built = pretrained.build_pretrained_model, {}

    def memoized(*args, **kwargs):
        if args or set(kwargs) != {"seed"}:
            return build(*args, **kwargs)
        if kwargs["seed"] not in built:
            built[kwargs["seed"]] = build(**kwargs)
        return built[kwargs["seed"]]

    pretrained.build_pretrained_model = memoized
    yield
    pretrained.build_pretrained_model = build


def invoke(capsys, tmp_path, workload: str, trace: int, seed: int = 5):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.05", "--trace", str(trace),
                     "--scale", "smoke",
                     "--spans", str(tmp_path / "spans.ndjson")])
    assert code == 0
    last_line = capsys.readouterr().out.rstrip().rsplit("\n", 1)[-1]
    return json.loads(last_line)


def check(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"]), entry["name"]


def test_contract_names_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_e2e_run(capsys, tmp_path, workload):
    result = invoke(capsys, tmp_path, workload, trace=0)
    check(result, CONTRACT["end_to_end"])
    # the contract wants end-to-end metrics that are never zero
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layered_run_and_exact_counts(capsys, tmp_path, workload):
    first = invoke(capsys, tmp_path, workload, trace=1)
    check(first, CONTRACT["per_layer"])
    assert (tmp_path / "spans.ndjson").read_text().count("\n") > 0
    second = invoke(capsys, tmp_path, workload, trace=1)
    for entry in CONTRACT["per_layer"]:
        if entry["unit"] in EXACT_UNITS:
            assert (first["metrics"][entry["name"]]
                    == second["metrics"][entry["name"]]), entry["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_the_operations(workload):
    def texts(seed: int) -> list:
        return [op.text or op.rows.to_rows()
                for op in build_workload(workload, seed, "smoke").ops]

    assert texts(1) == texts(1)
    assert texts(1) != texts(2)
