"""Tier-1 coverage for the static-analysis suite (src/repro/analysis).

Proves three things: the real engine tree is clean under all three
analyzers; the extractors actually see the code (site counts, known
edges, family rosters — so a blind extractor cannot pass as "clean");
and each seeded fixture violation under ``tests/analysis_fixtures/``
is reported with the right rule id and location, in-process and
through the CLI.  The dispatch/cost regression tests for the findings
this suite forced live here too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import engine_config, run_analysis
from repro.analysis.dispatch import check_dispatch, family_members
from repro.analysis.fixtures import fixture_config
from repro.analysis.locks import LockChecker
from repro.errors import PlanError
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.relational.logical import (
    LogicalPlan, ScanNode, SemanticSemiFilterNode)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"


@pytest.fixture(scope="module")
def engine_cfg():
    return engine_config()


def line_of(path: Path, needle: str, occurrence: int = 0) -> int:
    hits = [i + 1 for i, line in enumerate(path.read_text().splitlines())
            if needle in line]
    return hits[occurrence]


# -- the real tree ------------------------------------------------------

def test_engine_tree_clean(engine_cfg):
    findings = run_analysis(engine_cfg)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_lock_extraction_sees_the_engine(engine_cfg):
    """A blind extractor must not be able to report 'clean'."""
    findings, report = LockChecker(
        engine_cfg.package, engine_cfg.locks).check()
    assert findings == []
    assert len(report.sites) >= 40
    declared = {d.name for d in engine_cfg.locks.declarations}
    assert report.acquired == declared
    assert report.constructed == declared
    pairs = report.edge_pairs()
    # the load-bearing edges of the serving path
    assert ("EngineState.model_locks", "Catalog._lock") in pairs
    assert ("EngineState.model_locks", "EmbeddingCache._lock") in pairs
    assert ("EngineState.model_locks",
            "lowering._CACHE_CREATE_LOCK") in pairs
    assert ("EmbeddingCache._lock", "EmbeddingCache._stats_lock") in pairs


def test_old_documented_lock_order_is_rejected(engine_cfg):
    """Regression for the undocumented lock edge this suite found.

    Before this PR, docs/serving.md placed the catalog at level 2 and
    the model stripes at level 3; the code holds read stripes across
    ``build_physical`` -> ``catalog.get``.  Re-declaring the old order
    must reproduce the LH001 finding on today's tree.
    """
    old_decls = []
    for decl in engine_cfg.locks.declarations:
        if decl.name == "Catalog._lock":
            decl = replace(decl, level=2)
        elif decl.name == "EngineState.model_locks":
            decl = replace(decl, level=3)
        old_decls.append(decl)
    old_model = replace(engine_cfg.locks, declarations=tuple(old_decls))
    findings, _ = LockChecker(engine_cfg.package, old_model).check()
    inversions = [f for f in findings if f.rule == "LH001"
                  and "EngineState.model_locks" in f.message
                  and "Catalog._lock" in f.message]
    assert inversions, [f.render() for f in findings]


def test_node_families_enumerated(engine_cfg):
    members = family_members(engine_cfg.package, engine_cfg.dispatch)
    assert set(members["plan"]) == {
        "ScanNode", "FilterNode", "ProjectNode", "JoinNode",
        "AggregateNode", "SortNode", "LimitNode", "UnionNode",
        "SemanticFilterNode", "SemanticSemiFilterNode",
        "SemanticJoinNode", "SemanticGroupByNode"}
    assert set(members["expr"]) == {
        "ColumnRef", "Literal", "Compare", "And", "Or", "Not", "Arith",
        "InList", "Func"}
    assert set(members["sql"]) == {
        "ColumnName", "NumberLit", "StringLit", "DateLit", "BoolOp",
        "NotOp", "Comparison", "BinaryArith", "InListExpr", "FuncCall",
        "SemanticPredicate"}


def test_every_registered_dispatcher_resolves(engine_cfg):
    findings = check_dispatch(engine_cfg)
    drift = [f for f in findings if f.rule == "DX003"]
    assert drift == [], [f.render() for f in drift]


# -- seeded fixtures ----------------------------------------------------

def test_fixture_lock_inversion_reported():
    findings = run_analysis(
        fixture_config("lock", FIXTURES), rules=("locks",))
    lh = [f for f in findings if f.rule == "LH001"]
    assert len(lh) == 1
    expected = line_of(FIXTURES / "lock_inversion.py",
                       "seeded violation") + 2
    assert lh[0].path == "analysis_fixtures/lock_inversion.py"
    assert lh[0].line == expected
    assert "Counter._lock (level 3)" in lh[0].message
    assert "Store._lock (level 2)" in lh[0].message


def test_fixture_pragmas():
    findings = run_analysis(
        fixture_config("lock", FIXTURES), rules=("locks",))
    # the justified pragma suppressed its LH001...
    suppressed_line = line_of(FIXTURES / "lock_inversion.py",
                              "demonstrates a justified suppression")
    assert not any(f.line == suppressed_line and f.rule == "LH001"
                   for f in findings)
    # ...while the bare pragma suppressed its finding but got AN001
    bare_line = line_of(FIXTURES / "lock_inversion.py",
                        "# analysis: ignore[LH001]", occurrence=1)
    an = [f for f in findings if f.rule == "AN001"]
    assert [f.line for f in an] == [bare_line]
    assert not any(f.line == bare_line and f.rule == "LH001"
                   for f in findings)


def test_fixture_missing_arm_reported():
    findings = run_analysis(
        fixture_config("dispatch", FIXTURES), rules=("dispatch",))
    rules = {f.rule for f in findings}
    assert {"DX001", "DX002"} <= rules
    dx1 = next(f for f in findings if f.rule == "DX001")
    assert dx1.path == "analysis_fixtures/missing_arm.py"
    assert dx1.line == line_of(FIXTURES / "missing_arm.py", "def render")
    assert "GammaNode" in dx1.message
    dx2 = next(f for f in findings if f.rule == "DX002")
    assert dx2.line == line_of(FIXTURES / "missing_arm.py",
                               'return "?"')


def test_fixture_version_skip_reported():
    findings = run_analysis(
        fixture_config("cache", FIXTURES), rules=("cache",))
    ck = [f for f in findings if f.rule == "CK001"
          and f.path == "analysis_fixtures/version_skip.py"]
    assert len(ck) == 1
    assert ck[0].line == line_of(FIXTURES / "version_skip.py", "def drop")
    assert "_version" in ck[0].message


def test_fixture_data_version_skip_reported():
    """The ingest dimension: a row mutator that forgets its per-table
    data_version bump is caught by the same CK001 rule."""
    findings = run_analysis(
        fixture_config("cache", FIXTURES), rules=("cache",))
    ck = [f for f in findings if f.rule == "CK001"
          and f.path == "analysis_fixtures/data_version_skip.py"]
    assert len(ck) == 1
    assert ck[0].line == line_of(FIXTURES / "data_version_skip.py",
                                 "def replace_rows")
    assert "_data_versions" in ck[0].message
    # append_rows bumps correctly (copy-on-write), so exactly one
    # finding comes from this fixture
    assert "append_rows" not in ck[0].message


def test_fixture_metric_drift_reported():
    findings = run_analysis(
        fixture_config("metric", FIXTURES), rules=("metrics",))
    mn = [f for f in findings if f.rule == "MN001"]
    assert len(mn) == 1
    assert mn[0].path == "analysis_fixtures/metric_drift.py"
    assert mn[0].line == line_of(FIXTURES / "metric_drift.py",
                                 "MN001 here")
    assert "mystery_total" in mn[0].message
    # the declared-and-registered name produced no finding, and the
    # declared vocabulary has no dead entries
    assert not [f for f in findings if f.rule == "MN002"]


def test_fixture_untyped_def_reported():
    findings = run_analysis(
        fixture_config("annotation", FIXTURES), rules=("annotations",))
    ty = [f for f in findings if f.rule == "TY001"]
    # only the seeded def: the fully annotated function, the __init__
    # with an annotated parameter, the method and the staticmethod pass
    assert len(ty) == 1
    assert ty[0].path == "analysis_fixtures/untyped_def.py"
    assert ty[0].line == line_of(FIXTURES / "untyped_def.py",
                                 "TY001 here")
    assert "predicate, return" in ty[0].message


def test_annotation_rule_reads_the_mypy_strict_scope(engine_cfg):
    strict = engine_cfg.annotations.strict
    assert "repro.utils.*" in strict
    assert "repro.engine.plan_cache" in strict
    assert "repro.semantic.cache" not in strict


def test_engine_metric_vocabulary_matches_runtime():
    """Every name the engine actually registers is declared, and with
    the right kind — checked dynamically, complementing the static
    rule (which cannot see conditional registrations)."""
    from repro.analysis.metric_names import DECLARED_METRICS
    from repro.engine.state import EngineState

    declared = {d.name: d.kind for d in DECLARED_METRICS}
    state = EngineState(load_default_model=False,
                        result_cache_bytes=1 << 20)
    for inst in state.metrics_registry.collect():
        assert declared.get(inst.name) == inst.kind, inst.name


# -- the CLI ------------------------------------------------------------

def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with ``src`` on its path."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT)


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return _run_python("-m", "repro.analysis", *args)


def test_cli_engine_tree_exits_zero():
    proc = _run_cli()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "static analysis clean" in proc.stdout


@pytest.mark.parametrize("kind,rule", [
    ("lock", "LH001"), ("dispatch", "DX001"), ("cache", "CK001"),
    ("metric", "MN001"), ("annotation", "TY001")])
def test_cli_fixture_exits_nonzero(kind, rule):
    proc = _run_cli("--fixture", kind, str(FIXTURES))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    reported = [line for line in proc.stdout.splitlines()
                if line.startswith(rule)]
    assert reported and "analysis_fixtures/" in reported[0] \
        and ":" in reported[0]


# -- import boundaries --------------------------------------------------

#: The paper-figure packages (Fig. 3 consolidation, Fig. 5 hardware
#: simulation, the workload-loading ``Engine``): benchmarks, examples
#: and tests import them, the engine never does.
SIMULATION_PACKAGES = ("repro.hardware", "repro.integration", "repro.core")


def test_server_import_loads_no_simulation_package():
    proc = _run_python(
        "-c", "import sys, repro.server; print(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = [name for name in proc.stdout.split()
              if any(name == package or name.startswith(package + ".")
                     for package in SIMULATION_PACKAGES)]
    assert loaded == []


# -- regressions for the findings this suite forced ---------------------

def test_semantic_semi_filter_has_nonzero_cost(catalog, registry, model):
    estimator = CardinalityEstimator(catalog, registry)
    cost_model = CostModel(estimator)
    scan = ScanNode("products", catalog.get("products").schema)
    semi = SemanticSemiFilterNode(scan, "ptype", ["shoes", "jacket"],
                                  model.name, 0.8)
    cost = cost_model.node_cost(semi)
    assert cost.cpu > 0.0
    assert cost.model > 0.0


def test_semantic_semi_filter_estimates_as_child(catalog, registry, model):
    estimator = CardinalityEstimator(catalog, registry)
    scan = ScanNode("products", catalog.get("products").schema)
    semi = SemanticSemiFilterNode(scan, "ptype", ["shoes"],
                                  model.name, 0.8)
    assert estimator.estimate(semi) == estimator.estimate(scan)


def test_unknown_plan_node_cost_raises(catalog, registry):
    class MysteryNode(LogicalPlan):
        pass

    cost_model = CostModel(CardinalityEstimator(catalog, registry))
    with pytest.raises(PlanError, match="MysteryNode"):
        cost_model.node_cost(MysteryNode(()))


# -- optional tool gates (run fully in CI) ------------------------------

def test_ruff_configured():
    assert "[tool.ruff]" in (REPO_ROOT / "pyproject.toml").read_text()
    if shutil.which("ruff") is None:
        pytest.skip("ruff not installed in this environment")
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mypy_configured():
    assert (REPO_ROOT / "mypy.ini").exists()
    if shutil.which("mypy") is None:
        pytest.skip("mypy not installed in this environment")
    proc = subprocess.run(
        ["mypy", "--config-file", "mypy.ini"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
