"""The declarative field protocol (``repro.relational.fields``).

Three angles:

- **add a node** — a toy plan node and a toy expression defined *here*,
  with field declarations and the node's three behaviour methods
  (``estimate_rows`` / ``node_cost`` / ``lower``) only, clone, print,
  fingerprint (masked), collect/rebind literals, report tables/models,
  EXPLAIN (ANALYZE: it runs) and have the columns below them pruned
  with no edit under ``src/``, while delta maintenance and reuse refuse
  the toy node; every plan node under ``src/`` declares its cost and
  lowering;
- **rebinding is the identity on its own sites** (hypothesis, reusing
  the plan strategy of ``test_rewrite_equivalence``), and fresh values
  change the printed plan but never the masked fingerprint;
- **literal-site order did not move** — a golden captured at the commit
  before the protocol landed, over the nine statement families of the
  end-to-end benchmark.
"""

from __future__ import annotations

import importlib
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import engine_config
from repro.engine.explain import explain_plan
from repro.engine.session import Session
from repro.errors import PlanError
from repro.ingest.delta import DeltaRefused, classify_plan
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import Cost
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.optimizer.parameterize import (
    ParameterizeError,
    bind_parameters,
    literal_sites,
    plan_fingerprint,
)
from repro.optimizer.rules import PruneColumns, substitute
from repro.relational.expressions import Expr, col
from repro.relational.fields import mask
from repro.relational.logical import (
    LimitNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
)
from repro.relational.physical import PhysicalOperator
from repro.reuse.analysis import analyze_and_augment
from test_rewrite_equivalence import SETTINGS, plans

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "literal_sites_order.json"


# ----------------------------------------------------------------------
# (i) add a node: declarations only, zero edits under src/
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False, repr=False)
class Clamp(Expr):
    """Toy expression: ``operand`` clipped into ``[low, high]``."""

    operand: Expr
    low: float
    high: float
    expr_fields = ("operand",)
    literal_fields = ("low", "high")

    def evaluate(self, batch):
        return np.clip(self.operand.evaluate(batch), self.low, self.high)


class SampleOp(PhysicalOperator):
    """Toy operator: the leading ``fraction`` (rounded up) of each
    batch's rows that ``keep`` accepts."""

    def __init__(self, child, keep, fraction, schema):
        super().__init__(schema, (child,))
        self.keep = keep
        self.fraction = fraction

    def _batches(self):
        for batch in self.children[0].batches():
            kept = batch.filter(self.keep.evaluate(batch))
            yield kept.take(np.arange(math.ceil(
                kept.num_rows * self.fraction)))


class SampleNode(LogicalPlan):
    """Toy plan node: keep rows of the child that ``keep`` accepts,
    scored against ``reference_table`` under ``model_name``."""

    fields = ("reference_table", "model_name", "fraction", "keep")
    expr_fields = ("keep",)
    literal_fields = ("fraction",)
    table_fields = ("reference_table",)
    model_fields = ("model_name",)

    def __init__(self, child, reference_table, model_name, fraction, keep):
        self.reference_table = reference_table
        self.model_name = model_name
        self.fraction = fraction
        self.keep = keep
        super().__init__((child,))

    def _validate(self):
        if not 0.0 < self.fraction <= 1.0:
            raise PlanError("fraction must be within (0, 1]")

    def _compute_schema(self):
        return self.children[0].schema

    def estimate_rows(self, est):
        return est.estimate(self.children[0]) * self.fraction

    def node_cost(self, model):
        rows = model.estimator.estimate(self.children[0])
        return Cost(cpu=rows * model.params.predicate_row)

    def lower(self, context, limit=None, stream=False):
        return SampleOp(self.children[0].lower(context), self.keep,
                        self.fraction, self.schema)


@pytest.fixture()
def toy_plan(products_table):
    scan = ScanNode("products", products_table.schema, qualifier="p")
    keep = Clamp(col("p.price") * 2, 10.0, 500.0) > 40
    sample = SampleNode(scan, "kb", "toy-model", 0.25, keep)
    sample.hints["method"] = "reservoir"
    return LimitNode(sample, 3)


class TestAddANode:
    def test_prints_from_the_declaration(self, toy_plan):
        assert toy_plan.pretty() == (
            "Limit[3]\n"
            "  SampleNode[reference_table=kb, model_name=toy-model, "
            "fraction=0.25, keep=(Clamp[operand=(col(p.price) * lit(2)), "
            "low=10.0, high=500.0] > lit(40))]\n"
            "    Scan(products AS p)")
        assert toy_plan.children[0].render(mask) == (
            "SampleNode[reference_table=kb, model_name=toy-model, "
            "fraction=?float, keep=(Clamp[operand=(col(p.price) * "
            "lit(?int)), low=?float, high=?float] > lit(?int))]")

    def test_clones_with_hints_and_validation(self, toy_plan, products_table):
        sample = toy_plan.children[0]
        other = ScanNode("products", products_table.schema, qualifier="p")
        clone = sample.with_children((other,))
        assert type(clone) is SampleNode and clone is not sample
        assert clone.children == (other,) and clone.keep is sample.keep
        assert clone.hints == {"method": "reservoir"}
        assert clone.hints is not sample.hints
        with pytest.raises(PlanError):          # arity is part of a node
            sample.with_children(())
        with pytest.raises(PlanError):          # clones re-validate
            sample.with_children((other,), fraction=1.5)

    def test_literals_collect_and_rebind(self, toy_plan):
        assert literal_sites(toy_plan) == [3, 0.25, 2, 10.0, 500.0, 40]
        rebound = bind_parameters(toy_plan, [5, 0.5, 3, 1.0, 9.0, 7])
        assert rebound.pretty() == (
            "Limit[5]\n"
            "  SampleNode[reference_table=kb, model_name=toy-model, "
            "fraction=0.5, keep=(Clamp[operand=(col(p.price) * lit(3)), "
            "low=1.0, high=9.0] > lit(7))]\n"
            "    Scan(products AS p)")
        assert rebound.children[0].hints == {"method": "reservoir"}
        assert plan_fingerprint(rebound) == plan_fingerprint(toy_plan)
        assert toy_plan.pretty().startswith("Limit[3]")     # untouched
        with pytest.raises(PlanError):
            bind_parameters(toy_plan, [5, 7.0, 3, 1.0, 9.0, 7])
        for wrong in ([5, 0.5], [5, 0.5, 3, 1.0, 9.0, 7, 8]):
            with pytest.raises(ParameterizeError):
                bind_parameters(toy_plan, wrong)

    def test_fingerprint_masks_values_not_structure(self, toy_plan):
        sample = toy_plan.children[0]
        hinted = toy_plan.with_children((sample.with_children(
            sample.children),))
        hinted.children[0].hints["method"] = "bernoulli"
        assert plan_fingerprint(hinted) != plan_fingerprint(toy_plan)
        retyped = bind_parameters(toy_plan, [3, 0.25, 2.5, 10.0, 500.0, 40])
        assert plan_fingerprint(retyped) != plan_fingerprint(toy_plan)

    def test_tables_and_models(self, toy_plan):
        assert toy_plan.tables == {"products", "kb"}
        assert toy_plan.models == {"toy-model"}

    def test_explain_and_traversal(self, toy_plan, catalog, registry):
        text = explain_plan(toy_plan, CardinalityEstimator(catalog, registry))
        assert [line.split("  [rows~")[0] for line in text.splitlines()] \
            == toy_plan.pretty().splitlines()
        assert [type(n).__name__ for n in toy_plan.walk()] == [
            "LimitNode", "SampleNode", "ScanNode"]

    def test_expression_walkers(self, products_table):
        clamp = Clamp(col("price") * 2, 10.0, 500.0)
        assert clamp.columns() == {"price"}
        assert clamp.children() == (clamp.operand,)
        renamed = substitute(clamp, {"price": col("p.price")})
        assert repr(renamed) == ("Clamp[operand=(col(p.price) * lit(2)), "
                                 "low=10.0, high=500.0]")
        assert clamp.evaluate(products_table).tolist() == [
            50.0, 240.0, 500.0, 500.0, 30.0, 10.0]

    def test_pruned_below_to_what_it_reads(self, toy_plan):
        sample = toy_plan.children[0]
        assert sample.reads() == {"p.price"}
        plan = ProjectNode(sample, [(col("p.brand"), "brand")])
        assert PruneColumns().run(plan).pretty() == (
            "Project[col(p.brand) AS brand]\n"
            f"  {sample.label()}\n"
            "    Project[col(p.price) AS p.price, col(p.brand) AS p.brand]\n"
            "      Scan(products AS p)")

    def test_delta_and_reuse_refuse_it(self, toy_plan):
        with pytest.raises(DeltaRefused) as refused:
            classify_plan(toy_plan, "products")
        assert refused.value.reason == "non-monotone-operator:SampleNode"
        spec, augmented = analyze_and_augment(toy_plan)
        assert not spec.eligible and augmented is toy_plan
        assert spec.reason == "SampleNode is not subsumption-eligible"

    def test_estimated_costed_and_run_under_explain_analyze(
            self, toy_plan, model, products_table):
        session = Session(load_default_model=False)
        session.register_model(model, default=True)
        session.register_table("products", products_table)
        assert "SampleNode[" in session.explain(toy_plan)
        text = session.explain_analyze(toy_plan)
        # 4 of the 6 prices pass keep; a quarter of them, rounded up, is 1
        sample = next(line for line in text.splitlines()
                      if "SampleNode[" in line)
        assert re.search(r"\[est~2 rows, actual 1 rows, ", sample), text
        assert session.execute(toy_plan).column("p.pid").tolist() == [1]

    def test_misdeclared_field_is_rejected_at_class_definition(self):
        with pytest.raises(TypeError, match="count"):
            class Broken(LogicalPlan):
                fields = ("limit",)
                literal_fields = ("count",)


def missing_behaviour(classes) -> list[str]:
    """``Class.method`` for each of ``node_cost`` / ``lower`` a plan
    node class inherits from :class:`LogicalPlan` (whose versions
    raise) instead of declaring."""
    return [f"{cls.__name__}.{method}" for cls in classes
            for method in ("node_cost", "lower")
            if getattr(cls, method) is getattr(LogicalPlan, method)]


def test_every_plan_node_declares_cost_and_lowering():
    """Every ``LogicalPlan`` subclass defined under ``repro`` (found in
    the source, as the static analysis finds them) costs and lowers
    itself; ``estimate_rows`` has a declared default (the first
    child's rows)."""
    package = engine_config().package
    classes = []
    for fq in package.subclasses(
            "repro.relational.logical.LogicalPlan").values():
        module = package.class_module[fq].name
        target = importlib.import_module(module)
        for part in fq[len(module) + 1:].split("."):
            target = getattr(target, part)
        classes.append(target)
    assert len(classes) >= 12
    assert missing_behaviour(classes) == []


def test_missing_behaviour_names_each_pair():
    class Bare(LogicalPlan):
        pass

    class HalfDone(LogicalPlan):
        def node_cost(self, model):
            return Cost()

    assert missing_behaviour([Bare, HalfDone, SampleNode]) == [
        "Bare.node_cost", "Bare.lower", "HalfDone.lower"]


# ----------------------------------------------------------------------
# (ii) rebinding properties
# ----------------------------------------------------------------------
def _fresh(value):
    """A different value of the same type (and valid at every site the
    strategy generates: thresholds stay inside [0, 1])."""
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, int):
        return value + 1
    return value / 2 + 0.125


def _snapshot(plan: LogicalPlan):
    return [(node.label(), dict(node.hints), node.schema)
            for node in plan.walk()]


class TestRebindProperties:
    @given(data=st.data())
    @SETTINGS
    def test_rebind_roundtrip_and_fresh_values(self, data, catalog,
                                               registry, context):
        plan = data.draw(plans(catalog))
        optimized = Optimizer(
            catalog, models=registry, execution_context=context,
            config=OptimizerConfig(enable_dip=False)).optimize(plan)
        for candidate in (plan, optimized):
            sites = literal_sites(candidate)
            same = bind_parameters(candidate, sites)
            assert same is not candidate
            assert same.pretty() == candidate.pretty()
            assert _snapshot(same) == _snapshot(candidate)
            assert plan_fingerprint(same) == plan_fingerprint(candidate)
            assert literal_sites(same) == sites
            if not sites:
                continue
            fresh = bind_parameters(candidate, [_fresh(v) for v in sites])
            assert literal_sites(fresh) == [_fresh(v) for v in sites]
            assert explain_plan(fresh) != explain_plan(candidate)
            assert plan_fingerprint(fresh) == plan_fingerprint(candidate)


# ----------------------------------------------------------------------
# (iii) literal-site order golden (captured at the parent commit)
# ----------------------------------------------------------------------
def family_literal_sites() -> dict[str, list]:
    """``literal_sites`` of the first generated statement of each of the
    nine ad-hoc families of ``benchmarks/e2e/workloads.py`` (smoke
    scale, seed 1), optimized."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    workload = workloads.build_workload("retail_adhoc", 1, "smoke")
    texts: dict[str, str] = {}
    for op in [*workload.warmup, *workload.ops]:
        texts.setdefault(op.family, op.text)
    assert len(texts) == 9
    sites: dict[str, list] = {}
    session = Session(seed=1)
    workload.install(session)
    for family, text in sorted(texts.items()):
        plan = session.optimize(session.sql_plan(text))
        sites[family] = [
            value.item() if isinstance(value, np.generic) else value
            for value in literal_sites(plan)]
    return sites


def test_literal_site_order_matches_parent_commit():
    assert family_literal_sites() == json.loads(GOLDEN.read_text())
