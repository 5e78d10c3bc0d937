"""Tests for cardinality estimation, cost model, join order, DIP, and the
full optimizer pipeline."""

import pytest

from repro.hardware.placement import is_model_operator
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import Cost, CostModel
from repro.optimizer.dip import DataInducedPredicates
from repro.optimizer.join_order import JoinOrderOptimizer
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.optimizer.physical_selection import PhysicalSelector
from repro.relational.expressions import col
from repro.relational.logical import (
    FilterNode,
    JoinNode,
    JoinType,
    ScanNode,
    SemanticFilterNode,
    SemanticGroupByNode,
    SemanticJoinNode,
    SemanticSemiFilterNode,
)
from repro.relational.physical import ExecutionContext, execute_plan
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.utils.rng import make_rng


@pytest.fixture()
def big_catalog(registry):
    """Catalog with size asymmetries the optimizer should exploit."""
    rng = make_rng(3)
    types = ["sneakers", "parka", "sedan", "kitten", "blazer", "apple",
             "sofa", "cap", "jeans", "dslr"]
    n = 1_000
    products = Table.from_dict({
        "pid": list(range(n)),
        "ptype": [types[int(i)] for i in rng.integers(0, len(types), n)],
        "price": rng.uniform(1, 100, n).tolist(),
    })
    kb = Table.from_dict({
        "label": ["shoes", "jacket", "trousers", "dog", "car", "fruit"],
        "category": ["clothes", "clothes", "clothes", "animal", "vehicle",
                     "food"],
    })
    transactions = Table.from_dict({
        "tid": list(range(5_000)),
        "pid": [int(i) for i in rng.integers(0, n, 5_000)],
        "qty": [int(i) for i in rng.integers(1, 5, 5_000)],
    })
    catalog = Catalog()
    catalog.register("products", products)
    catalog.register("kb", kb)
    catalog.register("transactions", transactions)
    return catalog


@pytest.fixture()
def big_context(big_catalog, registry):
    return ExecutionContext(catalog=big_catalog, models=registry)


def _scan(catalog, name, alias):
    return ScanNode(name, catalog.get(name).schema, qualifier=alias)


class TestCardinality:
    def test_scan(self, big_catalog, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        assert estimator.estimate(_scan(big_catalog, "products", "p")) == \
            1_000

    def test_filter_range(self, big_catalog, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        plan = FilterNode(_scan(big_catalog, "products", "p"),
                          col("p.price") > 90)
        estimate = estimator.estimate(plan)
        assert 50 <= estimate <= 200  # ~10% of 1000

    def test_filter_equality(self, big_catalog, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        plan = FilterNode(_scan(big_catalog, "products", "p"),
                          col("p.ptype") == "sedan")
        estimate = estimator.estimate(plan)
        assert 80 <= estimate <= 120  # 1/10 of types

    def test_flipped_comparison(self, big_catalog, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        from repro.relational.expressions import Compare, Literal, ColumnRef

        plan = FilterNode(_scan(big_catalog, "products", "p"),
                          Compare("<", Literal(90.0),
                                  ColumnRef("p.price")))
        estimate = estimator.estimate(plan)
        assert 50 <= estimate <= 200

    def test_equi_join_ndv(self, big_catalog, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        plan = JoinNode(_scan(big_catalog, "transactions", "t"),
                        _scan(big_catalog, "products", "p"),
                        JoinType.INNER, ["t.pid"], ["p.pid"])
        estimate = estimator.estimate(plan)
        assert 4_000 <= estimate <= 6_000  # FK join ~ |transactions|

    def test_semantic_filter_sampled(self, big_catalog, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        plan = SemanticFilterNode(_scan(big_catalog, "products", "p"),
                                  "p.ptype", "clothes", "wiki-ft-100", 0.7)
        selectivity = estimator.semantic_filter_selectivity(plan)
        # 4 of 10 types are clothes-family
        assert 0.2 <= selectivity <= 0.6

    def test_semantic_join_sampled(self, big_catalog, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        plan = SemanticJoinNode(_scan(big_catalog, "products", "p"),
                                _scan(big_catalog, "kb", "k"),
                                "p.ptype", "k.label", "wiki-ft-100", 0.9)
        selectivity = estimator.semantic_join_selectivity(plan)
        assert 0.0 < selectivity < 0.2

    def test_semantic_estimates_cached(self, big_catalog, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        plan = SemanticFilterNode(_scan(big_catalog, "products", "p"),
                                  "p.ptype", "clothes", "wiki-ft-100", 0.7)
        first = estimator.semantic_filter_selectivity(plan)
        second = estimator.semantic_filter_selectivity(plan)
        assert first == second

    def test_memo_estimates_each_node_once_per_block(
            self, big_catalog, registry, monkeypatch):
        estimator = CardinalityEstimator(big_catalog, registry)
        scan = _scan(big_catalog, "products", "p")
        plan = FilterNode(scan, col("p.price") > 80)
        calls = []
        estimate_rows = ScanNode.estimate_rows
        monkeypatch.setattr(
            ScanNode, "estimate_rows",
            lambda node, est: calls.append(node) or estimate_rows(node, est))
        with estimator.memoized():
            first = estimator.estimate(plan)
            assert estimator.estimate(plan) == first
            estimator.estimate(scan)
        assert calls == [scan]
        # outside the block every call estimates afresh
        assert estimator.estimate(plan) == first
        assert calls == [scan, scan]

    def test_optimize_memo_never_spans_calls(self, big_catalog, registry):
        """The estimator outlives one ``optimize``; a table that grows
        between two calls must re-estimate the very same plan node."""
        plan = _scan(big_catalog, "kb", "k")
        optimizer = Optimizer(big_catalog, registry)
        optimizer.optimize(plan)
        before = optimizer.last_report.estimated_cost
        assert optimizer.estimator._memo is None
        kb = big_catalog.get("kb")
        big_catalog.register("kb", Table.from_dict({
            name: kb.column(name).tolist() * 10
            for name in kb.schema.names}), replace=True)
        optimizer.optimize(plan)
        assert optimizer.last_report.estimated_cost > before

    def test_column_ndv(self, big_catalog, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        scan = _scan(big_catalog, "products", "p")
        assert estimator.column_ndv("p.ptype", scan) == 10


class TestCostModel:
    def test_plan_cost_monotone_in_children(self, big_catalog, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        cost_model = CostModel(estimator)
        scan = _scan(big_catalog, "products", "p")
        filtered = FilterNode(scan, col("p.price") > 90)
        assert cost_model.cost(filtered).total > cost_model.cost(scan).total

    def test_cost_addition(self):
        assert (Cost(1, 2) + Cost(3, 4)).total == 10


class TestTraits:
    """A node is a model operator exactly when it declares a model — the
    classification the Fig. 5 placement and simulator read."""

    def test_model_operators_flagged(self, big_catalog):
        scan = _scan(big_catalog, "products", "p")
        kb = _scan(big_catalog, "kb", "k")
        model_operators = [
            SemanticFilterNode(scan, "p.ptype", "x", "m", 0.9),
            # the data-induced semi-filter embeds its probes too
            SemanticSemiFilterNode(scan, "p.ptype", ["x", "y"], "m", 0.9),
            SemanticJoinNode(scan, kb, "p.ptype", "k.label", "m", 0.9),
            SemanticGroupByNode(scan, "p.ptype", "m", 0.9),
        ]
        for node in model_operators:
            assert is_model_operator(node), node.label()
        relational = [
            scan,
            JoinNode(scan, kb, JoinType.CROSS),
            FilterNode(scan, col("p.price") > 5),
        ]
        for node in relational:
            assert not is_model_operator(node), node.label()


class TestJoinOrder:
    def test_small_build_side_chosen(self, big_catalog, registry):
        """DP should join products with kb (small) before transactions."""
        estimator = CardinalityEstimator(big_catalog, registry)
        cost_model = CostModel(estimator)
        products = _scan(big_catalog, "products", "p")
        transactions = _scan(big_catalog, "transactions", "t")
        kb_small = FilterNode(_scan(big_catalog, "kb", "k"),
                              col("k.category") == "clothes")
        # deliberately bad order: big join first
        plan = JoinNode(
            JoinNode(transactions, products, JoinType.INNER,
                     ["t.pid"], ["p.pid"]),
            kb_small, JoinType.INNER, ["p.ptype"], ["k.label"])
        reordered = JoinOrderOptimizer(estimator, cost_model).run(plan)
        assert cost_model.cost(reordered).total <= \
            cost_model.cost(plan).total

    def test_result_equivalence(self, big_catalog, big_context, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        cost_model = CostModel(estimator)
        products = _scan(big_catalog, "products", "p")
        transactions = _scan(big_catalog, "transactions", "t")
        plan = JoinNode(transactions, products, JoinType.INNER,
                        ["t.pid"], ["p.pid"])
        reordered = JoinOrderOptimizer(estimator, cost_model).run(plan)
        a = execute_plan(plan, big_context)
        b = execute_plan(reordered, big_context)
        assert a.num_rows == b.num_rows


class TestDip:
    def test_equi_join_in_list(self, big_catalog, big_context, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        products = _scan(big_catalog, "products", "p")
        kb_small = FilterNode(_scan(big_catalog, "kb", "k"),
                              col("k.category") == "clothes")
        plan = JoinNode(products, kb_small, JoinType.INNER,
                        ["p.ptype"], ["k.label"])
        dip = DataInducedPredicates(estimator, big_context, row_limit=16)
        rewritten = dip.run(plan)
        assert dip.applied == 1
        assert isinstance(rewritten.left, FilterNode)
        a = execute_plan(plan, big_context)
        b = execute_plan(rewritten, big_context)
        assert a.num_rows == b.num_rows

    def test_semantic_join_semi_filter(self, big_catalog, big_context,
                                       registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        products = _scan(big_catalog, "products", "p")
        kb = _scan(big_catalog, "kb", "k")
        plan = SemanticJoinNode(products, kb, "p.ptype", "k.label",
                                "wiki-ft-100", 0.9)
        dip = DataInducedPredicates(estimator, big_context, row_limit=16)
        rewritten = dip.run(plan)
        assert dip.applied == 1
        assert isinstance(rewritten.left, SemanticSemiFilterNode)
        a = execute_plan(plan, big_context)
        b = execute_plan(rewritten, big_context)
        assert sorted(r["p.pid"] for r in a.to_rows()) == \
            sorted(r["p.pid"] for r in b.to_rows())

    def test_respects_row_limit(self, big_catalog, big_context, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        products = _scan(big_catalog, "products", "p")
        transactions = _scan(big_catalog, "transactions", "t")
        plan = JoinNode(transactions, products, JoinType.INNER,
                        ["t.pid"], ["p.pid"])
        dip = DataInducedPredicates(estimator, big_context, row_limit=16)
        rewritten = dip.run(plan)
        assert dip.applied == 0
        assert rewritten.label() == plan.label()

    def test_not_reapplied(self, big_catalog, big_context, registry):
        estimator = CardinalityEstimator(big_catalog, registry)
        products = _scan(big_catalog, "products", "p")
        kb = _scan(big_catalog, "kb", "k")
        plan = SemanticJoinNode(products, kb, "p.ptype", "k.label",
                                "wiki-ft-100", 0.9)
        dip = DataInducedPredicates(estimator, big_context, row_limit=16)
        once = dip.run(plan)
        again = dip.run(once)
        assert dip.applied == 1
        semi_filters = [n for n in again.walk()
                        if isinstance(n, SemanticSemiFilterNode)]
        assert len(semi_filters) == 1


class TestPhysicalSelection:
    def test_join_algorithm_hint(self, big_catalog):
        plan = JoinNode(_scan(big_catalog, "transactions", "t"),
                        _scan(big_catalog, "products", "p"),
                        JoinType.INNER, ["t.pid"], ["p.pid"])
        PhysicalSelector().run(plan)
        assert plan.hints["algorithm"] == "hash"


class TestFullPipeline:
    def test_optimized_equals_naive(self, big_catalog, big_context,
                                    registry):
        products = _scan(big_catalog, "products", "p")
        kb = _scan(big_catalog, "kb", "k")
        join = SemanticJoinNode(products, kb, "p.ptype", "k.label",
                                "wiki-ft-100", 0.9)
        plan = FilterNode(join, (col("p.price") > 80)
                          & (col("k.category") == "clothes"))
        optimizer = Optimizer(big_catalog, registry,
                              execution_context=big_context)
        optimized = optimizer.optimize(plan)
        naive = execute_plan(plan, big_context)
        fast = execute_plan(optimized, big_context)
        key = lambda t: sorted((r["p.pid"], r["k.label"])
                               for r in t.to_rows())
        assert key(naive) == key(fast)
        assert optimizer.last_report.rules_applied

    def test_stage_toggles(self, big_catalog, big_context, registry):
        products = _scan(big_catalog, "products", "p")
        kb = _scan(big_catalog, "kb", "k")
        join = SemanticJoinNode(products, kb, "p.ptype", "k.label",
                                "wiki-ft-100", 0.9)
        plan = FilterNode(join, col("p.price") > 80)
        config = OptimizerConfig(enable_rules=False, enable_dip=False,
                                 enable_join_order=False,
                                 enable_physical=False, enable_prune=False)
        optimizer = Optimizer(big_catalog, registry, config=config,
                              execution_context=big_context)
        unchanged = optimizer.optimize(plan)
        assert unchanged.label() == plan.label()
        assert not optimizer.last_report.rules_applied

    def test_report_estimated_cost(self, big_catalog, big_context,
                                   registry):
        plan = _scan(big_catalog, "products", "p")
        optimizer = Optimizer(big_catalog, registry,
                              execution_context=big_context)
        optimizer.optimize(plan)
        assert optimizer.last_report.estimated_cost > 0
