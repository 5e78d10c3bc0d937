"""Tests for less-travelled branches: greedy join ordering, union column
renaming, explain/profiler rendering, multi-key DIP skip, and misc error
paths."""

import numpy as np
import pytest

from repro.engine.explain import explain_plan
from repro.engine.profiler import QueryProfile
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.dip import DataInducedPredicates
from repro.optimizer.join_order import JoinOrderOptimizer
from repro.relational.expressions import col
from repro.relational.logical import (
    FilterNode,
    JoinNode,
    JoinType,
    ProjectNode,
    ScanNode,
    UnionNode,
)
from repro.relational.physical import build_physical, execute_plan
from repro.storage.catalog import Catalog
from repro.storage.table import Table


class TestGreedyJoinOrder:
    def test_greedy_handles_many_relations(self, registry):
        """Beyond dp_relation_limit the greedy path must kick in and
        still produce a connected, correct plan."""
        catalog = Catalog()
        n_relations = 6
        tables = []
        for index in range(n_relations):
            table = Table.from_dict({
                f"k{index}": list(range(10)),
                f"k{index + 1}": list(range(10)),
            })
            name = f"t{index}"
            catalog.register(name, table)
            tables.append(ScanNode(name, table.schema, qualifier=name))
        # chain joins t0-t1-...-t5
        plan = tables[0]
        for index in range(1, n_relations):
            plan = JoinNode(plan, tables[index], JoinType.INNER,
                            [f"t{index - 1}.k{index}"],
                            [f"t{index}.k{index}"])
        estimator = CardinalityEstimator(catalog, registry)
        cost_model = CostModel(estimator)
        optimizer = JoinOrderOptimizer(estimator, cost_model,
                                       dp_relation_limit=3)
        reordered = optimizer.run(plan)
        context = __import__(
            "repro.relational.physical", fromlist=["ExecutionContext"]
        ).ExecutionContext(catalog=catalog, models=registry)
        assert execute_plan(reordered, context).num_rows == \
            execute_plan(plan, context).num_rows == 10

    def test_dp_equals_greedy_results(self, registry):
        catalog = Catalog()
        a = Table.from_dict({"x": [1, 2, 3], "y": [1, 1, 2]})
        b = Table.from_dict({"y": [1, 2], "z": [10, 20]})
        c = Table.from_dict({"z": [10, 20, 30], "w": [0, 1, 2]})
        for name, table in [("a", a), ("b", b), ("c", c)]:
            catalog.register(name, table)
        scan_a = ScanNode("a", a.schema, qualifier="a")
        scan_b = ScanNode("b", b.schema, qualifier="b")
        scan_c = ScanNode("c", c.schema, qualifier="c")
        plan = JoinNode(JoinNode(scan_a, scan_b, JoinType.INNER,
                                 ["a.y"], ["b.y"]),
                        scan_c, JoinType.INNER, ["b.z"], ["c.z"])
        estimator = CardinalityEstimator(catalog, registry)
        cost_model = CostModel(estimator)
        context = __import__(
            "repro.relational.physical", fromlist=["ExecutionContext"]
        ).ExecutionContext(catalog=catalog, models=registry)
        dp_plan = JoinOrderOptimizer(estimator, cost_model,
                                     dp_relation_limit=10).run(plan)
        greedy_plan = JoinOrderOptimizer(estimator, cost_model,
                                         dp_relation_limit=2).run(plan)
        # join reordering may permute column order; compare row contents
        rows = lambda p: sorted(
            str(sorted(r.items()))
            for r in execute_plan(p, context).to_rows())
        assert rows(dp_plan) == rows(greedy_plan) == rows(plan)


class TestUnionRenaming:
    def test_union_renames_mismatched_batches(self, context, catalog,
                                              products_table):
        renamed = products_table.renamed({"pid": "id"})
        catalog.register("renamed_products", renamed)
        left = ScanNode("products", products_table.schema)
        right_raw = ScanNode("renamed_products", renamed.schema)
        right = ProjectNode(right_raw, [
            (col(c), c) for c in renamed.schema.names])
        # align column names through projection aliasing
        right = ProjectNode(right_raw, [
            (col("id"), "pid"), (col("ptype"), "ptype"),
            (col("price"), "price"), (col("brand"), "brand")])
        plan = UnionNode([left, right])
        result = execute_plan(plan, context)
        assert result.num_rows == 2 * products_table.num_rows


class TestExplainAndProfile:
    def test_explain_without_estimator(self, products_table):
        scan = ScanNode("products", products_table.schema, qualifier="p")
        text = explain_plan(FilterNode(scan, col("p.price") > 1))
        assert "Filter" in text
        assert "rows~" not in text

    def test_explain_with_cost(self, catalog, registry, products_table):
        estimator = CardinalityEstimator(catalog, registry)
        cost_model = CostModel(estimator)
        scan = ScanNode("products", products_table.schema, qualifier="p")
        text = explain_plan(FilterNode(scan, col("p.price") > 1),
                            estimator, cost_model)
        assert "rows~" in text and "cost~" in text

    def test_profile_pretty_renders_tree(self, context, products_table):
        scan = ScanNode("products", products_table.schema, qualifier="p")
        plan = FilterNode(scan, col("p.price") > 1)
        root = build_physical(plan, context)
        root.execute()
        profile = QueryProfile.from_tree(root, 0.001)
        text = profile.pretty()
        assert "FilterOp" in text and "ScanOp" in text
        assert "ms" in text

    def test_profile_depth_tracks_nesting(self, context, products_table):
        scan = ScanNode("products", products_table.schema, qualifier="p")
        plan = FilterNode(FilterNode(scan, col("p.price") > 1),
                          col("p.price") < 1000)
        root = build_physical(plan, context)
        root.execute()
        profile = QueryProfile.from_tree(root, 0.001)
        # the two filters run as one FilterOp over the scan
        assert [(op.label, op.depth) for op in profile.operators] == [
            ("FilterOp", 0), ("ScanOp", 1)]


class TestDipEdgeCases:
    def test_multi_key_join_skipped(self, registry, context, catalog):
        left = Table.from_dict({"a": [1, 2], "b": ["x", "y"],
                                "v": [1, 2]})
        right = Table.from_dict({"a": [1], "b": ["x"], "w": [10]})
        catalog.register("dip_l", left)
        catalog.register("dip_r", right)
        plan = JoinNode(ScanNode("dip_l", left.schema, qualifier="l"),
                        ScanNode("dip_r", right.schema, qualifier="r"),
                        JoinType.INNER, ["l.a", "l.b"], ["r.a", "r.b"])
        estimator = CardinalityEstimator(catalog, registry)
        dip = DataInducedPredicates(estimator, context, row_limit=64,
                                    min_probe_build_ratio=1.0)
        rewritten = dip.run(plan)
        assert dip.applied == 0  # multi-key equi joins are not rewritten
        assert execute_plan(rewritten, context).num_rows == 1

    def test_left_join_not_rewritten(self, registry, context, catalog,
                                     products_table, kb_table):
        plan = JoinNode(ScanNode("products", products_table.schema,
                                 qualifier="p"),
                        ScanNode("kb", kb_table.schema, qualifier="k"),
                        JoinType.LEFT, ["p.ptype"], ["k.label"])
        estimator = CardinalityEstimator(catalog, registry)
        dip = DataInducedPredicates(estimator, context, row_limit=64)
        dip.run(plan)
        assert dip.applied == 0


class TestMiscErrorPaths:
    def test_error_hierarchy(self):
        from repro import errors

        for name in ["SchemaError", "CatalogError", "ExpressionError",
                     "PlanError", "OptimizerError", "ExecutionError",
                     "ModelError", "ParseError", "BindError",
                     "IntegrationError", "HardwareError", "SourceError"]:
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_parse_error_carries_position(self):
        from repro.errors import ParseError

        error = ParseError("boom", position=17)
        assert error.position == 17

    def test_table_row_accessor(self, products_table):
        row = products_table.row(2)
        assert row["ptype"] == "sedan"

    def test_schema_repr_readable(self, products_table):
        assert "ptype:string" in repr(products_table.schema)

    def test_physical_walk(self, context, products_table):
        scan = ScanNode("products", products_table.schema, qualifier="p")
        plan = FilterNode(scan, col("p.price") > 1)
        root = build_physical(plan, context)
        labels = [op.label() for op in root.walk()]
        assert labels == ["FilterOp", "ScanOp"]

    def test_batch_boundary_semantics(self, context, products_table):
        """batch_size=1 must agree with batch_size=big for every op."""
        from dataclasses import replace

        scan = ScanNode("products", products_table.schema, qualifier="p")
        plan = FilterNode(scan, col("p.price") > 10)
        tiny = replace(context, batch_size=1)
        big = replace(context, batch_size=10_000)
        assert execute_plan(plan, tiny).num_rows == \
            execute_plan(plan, big).num_rows
