"""Tests for physical operators: every operator, every join type."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.relational.expressions import AggExpr, AggFunc, col
from repro.relational.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    JoinType,
    LimitNode,
    ProjectNode,
    ScanNode,
    SortNode,
    UnionNode,
)
from repro.relational.physical import build_physical, execute_plan
from repro.storage.table import Table


@pytest.fixture()
def scan_products(products_table):
    return ScanNode("products", products_table.schema, qualifier="p")


@pytest.fixture()
def orders_catalog(catalog):
    orders = Table.from_dict({
        "oid": [1, 2, 3, 4, 5],
        "ptype": ["sneakers", "sneakers", "sedan", "ghost", "parka"],
        "qty": [1, 2, 3, 4, 5],
    })
    catalog.register("orders", orders)
    return catalog


class TestScanFilterProject:
    def test_scan_batches(self, context, scan_products):
        # without a limit the scan is one batch of all 6 rows
        op = build_physical(scan_products, context)
        assert [b.num_rows for b in op.batches()] == [6]
        # under a limit it streams batch_size = 3 slices and stops early:
        # a limit of 2 pulls one batch, not both
        root = build_physical(LimitNode(scan_products, 2), context)
        scan = root.children[0]
        pulled = []
        inner = scan.batches

        def counted():
            for batch in inner():
                pulled.append(batch.num_rows)
                yield batch

        scan.batches = counted
        assert root.execute().num_rows == 2
        assert pulled == [3]

    def test_filter(self, context, scan_products):
        plan = FilterNode(scan_products, col("p.price") > 100)
        result = execute_plan(plan, context)
        assert result.num_rows == 3  # parka, sedan, kitten

    def test_filter_empty_result(self, context, scan_products):
        plan = FilterNode(scan_products, col("p.price") > 1e9)
        result = execute_plan(plan, context)
        assert result.num_rows == 0
        assert result.schema == scan_products.schema

    def test_project_computes(self, context, scan_products):
        plan = ProjectNode(scan_products,
                           [(col("p.price") * 2, "double"),
                            (col("p.ptype"), "kind")])
        result = execute_plan(plan, context)
        assert result.schema.names == ["double", "kind"]
        assert result.column("double")[0] == pytest.approx(50.0)

    def test_operator_metrics_populated(self, context, scan_products):
        plan = FilterNode(scan_products, col("p.price") > 100)
        op = build_physical(plan, context)
        op.execute()
        assert op.rows_out == 3
        assert op.elapsed >= 0.0


class TestLimitSortUnion:
    def test_limit_stops_early(self, context, scan_products):
        plan = LimitNode(scan_products, 4)
        result = execute_plan(plan, context)
        assert result.num_rows == 4

    def test_limit_zero(self, context, scan_products):
        assert execute_plan(LimitNode(scan_products, 0),
                            context).num_rows == 0

    def test_limit_beyond_input(self, context, scan_products):
        assert execute_plan(LimitNode(scan_products, 100),
                            context).num_rows == 6

    def test_sort_descending(self, context, scan_products):
        plan = SortNode(scan_products, [("p.price", False)])
        result = execute_plan(plan, context)
        prices = result.column("p.price")
        assert np.all(np.diff(prices) <= 0)

    def test_union_all(self, context, scan_products):
        plan = UnionNode([scan_products, scan_products])
        result = execute_plan(plan, context)
        assert result.num_rows == 12


class TestHashJoin:
    def test_inner(self, orders_catalog, context, scan_products):
        orders = ScanNode("orders", orders_catalog.get("orders").schema,
                          qualifier="o")
        plan = JoinNode(orders, scan_products, JoinType.INNER,
                        ["o.ptype"], ["p.ptype"])
        result = execute_plan(plan, context)
        # sneakers x2, sedan, parka match; ghost does not
        assert result.num_rows == 4
        assert "p.price" in result.schema

    def test_left(self, orders_catalog, context, scan_products):
        orders = ScanNode("orders", orders_catalog.get("orders").schema,
                          qualifier="o")
        plan = JoinNode(orders, scan_products, JoinType.LEFT,
                        ["o.ptype"], ["p.ptype"])
        result = execute_plan(plan, context)
        assert result.num_rows == 5
        ghost_rows = [r for r in result.to_rows() if r["o.ptype"] == "ghost"]
        assert ghost_rows[0]["p.ptype"] is None

    def test_semi(self, orders_catalog, context, scan_products):
        orders = ScanNode("orders", orders_catalog.get("orders").schema,
                          qualifier="o")
        plan = JoinNode(orders, scan_products, JoinType.SEMI,
                        ["o.ptype"], ["p.ptype"])
        result = execute_plan(plan, context)
        assert result.num_rows == 4
        assert result.schema == orders.schema

    def test_anti(self, orders_catalog, context, scan_products):
        orders = ScanNode("orders", orders_catalog.get("orders").schema,
                          qualifier="o")
        plan = JoinNode(orders, scan_products, JoinType.ANTI,
                        ["o.ptype"], ["p.ptype"])
        result = execute_plan(plan, context)
        assert result.column("o.ptype").tolist() == ["ghost"]

    def test_multi_key(self, context, catalog):
        left = Table.from_dict({"a": [1, 1, 2], "b": ["x", "y", "x"],
                                "v": [10, 20, 30]})
        right = Table.from_dict({"a": [1, 2], "b": ["x", "x"],
                                 "w": [100, 200]})
        catalog.register("l", left)
        catalog.register("r", right)
        plan = JoinNode(ScanNode("l", left.schema, qualifier="l"),
                        ScanNode("r", right.schema, qualifier="r"),
                        JoinType.INNER, ["l.a", "l.b"], ["r.a", "r.b"])
        result = execute_plan(plan, context)
        assert result.num_rows == 2
        assert sorted(result.column("w").tolist()) == [100, 200]

    def test_extra_predicate(self, orders_catalog, context, scan_products):
        orders = ScanNode("orders", orders_catalog.get("orders").schema,
                          qualifier="o")
        plan = JoinNode(orders, scan_products, JoinType.INNER,
                        ["o.ptype"], ["p.ptype"],
                        extra_predicate=col("o.qty") > 1)
        result = execute_plan(plan, context)
        assert result.num_rows == 3


class TestNestedLoopJoin:
    def test_cross(self, context, scan_products, kb_table):
        kb = ScanNode("kb", kb_table.schema, qualifier="k")
        plan = JoinNode(scan_products, kb, JoinType.CROSS)
        result = execute_plan(plan, context)
        assert result.num_rows == 6 * 6

    def test_cross_pairs_in_left_slices(self, context, scan_products,
                                        kb_table):
        # the scan is one 6-row batch; pairs form per batch_size = 3
        # left rows, so the pair arrays stay batch_size x right rows
        kb = ScanNode("kb", kb_table.schema, qualifier="k")
        op = build_physical(JoinNode(scan_products, kb, JoinType.CROSS),
                            context)
        batches = list(op.batches())
        assert [b.num_rows for b in batches] == [3 * 6, 3 * 6]
        assert Table.concat(batches).column("p.pid").tolist() == [
            pid for pid in range(1, 7) for _ in range(6)]

    def test_theta(self, context, scan_products, kb_table):
        kb = ScanNode("kb", kb_table.schema, qualifier="k")
        plan = JoinNode(scan_products, kb, JoinType.CROSS,
                        extra_predicate=col("p.ptype") == col("k.label"))
        result = execute_plan(plan, context)
        assert result.num_rows == 0  # no exact label matches (the point!)

    @pytest.mark.parametrize("join_type", [
        JoinType.LEFT, JoinType.SEMI, JoinType.ANTI])
    def test_keyless_join_must_be_inner_or_cross(self, catalog, join_type):
        # nested loops only pair rows: a keyless LEFT used to run as
        # INNER (dropping the unmatched row 3) and SEMI / ANTI crashed
        # on the right side's columns, so such a node is not a plan
        left = Table.from_dict({"id": [1, 2, 3], "a": [1, 2, 9]})
        right = Table.from_dict({"x": [5, 6]})
        catalog.register("l", left)
        catalog.register("r", right)
        scan_l = ScanNode("l", left.schema)
        scan_r = ScanNode("r", right.schema)
        with pytest.raises(PlanError, match=f"{join_type.value} join"):
            JoinNode(scan_l, scan_r, join_type,
                     extra_predicate=col("a") < col("x"))
        with pytest.raises(PlanError):
            JoinNode(scan_l, scan_r, join_type)
        keyed = JoinNode(scan_l, scan_r, join_type, ["a"], ["x"])
        with pytest.raises(PlanError):          # clones re-validate
            keyed.with_children(keyed.children, left_keys=[],
                                right_keys=[])

    def test_keyless_inner_theta_join_pairs_matches(self, context, catalog):
        left = Table.from_dict({"id": [1, 2, 3], "a": [1, 2, 9]})
        right = Table.from_dict({"x": [5, 6]})
        catalog.register("l", left)
        catalog.register("r", right)
        plan = JoinNode(ScanNode("l", left.schema),
                        ScanNode("r", right.schema), JoinType.INNER,
                        extra_predicate=col("a") < col("x"))
        result = execute_plan(plan, context)
        assert result.column("id").tolist() == [1, 1, 2, 2]
        assert result.column("x").tolist() == [5, 6, 5, 6]


class TestAggregate:
    def test_global_aggregate(self, context, scan_products):
        plan = AggregateNode(scan_products, [], [
            AggExpr(AggFunc.COUNT, None, "n"),
            AggExpr(AggFunc.SUM, col("p.price"), "total"),
            AggExpr(AggFunc.MIN, col("p.price"), "lo"),
            AggExpr(AggFunc.MAX, col("p.price"), "hi"),
            AggExpr(AggFunc.AVG, col("p.price"), "mean"),
        ])
        row = execute_plan(plan, context).to_rows()[0]
        assert row["n"] == 6
        assert row["total"] == pytest.approx(9462.0)
        assert row["lo"] == pytest.approx(2.0)
        assert row["hi"] == pytest.approx(9000.0)
        assert row["mean"] == pytest.approx(9462.0 / 6)

    def test_grouped(self, context, scan_products):
        plan = AggregateNode(scan_products, ["p.brand"], [
            AggExpr(AggFunc.COUNT, None, "n"),
        ])
        rows = {r["p.brand"]: r["n"] for r in
                execute_plan(plan, context).to_rows()}
        assert rows == {"acme": 3, "globex": 2, "initech": 1}

    def test_count_distinct(self, context, scan_products):
        plan = AggregateNode(scan_products, [], [
            AggExpr(AggFunc.COUNT_DISTINCT, col("p.brand"), "brands"),
        ])
        assert execute_plan(plan, context).to_rows()[0]["brands"] == 3

    def test_min_max_strings(self, context, scan_products):
        plan = AggregateNode(scan_products, [], [
            AggExpr(AggFunc.MIN, col("p.brand"), "first"),
            AggExpr(AggFunc.MAX, col("p.brand"), "last"),
        ])
        row = execute_plan(plan, context).to_rows()[0]
        assert row["first"] == "acme"
        assert row["last"] == "initech"


class TestExecuteVsBatches:
    def test_equivalence(self, context, scan_products):
        plan = FilterNode(scan_products, col("p.price") > 10)
        from_batches = Table.concat(
            list(build_physical(plan, context).batches()))
        materialized = execute_plan(plan, context)
        assert from_batches.num_rows == materialized.num_rows
