"""The one executor against the operator-at-a-time reference.

The interpreted Filter / Project / Limit / Scan keep three wins of the
old compiled tier: a run of consecutive filters is one ``FilterOp``
(masks ANDed, one gather), a scan emits its whole table unless a limit
above can stop early, and ``Compare`` / ``Arith`` take a ``Literal``
operand as a scalar.  Every result must equal, values and dtypes,
``tests/reference_operators.reference_build``: one op per node, scans
in ``batch_size`` slices, literals broadcast to n-row arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_operators import reference_build, reference_evaluate
from repro.engine.session import Session
from repro.relational.expressions import (
    And,
    Arith,
    ColumnRef,
    Compare,
    Expr,
    Func,
    InList,
    Literal,
    Not,
    Or,
)
from repro.relational.logical import (
    FilterNode,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
)
from repro.relational.physical import (
    ExecutionContext,
    FilterOp,
    build_physical,
    filter_run,
)
from repro.storage.catalog import Catalog
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.storage.types import DataType


def _catalog_with(table: Table, name: str = "t") -> Catalog:
    catalog = Catalog()
    catalog.register(name, table)
    return catalog


def run_reference_and_engine(plan: LogicalPlan, catalog: Catalog,
                             batch_size: int = 3):
    """Execute ``plan`` through the reference and through
    ``build_physical``; return both results plus the engine's tree
    (small batches exercise the streaming path under a limit)."""
    context = ExecutionContext(catalog=catalog, batch_size=batch_size)
    expected = reference_build(plan, context).execute()
    root = build_physical(plan, context)
    return expected, root.execute(), root


def assert_bit_identical(expected: Table, actual: Table) -> None:
    assert actual.schema.names == expected.schema.names
    for name in expected.schema.names:
        want, got = expected.column(name), actual.column(name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want)   # exact; NaN == NaN


def assert_runs_merged(plan: LogicalPlan, root) -> None:
    """Every run of consecutive filters lowered to one FilterOp."""
    ops = [op for op in root.walk() if isinstance(op, FilterOp)]
    assert not any(isinstance(op.children[0], FilterOp) for op in ops)
    assert sum(len(op.predicates) for op in ops) == sum(
        isinstance(node, FilterNode) for node in plan.walk())


# ---------------------------------------------------------------------------
# Scalar literals: Compare / Arith take a Literal operand as a scalar
# ---------------------------------------------------------------------------
_BATCH = Table.from_dict({
    "i": [1, 2, 3, 4, -5],
    "f": [0.5, float("nan"), 2.5, -3.5, 1.0],
    "s": ["x", None, "x", "z", "y"],
    "flag": [True, False, True, True, False],
})

_SCALAR_CASES = [
    # int column vs int / float / NumPy-scalar literals
    Compare(">", ColumnRef("i"), Literal(2)),
    Compare("<=", ColumnRef("i"), Literal(2.5)),
    Compare("=", ColumnRef("i"), Literal(np.int64(3))),
    Compare(">=", ColumnRef("i"), Literal(np.float64(1.5))),
    Compare("<", ColumnRef("i"), Literal(np.float32(2.1))),
    Compare("!=", ColumnRef("i"), Literal(True)),
    # float column vs int / NaN / NumPy-scalar literals
    Compare(">", ColumnRef("f"), Literal(0)),
    Compare("=", ColumnRef("f"), Literal(float("nan"))),
    Compare("!=", ColumnRef("f"), Literal(float("nan"))),
    Compare("<", ColumnRef("f"), Literal(np.float32(0.1))),
    # strings and None
    Compare("=", ColumnRef("s"), Literal("x")),
    Compare("!=", ColumnRef("s"), Literal("x")),
    Compare("=", ColumnRef("s"), Literal(None)),
    Compare("=", ColumnRef("f"), Literal(None)),
    Compare("=", ColumnRef("i"), Literal("x")),
    # the literal on the left
    Compare(">", Literal(2), ColumnRef("i")),
    Compare("=", Literal("z"), ColumnRef("s")),
    # arithmetic: int / float / NumPy-scalar / NaN / bool literals
    Arith("+", ColumnRef("i"), Literal(2)),
    Arith("*", ColumnRef("i"), Literal(0.5)),
    Arith("-", ColumnRef("i"), Literal(np.int64(7))),
    Arith("/", ColumnRef("i"), Literal(np.float32(4.0))),
    Arith("+", ColumnRef("f"), Literal(float("nan"))),
    Arith("*", ColumnRef("f"), Literal(3)),
    Arith("+", ColumnRef("i"), Literal(True)),
    Arith("-", Literal(10), ColumnRef("i")),
    Arith("/", Literal(1.0), ColumnRef("f")),
    # nested: a literal deep inside a tree
    Compare(">", Arith("*", ColumnRef("i"), Literal(2)), Literal(3.0)),
    And(Compare(">", ColumnRef("i"), Literal(0)),
        Compare("=", ColumnRef("s"), Literal("x"))),
    # no array side: both literals still broadcast
    Compare("=", Literal(1), Literal(1.0)),
    Arith("+", Literal(1), Literal(2)),
]


class TestScalarLiterals:
    @pytest.mark.parametrize("expr", _SCALAR_CASES, ids=repr)
    def test_scalar_matches_broadcast(self, expr):
        with np.errstate(all="ignore"):
            got = expr.evaluate(_BATCH)
            want = reference_evaluate(expr, _BATCH)
        assert isinstance(got, np.ndarray)
        assert got.shape == (_BATCH.num_rows,)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)   # exact; NaN == NaN

    @pytest.mark.parametrize("expr", [
        Compare("<", ColumnRef("s"), Literal(None)),
        Compare("<", ColumnRef("f"), Literal("x")),
        Arith("+", ColumnRef("i"), Literal("x")),
    ], ids=repr)
    def test_both_forms_reject_the_same_operands(self, expr):
        with pytest.raises(TypeError):
            reference_evaluate(expr, _BATCH)
        with pytest.raises(TypeError):
            expr.evaluate(_BATCH)

    def test_literal_is_not_broadcast(self, monkeypatch):
        def broadcast(self, batch):
            raise AssertionError("literal broadcast to an array")

        monkeypatch.setattr(Literal, "evaluate", broadcast)
        mask = Compare(">", ColumnRef("i"), Literal(2)).evaluate(_BATCH)
        assert mask.tolist() == [False, False, True, True, False]


# ---------------------------------------------------------------------------
# One executor vs the operator-at-a-time reference (property-based)
# ---------------------------------------------------------------------------
_SCHEMA = Schema([Field("i", DataType.INT64), Field("f", DataType.FLOAT64),
                  Field("s", DataType.STRING)])

_NUMERIC = ("i", "f")
_CMP = ("=", "!=", "<", "<=", ">", ">=")


@st.composite
def _tables(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    ints = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    floats = draw(st.lists(
        st.floats(-2.0, 2.0, allow_nan=False) | st.just(float("nan")),
        min_size=n, max_size=n))
    strings = draw(st.lists(
        st.sampled_from(["aa", "bb", "cc", None]), min_size=n, max_size=n))
    return Table.from_dict({"i": ints, "f": floats, "s": strings}, _SCHEMA)


@st.composite
def _predicates(draw, live):
    """A boolean expression over the live columns (depth <= 2)."""
    numeric = [c for c in live if live[c] in _NUMERIC]
    strings = [c for c in live if live[c] == "s"]

    def leaf():
        choices = []
        if numeric:
            column = draw(st.sampled_from(sorted(numeric)))
            value = draw(st.integers(-3, 3)) if live[column] == "i" \
                else draw(st.floats(-2.0, 2.0, allow_nan=False))
            choices.append(Compare(draw(st.sampled_from(_CMP)),
                                   ColumnRef(column), Literal(value)))
        if strings:
            column = draw(st.sampled_from(sorted(strings)))
            if draw(st.booleans()):
                choices.append(Compare("=", ColumnRef(column),
                                       Literal(draw(st.sampled_from(
                                           ["aa", "bb", "zz"])))))
            else:
                values = draw(st.lists(st.sampled_from(["aa", "bb", "cc"]),
                                       min_size=1, max_size=3))
                choices.append(InList(ColumnRef(column), values))
        return draw(st.sampled_from(choices))

    predicate = leaf()
    for _ in range(draw(st.integers(0, 2))):
        combiner = draw(st.sampled_from(["and", "or", "not"]))
        if combiner == "and":
            predicate = And(predicate, leaf())
        elif combiner == "or":
            predicate = Or(predicate, leaf())
        else:
            predicate = Not(predicate)
    return predicate


@st.composite
def _chains(draw):
    """A random Filter/Project/Limit chain over the scan, tracked with
    the live-column kinds so every expression stays schema-valid."""
    table = draw(_tables())
    plan: LogicalPlan = ScanNode("t", table.schema)
    live = {"i": "i", "f": "f", "s": "s"}
    alias = iter(f"p{k}" for k in range(100))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["filter", "project", "limit"]))
        if kind == "filter":
            plan = FilterNode(plan, draw(_predicates(live)))
        elif kind == "limit":
            plan = LimitNode(plan, draw(st.integers(0, 12)))
        else:
            items, new_live = [], {}
            for column in sorted(live):
                action = draw(st.sampled_from(
                    ["keep", "rename", "drop", "compute"]))
                if action == "drop" and len(live) > 1 and new_live:
                    continue
                name = column if action == "keep" else next(alias)
                if action == "compute" and live[column] in _NUMERIC:
                    expr = Arith(draw(st.sampled_from(["+", "-", "*"])),
                                 ColumnRef(column),
                                 Literal(draw(st.integers(-2, 3))))
                    new_live[name] = "f" if live[column] == "f" else "i"
                else:
                    expr = ColumnRef(column)
                    new_live[name] = live[column]
                items.append((expr, name))
            if draw(st.booleans()):
                value = draw(st.integers(-5, 5))
                name = next(alias)
                items.append((Literal(value), name))
                new_live[name] = "i"
            plan = ProjectNode(plan, items)
            live = new_live
    return table, plan


class TestFusedParity:
    @settings(max_examples=120, deadline=None)
    @given(_chains())
    def test_random_chain_bit_identical(self, case):
        table, plan = case
        expected, actual, root = run_reference_and_engine(
            plan, _catalog_with(table))
        assert_runs_merged(plan, root)
        assert_bit_identical(expected, actual)

    def test_empty_table(self):
        table = Table.from_dict({"i": [], "f": [], "s": []}, _SCHEMA)
        plan = ProjectNode(
            FilterNode(ScanNode("t", table.schema),
                       Compare(">", ColumnRef("i"), Literal(0))),
            [(ColumnRef("i"), "i"), (Literal(7), "k")])
        interpreted, fused, _ = run_reference_and_engine(
            plan, _catalog_with(table))
        assert interpreted.num_rows == 0
        assert_bit_identical(interpreted, fused)

    def test_filter_rejecting_every_row(self):
        table = Table.from_dict({"i": [1, 2, 3], "f": [0.1, 0.2, 0.3],
                                 "s": ["aa", None, "cc"]}, _SCHEMA)
        plan = FilterNode(ScanNode("t", table.schema),
                          Compare(">", ColumnRef("i"), Literal(99)))
        interpreted, fused, _ = run_reference_and_engine(
            plan, _catalog_with(table))
        assert interpreted.num_rows == 0
        assert_bit_identical(interpreted, fused)

    def test_nulls_flow_through_unchanged(self):
        table = Table.from_dict(
            {"i": [1, 2, 3, 4], "f": [float("nan"), 1.0, 2.0, float("nan")],
             "s": [None, "aa", None, "bb"]}, _SCHEMA)
        plan = ProjectNode(
            FilterNode(ScanNode("t", table.schema),
                       Compare(">", ColumnRef("i"), Literal(1))),
            [(ColumnRef("s"), "s"), (ColumnRef("f"), "f")])
        interpreted, fused, _ = run_reference_and_engine(
            plan, _catalog_with(table))
        assert None in interpreted.column("s").tolist()
        assert_bit_identical(interpreted, fused)

    def test_limit_below_filter_is_not_fused_past(self):
        """filter(limit(x)) filters the limit's rows: the limit reads
        the first rows of the scan, not the first passing rows."""
        table = Table.from_dict({"i": [5, 1, 5, 1, 5, 1], "f": [0.0] * 6,
                                 "s": ["aa"] * 6}, _SCHEMA)
        plan = FilterNode(LimitNode(ScanNode("t", table.schema), 3),
                          Compare(">", ColumnRef("i"), Literal(2)))
        interpreted, fused, root = run_reference_and_engine(
            plan, _catalog_with(table))
        assert interpreted.column("i").tolist() == [5, 5]
        assert isinstance(root, FilterOp)
        assert_bit_identical(interpreted, fused)



# ---------------------------------------------------------------------------
# Filter runs and scan batching
# ---------------------------------------------------------------------------
def _wide_table(rows: int) -> Table:
    return Table.from_dict({
        "a": list(range(rows)),
        "b": [v * 0.25 for v in range(rows)],
    })


class TestFilterRuns:
    def _plan(self, table: Table, *predicates: Expr) -> LogicalPlan:
        plan: LogicalPlan = ScanNode("t", table.schema)
        for predicate in predicates:
            plan = FilterNode(plan, predicate)
        return plan

    def test_run_lowers_to_one_filter_op(self):
        table = _wide_table(50)
        plan = self._plan(table, Compare(">", ColumnRef("a"), Literal(3)),
                          Compare("<", ColumnRef("b"), Literal(10.0)),
                          Compare("!=", ColumnRef("a"), Literal(7)))
        expected, actual, root = run_reference_and_engine(
            plan, _catalog_with(table))
        assert isinstance(root, FilterOp)
        assert [p.render() for p in root.predicates] == [
            node.predicate.render() for node in reversed(filter_run(plan))]
        assert not isinstance(root.children[0], FilterOp)
        assert actual.column("a").tolist() == [
            a for a in range(4, 40) if a != 7]
        assert_bit_identical(expected, actual)

    def test_udf_filter_joins_the_run(self):
        table = Table.from_dict({"a": [1, 2, 3, 4],
                                 "s": ["x", "Y", "x", "z"]})
        plan = self._plan(table, Compare(">", ColumnRef("a"), Literal(0)),
                          Compare("=", Func("lower", (ColumnRef("s"),)),
                                  Literal("x")),
                          Compare("<", ColumnRef("a"), Literal(4)))
        expected, actual, root = run_reference_and_engine(
            plan, _catalog_with(table))
        assert isinstance(root, FilterOp) and len(root.predicates) == 3
        assert actual.column("a").tolist() == [1, 3]
        assert_bit_identical(expected, actual)

    def test_first_mask_is_not_mutated(self):
        """A bare boolean column as the first predicate is the column
        itself; ANDing the next mask must not write into it."""
        table = Table.from_dict({"flag": [True, True, False, True],
                                 "a": [1, 2, 3, 4]})
        catalog = _catalog_with(table)
        plan = self._plan(table, ColumnRef("flag"),
                          Compare(">", ColumnRef("a"), Literal(1)))
        run_reference_and_engine(plan, catalog)
        assert catalog.get("t").column("flag").tolist() == [
            True, True, False, True]


def _count_pulls(op) -> list[int]:
    """Wrap ``op.batches`` to count the batches its parent pulls."""
    pulled = [0]
    inner = op.batches

    def counted():
        for batch in inner():
            pulled[0] += 1
            yield batch

    op.batches = counted
    return pulled


class TestScanBatching:
    def test_unlimited_chain_reads_one_batch(self):
        table = _wide_table(100)
        plan = ProjectNode(
            FilterNode(ScanNode("t", table.schema),
                       Compare(">", ColumnRef("a"), Literal(10))),
            [(ColumnRef("a"), "a")])
        root = build_physical(plan, ExecutionContext(
            catalog=_catalog_with(table), batch_size=7))
        scan = root.children[0].children[0]
        pulled = _count_pulls(scan)
        assert root.execute().num_rows == 89
        assert pulled[0] == 1

    def test_limit_through_filter_and_project_streams(self):
        table = _wide_table(100)
        plan = LimitNode(ProjectNode(
            FilterNode(ScanNode("t", table.schema),
                       Compare(">", ColumnRef("a"), Literal(10))),
            [(ColumnRef("a"), "a")]), 5)
        root = build_physical(plan, ExecutionContext(
            catalog=_catalog_with(table), batch_size=7))
        scan = root.children[0].children[0].children[0]
        pulled = _count_pulls(scan)
        assert root.execute().column("a").tolist() == [11, 12, 13, 14, 15]
        assert pulled[0] == 3            # rows 0-20 hold the first five

    def test_limit_above_a_sort_reads_one_batch(self):
        """A sort is not a filter or projection: its input is read
        whole even under a limit."""
        from repro.relational.logical import SortNode

        table = _wide_table(100)
        plan = LimitNode(SortNode(ScanNode("t", table.schema),
                                  [("a", False)]), 2)
        root = build_physical(plan, ExecutionContext(
            catalog=_catalog_with(table), batch_size=7))
        pulled = _count_pulls(root.children[0].children[0])
        assert root.execute().column("a").tolist() == [99, 98]
        assert pulled[0] == 1


# ---------------------------------------------------------------------------
# The ``compiled_pipelines`` parameter keeps one legal value
# ---------------------------------------------------------------------------
class TestCompiledPipelinesParameter:
    def test_off_and_none_plan_alike(self):
        plans = []
        for mode in (None, "off"):
            session = Session(load_default_model=False,
                              compiled_pipelines=mode)
            session.register_table("big", _wide_table(5_000))
            result = session.sql("SELECT a FROM big WHERE a > 10 AND b < 900")
            assert result.num_rows == 3_589
            plans.append(session.plan_for(
                "SELECT a FROM big WHERE a > 10 AND b < 900").plan.pretty())
        assert plans[0] == plans[1]

    @pytest.mark.parametrize("mode", ["auto", "on", "sometimes"])
    def test_other_values_rejected(self, mode):
        with pytest.raises(ValueError, match="compiled_pipelines"):
            Session(load_default_model=False, compiled_pipelines=mode)
