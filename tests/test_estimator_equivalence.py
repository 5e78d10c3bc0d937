"""The estimator's cheap statistics reads equal the ones they replaced.

Planning cost is per statement, so the semantic sample and the
histogram range fraction were made cheap: the sample draws its picks
over non-null positions memoized on the base table instead of copying
the column into a Python list, and the histogram fraction reads cached
Python floats and visits only the bins that overlap the range.  Every
estimate — and so every optimizer decision — must stay bit-identical.
These properties compare both reads with the old forms
(``tests/reference_operators.py``) using ``==``.

A filter run is estimated as one conjunction: range bounds on one
resolved column fold into one interval, everything else multiplies in
as the filter-at-a-time estimate (``reference_filter_estimate``) did —
bit for bit when nothing pairs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_operators import (
    reference_filter_estimate,
    reference_histogram_fraction,
    reference_sample_values,
)
from repro.engine.sql import Binder, parse_sql
from repro.optimizer.cardinality import CardinalityEstimator
from repro.relational.expressions import (
    And,
    ColumnRef,
    Compare,
    Expr,
    InList,
    Literal,
    Not,
    Or,
)
from repro.relational.logical import (
    FilterNode,
    JoinNode,
    JoinType,
    LogicalPlan,
    ScanNode,
)
from repro.storage.catalog import Catalog
from repro.storage.schema import Field, Schema
from repro.storage.statistics import ColumnStats
from repro.storage.table import Table
from repro.storage.types import DataType

WORDS = st.sampled_from(["shoes", "parka", "sedan", "kitten", "apple",
                         "blazer", "van", "pear"])


def estimator_over(table: Table, sample_size: int, seed: int
                   ) -> CardinalityEstimator:
    catalog = Catalog()
    catalog.register("t", table)
    return CardinalityEstimator(catalog, sample_size=sample_size, seed=seed)


def string_table(values: list[str | None]) -> Table:
    return Table(Schema([Field("s", DataType.STRING)]),
                 {"s": np.array(values, dtype=object)})


class TestSampleColumn:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.one_of(st.none(), WORDS), max_size=40),
           sample_size=st.integers(1, 16), seed=st.integers(0, 2**16),
           qualifier=st.sampled_from([None, "x"]))
    def test_strings_with_nulls(self, values, sample_size, seed,
                                qualifier):
        """Lengths below, at and above ``sample_size``, ``None`` at
        random positions, plain and qualified scans."""
        table = string_table(values)
        estimator = estimator_over(table, sample_size, seed)
        scan = ScanNode("t", table.schema, qualifier=qualifier)
        column = "x.s" if qualifier else "s"
        expected = reference_sample_values(table.columns["s"],
                                           sample_size, seed)
        assert estimator._sample_column(column, scan) == expected
        # the memoized positions serve the next estimate identically
        assert estimator._sample_column(column, scan) == expected

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.integers(-1000, 1000), min_size=1,
                           max_size=40),
           sample_size=st.integers(1, 16), seed=st.integers(0, 2**16))
    def test_numeric_columns(self, values, sample_size, seed):
        table = Table.from_dict({"n": values})
        estimator = estimator_over(table, sample_size, seed)
        sampled = estimator._sample_column("n", ScanNode("t", table.schema))
        expected = reference_sample_values(table.columns["n"],
                                           sample_size, seed)
        assert sampled == expected
        assert [type(v) for v in sampled] == [type(v) for v in expected]

    def test_exact_sample_size_boundary(self):
        values = ["shoes", None, "parka", "van", None, "pear"]
        for sample_size in (3, 4, 5):
            table = string_table(values)
            estimator = estimator_over(table, sample_size, seed=97)
            assert estimator._sample_column(
                "s", ScanNode("t", table.schema)) == \
                reference_sample_values(table.columns["s"], sample_size, 97)

    def test_unknown_column_samples_nothing(self):
        table = string_table(["shoes"])
        estimator = estimator_over(table, 4, seed=1)
        assert estimator._sample_column(
            "missing", ScanNode("t", table.schema)) == []

    def test_positions_memo_is_per_table(self):
        table = string_table(["shoes", None, "van"])
        first = table.non_null_positions("s")
        assert first.tolist() == [0, 2]
        assert table.non_null_positions("s") is first
        grown = Table.concat([table, string_table([None, "pear"])])
        assert grown.non_null_positions("s").tolist() == [0, 2, 4]


@st.composite
def histograms(draw):
    """Sorted edges (duplicates make zero-width bins) plus counts."""
    bins = draw(st.integers(1, 8))
    edges = sorted(draw(st.lists(
        st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                  st.sampled_from([0.0, 1.0, 2.5])),
        min_size=bins + 1, max_size=bins + 1)))
    counts = draw(st.lists(st.integers(0, 10_000), min_size=bins,
                           max_size=bins))
    return (np.asarray(counts, dtype=np.int64),
            np.asarray(edges, dtype=np.float64))


BOUNDS = st.one_of(st.none(), st.floats(-2e6, 2e6),
                   st.sampled_from([0.0, 1.0, 2.5, float("inf"),
                                    float("-inf"), float("nan")]))


def column_stats(histogram: np.ndarray, edges: np.ndarray) -> ColumnStats:
    return ColumnStats("c", DataType.FLOAT64, count=int(histogram.sum()),
                       null_count=0, distinct=len(histogram),
                       min_value=float(edges[0]),
                       max_value=float(edges[-1]), histogram=histogram,
                       bin_edges=edges)


class TestHistogramFraction:
    @settings(max_examples=400, deadline=None)
    @given(histogram=histograms(), low=BOUNDS, high=BOUNDS)
    def test_bit_identical_to_every_bin_loop(self, histogram, low, high):
        """Zero-width bins, ``None`` bounds, ranges outside the edges,
        empty and inverted ranges."""
        counts, edges = histogram
        stats = column_stats(counts, edges)
        expected = reference_histogram_fraction(counts, edges, low, high)
        assert stats._histogram_fraction(low, high) == expected
        # a second read goes through the cached floats
        assert stats._histogram_fraction(low, high) == expected

    def test_reassigned_arrays_are_reread(self):
        counts = np.asarray([5, 5], dtype=np.int64)
        edges = np.asarray([0.0, 1.0, 2.0])
        stats = column_stats(counts, edges)
        assert stats._histogram_fraction(None, 1.0) == 0.5
        # merge_table_stats assigns fresh arrays after construction
        stats.histogram = np.asarray([5, 15], dtype=np.int64)
        assert stats._histogram_fraction(None, 1.0) == \
            reference_histogram_fraction(stats.histogram, edges, None, 1.0)
        assert stats._histogram_fraction(None, 1.0) == 0.25


# ---------------------------------------------------------------------------
# a filter run as one conjunction
# ---------------------------------------------------------------------------
RUN_ROWS = 4_000


def _run_table() -> Table:
    rng = np.random.default_rng(7)
    return Table.from_dict({
        "a": rng.integers(0, 1_000, RUN_ROWS).tolist(),
        "b": rng.normal(50.0, 15.0, RUN_ROWS).tolist(),
        "c": rng.integers(0, 12, RUN_ROWS).tolist(),
    })


RUN_TABLE = _run_table()
RUN_CATALOG = Catalog()
RUN_CATALOG.register("t", RUN_TABLE)
RANGE_OPS = st.sampled_from(["<", "<=", ">", ">="])
BOUND = st.integers(-50, 1_050)


def run_estimator() -> CardinalityEstimator:
    return CardinalityEstimator(RUN_CATALOG)


def scan() -> ScanNode:
    return ScanNode("t", RUN_TABLE.schema)


@st.composite
def range_bound(draw, column: str) -> Expr:
    """``col OP lit``, or the same bound written ``lit OP' col``."""
    op, value = draw(RANGE_OPS), draw(BOUND)
    if draw(st.booleans()):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        return Compare(flipped, Literal(value), ColumnRef(column))
    return Compare(op, ColumnRef(column), Literal(value))


@st.composite
def non_range(draw) -> Expr:
    """Conjuncts that keep their own selectivity: equalities, IN lists,
    and range bounds under ``Or`` / ``Not`` (not top-level)."""
    column = draw(st.sampled_from(["a", "b", "c"]))
    kind = draw(st.sampled_from(["eq", "ne", "in", "or", "not"]))
    if kind == "eq":
        return Compare("=", ColumnRef(column), Literal(draw(BOUND)))
    if kind == "ne":
        return Compare("!=", ColumnRef(column), Literal(draw(BOUND)))
    if kind == "in":
        return InList(ColumnRef(column),
                      draw(st.lists(BOUND, min_size=1, max_size=4)))
    if kind == "or":
        return Or(draw(range_bound(column)), draw(range_bound(column)))
    return Not(draw(range_bound(column)))


@st.composite
def shaped_run(draw, conjuncts: list[Expr]) -> LogicalPlan:
    """``conjuncts`` in a drawn order, split over a drawn number of
    stacked filters, each an ``And`` tree of a drawn shape."""
    order = draw(st.permutations(conjuncts))
    cuts = sorted(draw(st.sets(st.integers(1, max(len(order) - 1, 1)),
                               max_size=len(order) - 1)))
    groups = [order[i:j] for i, j in
              zip([0, *cuts], [*cuts, len(order)]) if order[i:j]]
    plan: LogicalPlan = scan()
    for group in groups:
        plan = FilterNode(plan, draw(and_tree(group)))
    return plan


@st.composite
def and_tree(draw, conjuncts: list[Expr]) -> Expr:
    if len(conjuncts) == 1:
        return conjuncts[0]
    split = draw(st.integers(1, len(conjuncts) - 1))
    return And(draw(and_tree(conjuncts[:split])),
               draw(and_tree(conjuncts[split:])))


def interval_selectivity(conjuncts: list[Expr]) -> float:
    """Selectivity of range bounds on ``a`` folded into one interval."""
    lows, highs = [], []
    for conjunct in conjuncts:
        assert isinstance(conjunct, Compare)
        if isinstance(conjunct.left, ColumnRef):
            op, value = conjunct.op, conjunct.right.scalar()
        else:
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[conjunct.op]
            value = conjunct.left.scalar()
        (lows if op in (">", ">=") else highs).append(float(value))
    low = max(lows) if lows else None
    high = min(highs) if highs else None
    if low is not None and high is not None and low > high:
        return 0.0
    return RUN_CATALOG.stats("t").columns["a"].selectivity_range(low, high)


class TestFilterRunConjunction:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           bounds=st.lists(range_bound("a"), min_size=1, max_size=5))
    def test_single_column_run_is_one_interval(self, data, bounds):
        """Any split and order of bounds on one column: one
        ``selectivity_range(max lo, min hi)`` call, 0 when crossed."""
        plan = data.draw(shaped_run(bounds))
        estimate = run_estimator().estimate(plan)
        if len(bounds) == 1:
            assert estimate == reference_filter_estimate(run_estimator(),
                                                         plan)
        else:
            assert estimate == RUN_ROWS * interval_selectivity(bounds)

    def test_crossed_interval_is_empty(self):
        plan = FilterNode(FilterNode(scan(), Compare(
            "<", ColumnRef("a"), Literal(100))), Compare(
            ">=", ColumnRef("a"), Literal(600)))
        assert run_estimator().estimate(plan) == 0.0
        assert reference_filter_estimate(run_estimator(), plan) > 0.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           ranged=st.lists(st.sampled_from(["a", "b", "c"]), unique=True),
           others=st.lists(non_range(), max_size=4))
    def test_nothing_to_pair_is_the_filter_at_a_time_product(
            self, data, ranged, others):
        """At most one range bound per column plus non-range conjuncts:
        bit for bit the old estimate, for the drawn split and order."""
        conjuncts = [data.draw(range_bound(c)) for c in ranged] + others
        if not conjuncts:
            return
        plan = data.draw(shaped_run(conjuncts))
        assert run_estimator().estimate(plan) == \
            reference_filter_estimate(run_estimator(), plan)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           bounds=st.lists(range_bound("a"), min_size=1, max_size=4),
           more=st.lists(range_bound("b"), max_size=3),
           others=st.lists(non_range(), max_size=3))
    def test_split_and_order_do_not_matter(self, data, bounds, more,
                                           others):
        """Two drawn shapes of one conjunct multiset agree (to float
        rounding: the non-paired factors multiply in drawn order)."""
        conjuncts = bounds + more + others
        first = run_estimator().estimate(data.draw(shaped_run(conjuncts)))
        second = run_estimator().estimate(data.draw(shaped_run(conjuncts)))
        assert first == pytest.approx(second, rel=1e-12, abs=1e-12)

    def test_self_join_sides_do_not_pair(self):
        """``l.a`` and ``r.a`` share one stats object but bound
        different rows: each keeps its own selectivity."""
        join = JoinNode(ScanNode("t", RUN_TABLE.schema, qualifier="l"),
                        ScanNode("t", RUN_TABLE.schema, qualifier="r"),
                        JoinType.CROSS)
        across = FilterNode(join, And(
            Compare(">=", ColumnRef("l.a"), Literal(400)),
            Compare("<", ColumnRef("r.a"), Literal(300))))
        estimator = run_estimator()
        assert estimator.estimate(across) == \
            reference_filter_estimate(estimator, across)
        one_side = FilterNode(join, And(
            Compare(">=", ColumnRef("l.a"), Literal(400)),
            Compare("<", ColumnRef("l.a"), Literal(300))))
        assert estimator.estimate(one_side) == 0.0

    def test_between_equals_the_two_bound_form(self):
        def estimate(where: str) -> float:
            plan = Binder(RUN_CATALOG, "m").bind(
                parse_sql(f"SELECT a FROM t WHERE {where}"))
            return run_estimator().estimate(plan)

        between = estimate("a BETWEEN 200 AND 260")
        assert between == estimate("a >= 200 AND a <= 260")
        assert between == estimate("260 >= a AND a >= 200")
        assert between == RUN_ROWS * interval_selectivity([
            Compare(">=", ColumnRef("a"), Literal(200)),
            Compare("<=", ColumnRef("a"), Literal(260))])

    @pytest.mark.parametrize("low,width", [(0, 10), (300, 25), (480, 40),
                                           (650, 99), (900, 99)])
    def test_narrow_range_on_a_uniform_column(self, low, width):
        """Within 2x of the true count; away from the column's edges
        the independent product is off by more than 5x."""
        plan = FilterNode(FilterNode(scan(), Compare(
            "<", ColumnRef("a"), Literal(low + width))), Compare(
            ">=", ColumnRef("a"), Literal(low)))
        values = RUN_TABLE.columns["a"]
        actual = int(np.count_nonzero((values >= low)
                                      & (values < low + width)))
        estimate = run_estimator().estimate(plan)
        assert actual / 2 <= estimate <= actual * 2
        if 250 <= low and low + width <= 600:
            assert reference_filter_estimate(run_estimator(), plan) > \
                actual * 5
