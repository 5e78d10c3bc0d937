"""Tests for adaptive mid-query re-optimization."""

import pytest

from repro.engine.adaptive import AdaptiveExecutor
from repro.engine.session import Session
from repro.relational.expressions import col
from repro.storage.table import Table
from repro.utils.rng import make_rng


@pytest.fixture()
def session():
    rng = make_rng(13)
    n = 2_000
    # heavily skewed ptype: uniform-NDV estimates will be wrong for the
    # common value and for rare values
    types = (["sneakers"] * 90 + ["parka"] * 5 + ["sedan"] * 2
             + ["kitten", "blazer", "apple"])
    session = Session(seed=7)
    session.register_table("products", Table.from_dict({
        "pid": list(range(n)),
        "ptype": [types[int(i)] for i in rng.integers(0, len(types), n)],
        "price": rng.uniform(1, 100, n).tolist(),
    }))
    session.register_table("kb", Table.from_dict({
        "label": ["shoes", "jacket", "car", "fruit"],
        "category": ["clothes", "clothes", "vehicle", "food"],
    }))
    return session


def _query_plan(session, ptype: str):
    products = session.table("products", alias="p")
    kb = session.table("kb", alias="k")
    return (products
            .filter(col("p.ptype") == ptype)
            .semantic_join(kb, "p.ptype", "k.label", threshold=0.9)
            .plan)


class TestAdaptiveExecution:
    def test_results_match_standard_execution(self, session):
        plan = _query_plan(session, "sneakers")
        adaptive = AdaptiveExecutor(session)
        result, report = adaptive.execute(plan)
        standard = session.execute(_query_plan(session, "sneakers"))
        assert result.num_rows == standard.num_rows

    def test_detects_underestimate_on_skew(self, session):
        """'ptype = sneakers' matches ~90% of rows but the uniform-NDV
        estimate says ~1/6 — a big deviation the checkpoint must catch."""
        plan = _query_plan(session, "sneakers")
        adaptive = AdaptiveExecutor(session, deviation_factor=3.0)
        _, report = adaptive.execute(plan)
        assert report.actual_inputs is not None
        assert report.deviation > 3.0
        assert report.reoptimized

    def test_no_reoptimization_when_estimates_good(self, session):
        """A predicate whose selectivity matches the uniform assumption
        should not trigger re-planning."""
        products = session.table("products", alias="p")
        kb = session.table("kb", alias="k")
        plan = (products
                .filter(col("p.price") > 50)  # histogram gets this right
                .semantic_join(kb, "p.ptype", "k.label", threshold=0.9)
                .plan)
        adaptive = AdaptiveExecutor(session, deviation_factor=4.0)
        _, report = adaptive.execute(plan)
        assert report.deviation <= 4.0
        assert not report.reoptimized

    def test_temp_tables_cleaned_up(self, session):
        plan = _query_plan(session, "sneakers")
        adaptive = AdaptiveExecutor(session)
        adaptive.execute(plan)
        assert not [name for name in session.catalog.names()
                    if name.startswith("__adaptive")]

    def test_plans_without_semantic_join_pass_through(self, session):
        plan = (session.table("products", alias="p")
                .filter(col("p.price") > 50)
                .plan)
        adaptive = AdaptiveExecutor(session)
        result, report = adaptive.execute(plan)
        assert report.checked_node is None
        assert result.num_rows > 0
