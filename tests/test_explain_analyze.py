"""Tests for EXPLAIN ANALYZE (estimated vs actual cardinality feedback)."""

import pytest

from repro.engine.session import Session
from repro.storage.table import Table
from repro.utils.rng import make_rng


@pytest.fixture()
def session(products_table, kb_table):
    session = Session(seed=7)
    session.register_table("products", products_table)
    session.register_table("kb", kb_table)
    return session


class TestExplainAnalyze:
    def test_renders_estimates_and_actuals(self, session):
        text = session.explain_analyze(
            "SELECT p.pid FROM products AS p WHERE p.price > 100")
        assert "EXPLAIN ANALYZE" in text
        assert "est~" in text
        assert "actual" in text
        assert "Scan" in text

    def test_actual_rows_correct(self, session):
        text = session.explain_analyze(
            "SELECT p.pid FROM products AS p WHERE p.price > 100",
            optimize=False)
        # the filter keeps parka, sedan, kitten = 3 rows
        assert "actual 3 rows" in text

    def test_semantic_operator_included(self, session):
        text = session.explain_analyze(
            "SELECT p.pid FROM products AS p "
            "SEMANTIC JOIN kb AS k ON p.ptype ~ k.label THRESHOLD 0.9")
        assert "SemanticJoin" in text

    def test_flags_large_estimate_drift(self):
        """A skewed equality predicate should be flagged as mis-estimated."""
        rng = make_rng(5)
        n = 1_000
        # 'common' dominates but NDV is 20, so the uniform estimate is
        # ~n/20 while the actual is ~0.9n — a >4x drift
        values = ["common"] * 171 + [f"rare{i}" for i in range(19)]
        session = Session(seed=7)
        session.register_table("skewed", Table.from_dict({
            "v": [values[int(i)] for i in rng.integers(0, len(values), n)],
        }))
        text = session.explain_analyze(
            "SELECT * FROM skewed AS s WHERE s.v = 'common'",
            optimize=False)
        assert "estimate off" in text

    def test_no_drift_flag_when_accurate(self, session):
        text = session.explain_analyze(
            "SELECT * FROM products", optimize=False)
        assert "estimate off" not in text

    def test_filter_run_prints_as_one_line(self, session,
                                           products_table):
        """Consecutive filters run as one FilterOp: one line, with the
        rows that op kept — not the scan's rows on the inner filter."""
        from repro.relational.expressions import col
        from repro.relational.logical import FilterNode, ScanNode

        scan = ScanNode("products", products_table.schema, qualifier="p")
        plan = FilterNode(FilterNode(scan, col("p.price") > 100),
                          col("p.price") < 1_000_000)
        lines = [line for line in session.explain_analyze(
            plan, optimize=False).splitlines() if "est~" in line]
        filters = [line for line in lines if "Filter[" in line]
        assert len(filters) == 1
        assert filters[0].count("Filter[") == 2
        assert "actual 3 rows" in filters[0]
        scans = [line for line in lines if "Scan" in line]
        assert len(scans) == 1
        assert f"actual {products_table.num_rows} rows" in scans[0]
        assert scans[0].index("Scan") > filters[0].index("Filter[")

    def test_accepts_plan_objects(self, session):
        plan = session.sql_plan("SELECT p.pid FROM products AS p")
        text = session.explain_analyze(plan)
        assert "actual" in text
