"""End-to-end integration tests: the paper's motivating query (Figure 2)
and the log-clustering scenario, run through the whole engine."""

import pytest

from repro.core import ContextRichEngine
from repro.relational.expressions import col
from repro.storage.types import date_to_int
from repro.workloads.retail import RetailWorkload


@pytest.fixture(scope="module")
def engine():
    engine = ContextRichEngine(seed=7)
    engine.load_retail_workload(RetailWorkload(
        n_products=120, n_users=40, n_transactions=300, n_images=80,
        seed=7))
    engine.load_log_workload()
    return engine


FIGURE2_SQL = """
SELECT p.name, p.price, d.image_id, d.label, d.object_count
FROM products AS p
SEMANTIC JOIN kb.category AS k
    ON p.ptype ~ k.subject USING MODEL 'wiki-ft-100' THRESHOLD 0.9
SEMANTIC JOIN images.detections AS d
    ON p.ptype ~ d.label USING MODEL 'wiki-ft-100' THRESHOLD 0.8
WHERE p.price > 20
  AND k.object = 'clothes'
  AND d.date_taken > DATE '2022-06-01'
  AND d.object_count > 2
"""


class TestMotivatingQuery:
    def test_runs_and_returns_clothing_matches(self, engine, thesaurus):
        result = engine.sql(FIGURE2_SQL)
        assert result.num_rows > 0
        clothing_forms = thesaurus.hyponym_forms("clothes") | {
            "clothes", "clothing", "apparel", "garment"}
        for row in result.to_rows():
            assert row["p.price"] > 20
            assert row["d.object_count"] > 2

    def test_optimized_matches_naive(self, engine):
        plan = engine.sql_plan(FIGURE2_SQL)
        naive = engine.execute(plan, optimize=False)
        optimized = engine.execute(plan, optimize=True)
        key = lambda t: sorted(
            (r["p.name"], r["d.image_id"], r["d.label"])
            for r in t.to_rows())
        assert key(naive) == key(optimized)

    def test_optimizer_pushes_filters_below_joins(self, engine):
        plan = engine.optimize(engine.sql_plan(FIGURE2_SQL))
        text = plan.pretty()
        # the date/object-count filter must sit below the semantic join
        lines = text.splitlines()
        join_depth = min(i for i, line in enumerate(lines)
                         if "SemanticJoin" in line)
        filter_lines = [i for i, line in enumerate(lines)
                        if "date_taken" in line]
        assert filter_lines and all(i > join_depth for i in filter_lines)

    def test_exact_join_misses_what_semantic_finds(self, engine):
        exact = engine.sql("""
            SELECT p.pid FROM products AS p
            JOIN kb.category AS k ON p.ptype = k.subject
            WHERE k.object = 'clothes'
        """)
        semantic = engine.sql("""
            SELECT p.pid FROM products AS p
            SEMANTIC JOIN kb.category AS k
                ON p.ptype ~ k.subject THRESHOLD 0.9
            WHERE k.object = 'clothes'
        """)
        # the KB contains all surface forms, so exact matches exist, but
        # semantic matching must find at least as many product rows
        exact_pids = {r["p.pid"] for r in exact.to_rows()}
        semantic_pids = {r["p.pid"] for r in semantic.to_rows()}
        assert exact_pids <= semantic_pids


class TestLogClustering:
    def test_domain_model_recovers_categories_exactly(self, engine):
        result = engine.sql("""
            SELECT cluster_rep, COUNT(*) AS n
            FROM logs
            SEMANTIC GROUP BY message USING MODEL 'log-model' THRESHOLD 0.9
            ORDER BY n DESC
        """)
        # the specialized model clusters paraphrases into the 4 categories
        assert result.num_rows == 4

    def test_domain_model_clusters_are_pure(self, engine):
        result = engine.sql("""
            SELECT message, true_category, cluster_id, cluster_rep
            FROM logs
            SEMANTIC GROUP BY message USING MODEL 'log-model' THRESHOLD 0.9
        """, optimize=False)
        clusters: dict[int, set[str]] = {}
        for row in result.to_rows():
            clusters.setdefault(row["cluster_id"], set()).add(
                row["true_category"])
        assert all(len(cats) == 1 for cats in clusters.values())

    def test_general_model_approximates_categories(self, engine):
        """Without specialization the general model still groups most
        paraphrases (via shared tokens/subwords), just less cleanly."""
        result = engine.sql("""
            SELECT cluster_rep, COUNT(*) AS n
            FROM logs
            SEMANTIC GROUP BY message THRESHOLD 0.55
            ORDER BY n DESC
        """)
        assert 3 <= result.num_rows <= 10


class TestProfileOfSemanticQuery:
    def test_prefetch_cache_reused_across_queries(self, engine):
        statement = ("SELECT p.pid FROM products AS p "
                     "WHERE p.ptype ~ 'clothes' THRESHOLD 0.7")
        engine.sql(statement)
        # re-execute through the unoptimized path: it bypasses the
        # result cache (which would skip execution entirely), so the
        # embedding arena's session-lifetime reuse is what's measured
        engine.sql(statement, optimize=False)
        # profile counters are per-statement deltas: the second run
        # re-embeds nothing, every lookup is an arena hit
        assert engine.last_profile.cache_misses == 0
        assert engine.last_profile.cache_hits > 0
        # the optimized repeat doesn't even execute: result-cache hit
        engine.sql(statement)
        assert engine.last_profile.result_cache_hit is True
