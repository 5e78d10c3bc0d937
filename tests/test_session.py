"""Tests for the session, builder API, profiler, and explain."""

import pytest

from repro.core import ContextRichEngine
from repro.engine.session import Session
from repro.errors import CatalogError
from repro.polystore.knowledge_base import KnowledgeBase
from repro.relational.expressions import col
from repro.storage.table import Table


@pytest.fixture()
def session(products_table, kb_table):
    session = Session(seed=7)
    session.register_table("products", products_table)
    session.register_table("kb", kb_table)
    return session


class TestSession:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            Session(load_default_model=False, batch_size=batch_size)

    def test_register_and_query(self, session):
        result = session.sql("SELECT * FROM products")
        assert result.num_rows == 6

    def test_unknown_table_builder(self, session):
        with pytest.raises(CatalogError):
            session.table("ghost")

    def test_register_source(self, session):
        kb = KnowledgeBase("kb2")
        kb.add("a", "rel", "b")
        names = session.register_source(kb)
        assert "kb2.triples" in names
        assert session.sql("SELECT * FROM kb2.triples").num_rows == 1

    def test_register_model_default(self, session, model):
        clone = type(model)(name="custom", vocab=model.vocab,
                            word_vectors=model.word_vectors,
                            bucket_vectors=model.bucket_vectors)
        session.register_model(clone, default=True)
        assert session.default_model_name == "custom"

    def test_profile_recorded(self, session):
        session.sql("SELECT * FROM products AS p WHERE p.price > 10")
        profile = session.last_profile
        assert profile is not None
        assert profile.total_seconds > 0
        assert any("Scan" in op.label for op in profile.operators)

    def test_profile_counts_semantic_cache(self, session):
        session.sql("SELECT * FROM products AS p "
                    "WHERE p.ptype ~ 'clothes' THRESHOLD 0.7")
        profile = session.last_profile
        assert profile.cache_misses > 0

    def test_explain_sql(self, session):
        text = session.explain(
            "SELECT p.pid FROM products AS p WHERE p.price > 10")
        assert "Scan" in text
        assert "rows~" in text

    def test_sql_unoptimized_same_result(self, session):
        query = ("SELECT p.pid FROM products AS p SEMANTIC JOIN kb AS k "
                 "ON p.ptype ~ k.label THRESHOLD 0.9 WHERE p.price > 10")
        fast = session.sql(query)
        slow = session.sql(query, optimize=False)
        assert sorted(r["p.pid"] for r in fast.to_rows()) == \
            sorted(r["p.pid"] for r in slow.to_rows())


class TestBuilder:
    def test_filter_select(self, session):
        rows = (session.table("products", alias="p")
                .filter(col("p.price") > 100)
                .select("p.pid", "p.ptype")
                .to_rows())
        assert len(rows) == 3
        assert set(rows[0]) == {"p.pid", "p.ptype"}

    def test_computed_select(self, session):
        rows = (session.table("products", alias="p")
                .select((col("p.price") * 2, "double"))
                .to_rows())
        assert rows[0]["double"] == pytest.approx(50.0)

    def test_equi_join(self, session):
        products = session.table("products", alias="p")
        kb = session.table("kb", alias="k")
        result = products.join(kb, on=("p.ptype", "k.label")).execute()
        assert result.num_rows == 0  # vocabulary mismatch, the paper's point

    def test_semantic_join(self, session):
        products = session.table("products", alias="p")
        kb = session.table("kb", alias="k")
        result = products.semantic_join(kb, "p.ptype", "k.label",
                                        threshold=0.9).execute()
        assert result.num_rows >= 3

    def test_semantic_filter(self, session):
        rows = (session.table("products", alias="p")
                .semantic_filter("p.ptype", "clothes", threshold=0.7)
                .to_rows())
        assert {r["p.ptype"] for r in rows} == {"sneakers", "parka",
                                                "blazer"}

    def test_semantic_group_by(self, session):
        result = (session.table("products", alias="p")
                  .semantic_group_by("p.ptype", threshold=0.55)
                  .execute())
        assert "cluster_rep" in result.schema

    def test_aggregate(self, session):
        rows = (session.table("products", alias="p")
                .aggregate(["p.brand"], n=("count", "*"),
                           total=("sum", "p.price"))
                .to_rows())
        by_brand = {r["p.brand"]: r["n"] for r in rows}
        assert by_brand["acme"] == 3

    def test_sort_limit_count(self, session):
        builder = (session.table("products", alias="p")
                   .sort("-p.price")
                   .limit(2))
        assert builder.count() == 2

    def test_builder_matches_sql(self, session):
        via_builder = (session.table("products", alias="p")
                       .filter(col("p.price") > 20)
                       .semantic_filter("p.ptype", "clothes", 0.7)
                       .select("p.pid")
                       .execute())
        via_sql = session.sql(
            "SELECT p.pid FROM products AS p WHERE p.price > 20 "
            "AND p.ptype ~ 'clothes' THRESHOLD 0.7")
        assert sorted(r["p.pid"] for r in via_builder.to_rows()) == \
            sorted(r["p.pid"] for r in via_sql.to_rows())

    def test_explain(self, session):
        text = (session.table("products", alias="p")
                .filter(col("p.price") > 20)
                .explain())
        assert "Filter" in text or "Scan" in text

    def test_cross_join(self, session):
        products = session.table("products", alias="p")
        kb = session.table("kb", alias="k")
        assert products.cross_join(kb).count() == 36


class TestEngineFacade:
    def test_retail_workload_loads(self):
        engine = ContextRichEngine(seed=7)
        engine.load_retail_workload()
        for table in ["products", "users", "transactions", "kb.category",
                      "images.metadata", "images.detections"]:
            assert table in engine.catalog

    def test_log_workload_loads(self):
        engine = ContextRichEngine(seed=7)
        engine.load_log_workload()
        assert "logs" in engine.catalog
