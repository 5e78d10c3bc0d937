"""Access paths change the cost, never the answer.

Every semantic-join access path the engine plans is exact, so a served
result — whatever method, plan cache, result cache or reuse residual
produced it — must be bit-identical (values, dtypes, row order) to a
cache-less session pinned to ``blocked``.  Two workload shapes:

- wiki: each side of a Fig. 4 join is a narrow ``views >= a AND
  views < b`` slice of a large table, estimated as one conjunction (a
  few hundred rows), and each join family promotes to a generic plan;
- retail (smoke scale): the Fig. 2 semantic-join families and the
  dashboard's ``TOP k`` refinement ladder, served by an
  :class:`~repro.server.EngineServer`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.session import Session
from repro.optimizer.optimizer import OptimizerConfig
from repro.semantic.join import SEMANTIC_JOIN_METHODS
from repro.server import EngineServer
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.retail import RetailWorkload
from repro.workloads.wiki_strings import WikiStringWorkload

ROWS = 20_000
SLICE_ROWS = 250
WIDTH = 1_000_000 * SLICE_ROWS // ROWS   # views is uniform on [0, 1e6)

FAMILIES = {
    "threshold_join": (
        "SELECT l.sid, r.sid, l.text FROM wiki_left AS l "
        "SEMANTIC JOIN wiki_right AS r ON l.text ~ r.text THRESHOLD 0.9 "
        "WHERE l.views >= {la} AND l.views < {lb} "
        "AND r.views >= {ra} AND r.views < {rb}"),
    "topk_join": (
        "SELECT l.sid, r.sid, r.text FROM wiki_left AS l "
        "SEMANTIC JOIN wiki_right AS r ON l.text ~ r.text "
        "THRESHOLD 0.5 TOP 3 "
        "WHERE l.views >= {la} AND l.views < {lb} "
        "AND r.views >= {ra} AND r.views < {rb}"),
}


@pytest.fixture(scope="module")
def wiki_tables() -> tuple[Table, Table]:
    return WikiStringWorkload(n=ROWS, unique_texts=True, seed=11).pair()


def wiki_session(model, tables: tuple[Table, Table], **kwargs) -> Session:
    session = Session(load_default_model=False, **kwargs)
    session.register_model(model, default=True)
    for name, table in zip(("wiki_left", "wiki_right"), tables):
        session.register_table(name, table)
        # statistics up front: computing them bumps the catalog version
        session.catalog.stats(name)
    return session


def statements() -> list[str]:
    """Five statements per family, each on fresh mid-table slices."""
    texts = []
    for round_ in range(5):
        for offset, form in enumerate(FAMILIES.values()):
            la = 200_000 + (2 * round_ + offset) * WIDTH
            ra = 600_000 + (2 * round_ + offset) * WIDTH
            texts.append(form.format(la=la, lb=la + WIDTH,
                                     ra=ra, rb=ra + WIDTH))
    return texts


def counter(session: Session, name: str, **labels: str) -> int:
    metric = session.state.metrics_registry.get(name, labels)
    assert metric is not None, (name, labels)
    return int(metric.value)


#: Cache-less oracle settings: every statement fully optimized, pinned
#: to ``blocked``, and executed from scratch.
ORACLE = dict(result_cache_bytes=0, semantic_reuse=False,
              generic_plans=False,
              optimizer_config=OptimizerConfig(
                  semantic_join_methods=("blocked",)))


def assert_identical(served: Table, expected: Table, text: str) -> None:
    assert served.schema.names == expected.schema.names
    for name in served.schema.names:
        got, want = served.columns[name], expected.columns[name]
        assert got.dtype == want.dtype, (name, text)
        assert np.array_equal(got, want), (name, text)


def test_served_equals_blocked_pinned(model, wiki_tables):
    served_session = wiki_session(model, wiki_tables)
    oracle = wiki_session(model, wiki_tables, **ORACLE)
    for text in statements():
        served, expected = served_session.sql(text), oracle.sql(text)
        assert served.num_rows > 0
        assert_identical(served, expected, text)

    # every full optimization's choice is counted under its method
    chosen = {method: counter(served_session,
                              "optimizer_semantic_join_method_total",
                              method=method)
              for method in SEMANTIC_JOIN_METHODS}
    assert chosen["blocked"] > 0

    # both join families promote to a generic plan
    stats = served_session.state.plan_cache.stats()
    assert stats["promotions"] == len(FAMILIES)
    assert counter(served_session, "plan_cache_generic_hits_total") > 0


# ----------------------------------------------------------------------
# retail: the Fig. 2 semantic-join families and the TOP k ladder
# ----------------------------------------------------------------------
RETAIL_FAMILIES = {
    "sem_join_kb": (
        "SELECT p.name, k.object FROM products AS p "
        "SEMANTIC JOIN kb.category AS k ON p.ptype ~ k.subject "
        "THRESHOLD 0.9 WHERE p.price > {price} "
        "ORDER BY p.name, k.object"),
    "sem_join_rollup": (
        "SELECT k.object, COUNT(*) AS n, SUM(p.price) AS revenue "
        "FROM products AS p "
        "SEMANTIC JOIN kb.category AS k ON p.ptype ~ k.subject "
        "THRESHOLD 0.9 WHERE p.price > {price} "
        "GROUP BY k.object ORDER BY k.object"),
    "sem_join_images": (
        "SELECT p.name, d.image_id, d.label FROM products AS p "
        "SEMANTIC JOIN images.detections AS d ON p.ptype ~ d.label "
        "THRESHOLD 0.8 WHERE p.price > {price} "
        "AND d.date_taken > {date} AND d.object_count > 2"),
    "fig2": (
        "SELECT p.name, p.price, d.image_id, d.label, d.object_count "
        "FROM products AS p "
        "SEMANTIC JOIN kb.category AS k ON p.ptype ~ k.subject "
        "THRESHOLD 0.9 "
        "SEMANTIC JOIN images.detections AS d ON p.ptype ~ d.label "
        "THRESHOLD 0.8 "
        "WHERE p.price > {price} AND k.object = 'clothes' "
        "AND d.date_taken > {date} AND d.object_count > 2"),
}

#: (price, date) literals: three selective ones, so each family
#: promotes to a generic plan, then one wide one.
RETAIL_LITERALS = [("150.00", "DATE '2022-09-01'"),
                   ("165.50", "DATE '2022-10-01'"),
                   ("180.25", "DATE '2022-11-01'"),
                   ("20", "DATE '2022-06-01'")]

LADDER = ("SELECT p.name, k.subject FROM products AS p "
          "SEMANTIC JOIN kb.category AS k ON p.ptype ~ k.subject "
          "THRESHOLD {th:.4f} TOP {k} ORDER BY p.name, k.subject")


def retail_statements() -> list[tuple[str, str]]:
    """``(family, text)`` pairs: every family at every literal, then the
    ladder — a wide base, thresholds tightened, then ``k`` shrunk."""
    texts = [(family, form.format(price=price, date=date))
             for price, date in RETAIL_LITERALS
             for family, form in RETAIL_FAMILIES.items()]
    rungs = [(0.32 + step, 8) for step in (0.0, 0.08, 0.16, 0.24)]
    rungs += [(0.56, k) for k in (5, 3)]
    texts += [("ladder_join", LADDER.format(th=th, k=k))
              for th, k in rungs]
    return texts


@pytest.fixture(scope="module")
def retail_tables() -> dict[str, Table]:
    retail = RetailWorkload(n_products=150, n_users=40,
                            n_transactions=400, n_images=60, seed=5)
    catalog = Catalog()
    retail.register_into(catalog)
    return {name: catalog.get(name) for name in catalog.names()}


def test_retail_served_equals_blocked_pinned(model, retail_tables):
    oracle = Session(load_default_model=False, **ORACLE)
    oracle.register_model(model, default=True)
    with EngineServer(load_default_model=False) as server:
        server.register_model(model, default=True)
        for name, table in retail_tables.items():
            server.register_table(name, table)
            oracle.register_table(name, table)
        client = server.session()
        rows = dict.fromkeys([*RETAIL_FAMILIES, "ladder_join"], 0)
        # two passes: the second is served from the caches the first
        # filled (result cache, generic plans, reuse residuals)
        for _ in range(2):
            for family, text in retail_statements():
                served = client.sql(text)
                assert_identical(served, oracle.sql(text), text)
                rows[family] += served.num_rows
        assert all(rows.values()), rows
        assert server.state.reuse_registry.stats()["hits"] > 0
