"""Access paths change the cost, never the answer — on wiki-shaped joins.

Each side of a Fig. 4 wiki join is a narrow ``views >= a AND views < b``
slice of a large table.  Estimated as one conjunction, a slice is a few
hundred rows, so the cost model picks exact blocked GEMM over the
approximate LSH index (which, priced on the independent-bounds product,
it used to pick — and miss top-k pairs with).  Served results must be
bit-identical — values, dtypes, row order — to a cache-less session
pinned to ``blocked``, and each join family must promote to a generic
plan without an ``approximate_access_path`` refusal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.plan_cache import PROMOTION_REFUSAL_REASONS
from repro.engine.session import Session
from repro.optimizer.optimizer import OptimizerConfig
from repro.optimizer.physical_selection import CANDIDATE_METHODS
from repro.reuse.analysis import REUSE_SAFE_METHODS
from repro.storage.table import Table
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


def test_served_equals_blocked_pinned(model, wiki_tables):
    served_session = wiki_session(model, wiki_tables)
    oracle = wiki_session(
        model, wiki_tables, result_cache_bytes=0, semantic_reuse=False,
        generic_plans=False,
        optimizer_config=OptimizerConfig(semantic_join_methods=("blocked",)))
    for text in statements():
        served, expected = served_session.sql(text), oracle.sql(text)
        assert served.num_rows > 0
        assert served.schema.names == expected.schema.names
        for name in served.schema.names:
            got, want = served.columns[name], expected.columns[name]
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), (name, text)

    # every full optimization chose an exact access path, and counted it
    chosen = {method: counter(served_session,
                              "optimizer_semantic_join_method_total",
                              method=method)
              for method in CANDIDATE_METHODS}
    assert chosen["blocked"] > 0
    assert all(count == 0 for method, count in chosen.items()
               if method not in REUSE_SAFE_METHODS), chosen

    # both join families promote, none refused for an approximate path
    refusals = {reason: counter(served_session,
                                "plan_cache_promotion_refusals_total",
                                reason=reason)
                for reason in PROMOTION_REFUSAL_REASONS}
    assert refusals["approximate_access_path"] == 0, refusals
    stats = served_session.state.plan_cache.stats()
    assert stats["promotions"] == len(FAMILIES)
    assert counter(served_session, "plan_cache_generic_hits_total") > 0
