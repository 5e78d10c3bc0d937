"""Incremental-ingest tests: append/upsert with delta-maintained caches.

The load-bearing property is **append-vs-rebuild parity**: after
``Session.append``, every query answers bit-identically to a fresh
engine over the grown table — whether the cached result was patched
from the delta (``classify_plan`` proved the plan append-monotone) or
refused and re-executed from scratch.  A hypothesis harness checks the
property across generated tables, deltas, and a query list that covers
every merge form (concat, limit, top-k with mixed directions,
mergeable aggregates, global MIN/MAX and integer AVG through their
partials) *and* the
refused fallbacks (float SUM/AVG, order above an aggregate).  A second
harness drives integer AVG with magnitudes around ``2**53 / n``, where
the maintained path and the ``avg-inexact`` refusal meet.

Deterministic units pin the rest of the contract: the split
invalidation dimension (per-table ``data_version`` moves, the catalog
version does not), plan-cache survival across appends (hit-rate 1.0),
never-stale serving after refusals, AVG partials computed over the old
rows once and over each delta after that, global MIN/MAX over a delta
the filter empties, concat-form entries re-stored without a copy and
sized as old plus delta, the upsert update-vs-insert split,
the classifier's refusal slugs, incremental vector-index extension
(exact for brute force, deterministic for HNSW), the streaming log
source's determinism
contract, and the server front door (scheduler admission + metrics).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine.session import Session
from repro.errors import CatalogError
from repro.ingest import DeltaRefused, classify_plan
from repro.ingest.delta import EXACT_SUM_BOUND
from repro.ingest.manager import IngestManager
from repro.obs.export import parse_prometheus
from repro.server import EngineServer
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.vector.bruteforce import BruteForceIndex
from repro.vector.hnsw import HNSWIndex
from repro.workloads.logs import LogWorkload, StreamingLogSource

SCHEMA = Schema([
    Field("id", DataType.INT64),
    Field("grp", DataType.STRING),
    Field("val", DataType.INT64),
    Field("score", DataType.FLOAT64),
])

U_SCHEMA = Schema([
    Field("rid", DataType.INT64),
    Field("tag", DataType.STRING),
])


def make_rows(n, start=0):
    return [{"id": start + i, "grp": "ab"[i % 2], "val": (start + i) % 7,
             "score": float(start + i) * 0.5} for i in range(n)]


def fresh_session(rows, extra=None):
    session = Session(load_default_model=False)
    session.catalog.register("t", Table.from_rows(rows, SCHEMA))
    if extra is not None:
        session.catalog.register("u", Table.from_rows(extra, U_SCHEMA))
    return session


def warm(session, query):
    """Two runs: the first computes stats (one last catalog-version
    bump), the second populates plan and result caches at the settled
    version — the same warmup discipline as test_semantic_reuse."""
    session.sql(query)
    return session.sql(query)


def assert_tables_identical(actual: Table, expected: Table) -> None:
    assert actual.schema.names == expected.schema.names
    assert actual.num_rows == expected.num_rows
    for name in expected.schema.names:
        left, right = actual.column(name), expected.column(name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), (
            f"column {name!r}: {left!r} != {right!r}")


# ---------------------------------------------------------------------------
# The split invalidation dimension
# ---------------------------------------------------------------------------
class TestDataVersioning:
    def test_append_bumps_data_version_not_catalog_version(self):
        session = fresh_session(make_rows(10))
        warm(session, "SELECT id FROM t")        # stats now settled
        catalog_before = session.catalog.version
        data_before = session.catalog.data_version("t")
        report = session.append("t", make_rows(3, start=100))
        assert report.data_version == data_before + 1
        assert session.catalog.data_version("t") == data_before + 1
        assert session.catalog.version == catalog_before
        assert session.catalog.get("t").num_rows == 13

    def test_empty_append_is_a_noop(self):
        session = fresh_session(make_rows(5))
        before = session.catalog.data_version("t")
        report = session.append("t", [])
        assert report.rows_inserted == 0
        assert report.data_version == before
        assert session.catalog.get("t").num_rows == 5

    def test_row_missing_column_raises(self):
        session = fresh_session(make_rows(5))
        with pytest.raises(CatalogError, match="missing columns"):
            session.append("t", [{"id": 99, "grp": "a"}])

    def test_mismatched_table_schema_raises(self):
        session = fresh_session(make_rows(5))
        wrong = Table.from_dict({"other": [1, 2]})
        with pytest.raises(CatalogError, match="does not match"):
            session.append("t", wrong)

    def test_upsert_unknown_key_column_raises(self):
        session = fresh_session(make_rows(5))
        with pytest.raises(CatalogError, match="upsert key"):
            session.upsert("t", make_rows(1), key="nope")


# ---------------------------------------------------------------------------
# Delta maintenance: patched entries keep hitting, bit-identically
# ---------------------------------------------------------------------------
class TestDeltaMaintenance:
    MAINTAINED = [
        "SELECT id, grp, val FROM t WHERE val > 1",
        "SELECT id FROM t LIMIT 4",
        "SELECT id, grp, val FROM t ORDER BY val DESC, id ASC LIMIT 6",
        "SELECT grp, COUNT(*) AS c, SUM(val) AS s, MIN(val) AS lo, "
        "MAX(val) AS hi FROM t GROUP BY grp",
    ]

    @pytest.mark.parametrize("query", MAINTAINED)
    def test_patched_entry_hits_and_matches_rebuild(self, query):
        base, delta = make_rows(20), make_rows(7, start=200)
        session = fresh_session(base)
        warm(session, query)
        report = session.append("t", delta)
        assert report.maintained == 1, report.refusals
        assert report.refused == 0
        hits_before = session.state.result_cache.stats()["hits"]
        patched = session.sql(query)
        assert session.state.result_cache.stats()["hits"] == hits_before + 1
        expected = fresh_session(base + delta).sql(query)
        assert_tables_identical(patched, expected)

    @pytest.mark.parametrize("query", [
        "SELECT grp AS g, COUNT(*) AS c, SUM(val) AS s FROM t GROUP BY grp",
        "SELECT grp AS g, AVG(val) AS a FROM t GROUP BY grp",
    ])
    def test_aliased_group_key_is_maintained(self, query):
        """The alias names the key's output column; the aggregate still
        sits over a row-local chain, so an append patches it."""
        base, delta = make_rows(20), make_rows(7, start=200)
        session = fresh_session(base)
        warm(session, query)
        report = session.append("t", delta)
        assert report.maintained == 1, report.refusals
        hits_before = session.state.result_cache.stats()["hits"]
        patched = session.sql(query)
        assert session.state.result_cache.stats()["hits"] == hits_before + 1
        assert patched.schema.names[0] == "g"
        assert_tables_identical(patched,
                                fresh_session(base + delta).sql(query))

    def test_plan_cache_hit_rate_stays_one_across_an_append(self):
        query = "SELECT id, val FROM t WHERE val > 2"
        session = fresh_session(make_rows(30))
        warm(session, query)
        before = session.state.plan_cache.stats()
        session.append("t", make_rows(5, start=300))
        session.sql(query)
        after = session.state.plan_cache.stats()
        assert after["misses"] == before["misses"]  # hit rate 1.0: no miss
        assert after["hits"] > before["hits"]

    def test_refused_entry_is_invalidated_never_stale(self):
        query = "SELECT AVG(score) AS a FROM t"
        base, delta = make_rows(12), make_rows(4, start=400)
        session = fresh_session(base)
        warm(session, query)
        report = session.append("t", delta)
        assert report.maintained == 0
        assert report.refusals == {"float-sum": 1}
        hits_before = session.state.result_cache.stats()["hits"]
        fresh = session.sql(query)               # recomputed, not served
        assert session.state.result_cache.stats()["hits"] == hits_before
        expected = fresh_session(base + delta).sql(query)
        assert_tables_identical(fresh, expected)

    def test_second_append_maintains_the_patched_entry_again(self):
        query = "SELECT grp, COUNT(*) AS c FROM t GROUP BY grp"
        session = fresh_session(make_rows(10))
        warm(session, query)
        first = session.append("t", make_rows(3, start=500))
        session.sql(query)                       # serve the patched entry
        second = session.append("t", make_rows(3, start=600))
        assert first.maintained == 1 and second.maintained == 1
        expected = fresh_session(
            make_rows(10) + make_rows(3, start=500)
            + make_rows(3, start=600)).sql(query)
        assert_tables_identical(session.sql(query), expected)

    def test_generic_serves_are_delta_maintained(self):
        # a generic serve stores no exact plan-cache entry; its result
        # must still be patched from the plan recorded with it
        queries = [f"SELECT id, val FROM t WHERE val >= {value}"
                   for value in range(5)]
        base, delta = make_rows(20), make_rows(7, start=800)
        session = fresh_session(base)
        for query in queries[:3]:
            warm(session, query)                 # promotes the family
        for query in queries[3:]:
            session.sql(query)
        assert session.state.plan_cache.stats()["generic_hits"] == 2
        report = session.append("t", delta)
        assert report.maintained == report.entries_seen == 5
        assert "plan-evicted" not in report.refusals
        rebuilt = fresh_session(base + delta)
        for query in queries:
            assert_tables_identical(session.sql(query), rebuilt.sql(query))

    def test_ingest_stats_accumulate(self):
        session = fresh_session(make_rows(8))
        warm(session, "SELECT id FROM t LIMIT 3")
        warm(session, "SELECT AVG(score) AS a FROM t")
        session.append("t", make_rows(2, start=700))
        stats = session.state.ingest.stats()
        assert stats["rows_total"] == 2
        assert stats["delta_maintained_total"] == 1
        assert stats["delta_refused_total"] == 1
        assert stats["refusal_reasons"] == {"float-sum": 1}


# ---------------------------------------------------------------------------
# Integer AVG: maintained from per-group partials kept on the entry
# ---------------------------------------------------------------------------
def other_group_rows(n, start):
    """Rows of a group (``"z"``) no earlier row belongs to."""
    return [dict(row, grp="z") for row in make_rows(n, start=start)]


class TestAvgMaintenance:
    QUERIES = [
        "SELECT grp, AVG(val) AS a FROM t GROUP BY grp",
        "SELECT AVG(val) AS a FROM t",
        "SELECT grp, COUNT(*) AS c, AVG(val) AS a, MIN(id) AS lo, "
        "AVG(id) AS b FROM t WHERE val > 1 GROUP BY grp",
        "SELECT SUM(val) AS s, AVG(id) AS a, COUNT(*) AS c FROM t "
        "WHERE val > 1",
    ]
    DELTAS = [make_rows(5, start=100), other_group_rows(3, start=200),
              make_rows(4, start=300)]

    @pytest.mark.parametrize("base_rows", [0, 9])
    @pytest.mark.parametrize("query", QUERIES)
    def test_three_appends_match_rebuild(self, query, base_rows):
        rows = make_rows(base_rows)
        session = fresh_session(rows)
        warm(session, query)
        for delta in self.DELTAS:
            report = session.append("t", delta)
            rows = rows + delta
            assert report.maintained == 1, report.refusals
            hits = session.state.result_cache.stats()["hits"]
            answer = session.sql(query)          # served, not re-run
            assert session.state.result_cache.stats()["hits"] == hits + 1
            assert_tables_identical(answer, fresh_session(rows).sql(query))

    def test_partial_over_the_base_once_then_only_deltas(self, monkeypatch):
        executed = []
        original = IngestManager._execute_over_delta

        def spy(self, plan, table, delta):
            executed.append(delta.num_rows)
            return original(self, plan, table, delta)

        monkeypatch.setattr(IngestManager, "_execute_over_delta", spy)
        query = "SELECT grp, AVG(val) AS a FROM t GROUP BY grp"
        session = fresh_session(make_rows(11))
        warm(session, query)
        session.append("t", make_rows(5, start=100))
        assert executed == [11, 5]
        session.sql(query)
        session.append("t", make_rows(3, start=200))
        session.append("t", make_rows(2, start=300))
        assert executed == [11, 5, 3, 2]

    def test_partial_bytes_count_toward_the_entry(self):
        query = "SELECT grp, AVG(val) AS a FROM t GROUP BY grp"
        session = fresh_session(make_rows(10))
        warm(session, query)
        session.append("t", make_rows(4, start=100))
        cache = session.state.result_cache
        [(_, entry)] = cache.entries_for_table("t")
        assert entry.partial is not None
        assert cache.bytes_used == (entry.table.estimated_bytes()
                                    + entry.partial.estimated_bytes())

    def test_a_delta_the_filter_empties_leaves_the_mean(self):
        query = "SELECT AVG(val) AS a FROM t WHERE val > 3"
        rows = make_rows(10)
        session = fresh_session(rows)
        warm(session, query)
        delta = [dict(row, val=0) for row in make_rows(3, start=100)]
        report = session.append("t", delta)
        assert report.maintained == 1, report.refusals
        assert_tables_identical(session.sql(query),
                                fresh_session(rows + delta).sql(query))

    def test_no_input_row_anywhere_is_the_empty_mean(self):
        query = "SELECT AVG(val) AS a, COUNT(*) AS c FROM t WHERE val > 3"
        session = fresh_session([])
        warm(session, query)
        delta = [dict(row, val=0) for row in make_rows(3)]
        report = session.append("t", delta)
        assert report.maintained == 1, report.refusals
        answer = session.sql(query)
        expected = fresh_session(delta).sql(query)
        assert answer.column("a").dtype == expected.column("a").dtype
        assert np.isnan(answer.column("a")).all()
        assert np.isnan(expected.column("a")).all()
        assert_tables_identical(answer.select(["c"]), expected.select(["c"]))

    def test_a_bound_past_two_to_the_53_refuses(self):
        query = "SELECT grp, AVG(val) AS a FROM t GROUP BY grp"
        rows = [dict(row, val=EXACT_SUM_BOUND // 3 + 1)
                for row in make_rows(4)]
        session = fresh_session(rows)
        warm(session, query)
        delta = make_rows(2, start=100)
        report = session.append("t", delta)
        assert report.refusals == {"avg-inexact": 1}
        assert_tables_identical(session.sql(query),
                                fresh_session(rows + delta).sql(query))


# ---------------------------------------------------------------------------
# Global MIN/MAX: maintained through the constant-group partial
# ---------------------------------------------------------------------------
def counted_rows(n):
    """``make_rows(n)`` with ``val = 0 .. n-1`` and ``score = val``."""
    return [dict(row, val=index, score=float(index))
            for index, row in enumerate(make_rows(n))]


class TestGlobalMinMax:
    @pytest.mark.parametrize("query", [
        "SELECT COUNT(*) AS c, MIN(val) AS lo FROM t WHERE val > 5",
        "SELECT COUNT(*) AS c, MIN(score) AS lo, MAX(score) AS hi "
        "FROM t WHERE score > 5",
    ])
    def test_a_delta_the_filter_empties_keeps_the_extremes(self, query):
        # the plan over this delta alone yields the empty-input row:
        # None, which an INT64 column cannot hold and a FLOAT64 one
        # holds as NaN — neither may reach the merged answer
        rows = counted_rows(10)
        session = fresh_session(rows)
        warm(session, query)
        delta = [dict(row, val=0, score=0.0)
                 for row in make_rows(3, start=100)]
        report = session.append("t", delta)
        assert report.maintained == 1, report.refusals
        assert session.catalog.get("t").num_rows == 13
        assert session.catalog.data_version("t") == 1
        hits = session.state.result_cache.stats()["hits"]
        answer = session.sql(query)
        assert session.state.result_cache.stats()["hits"] == hits + 1
        assert_tables_identical(answer,
                                fresh_session(rows + delta).sql(query))

    def test_later_entries_of_the_append_are_maintained(self):
        queries = ["SELECT COUNT(*) AS c, MAX(val) AS hi FROM t "
                   "WHERE val > 5",
                   "SELECT id, val FROM t WHERE val < 3"]
        rows = counted_rows(10)
        session = fresh_session(rows)
        for query in queries:
            warm(session, query)
        delta = [dict(row, val=0) for row in make_rows(3, start=100)]
        report = session.append("t", delta)
        assert report.maintained == report.entries_seen == 2
        rebuilt = fresh_session(rows + delta)
        for query in queries:
            assert_tables_identical(session.sql(query), rebuilt.sql(query))


# ---------------------------------------------------------------------------
# Concat form: grown in the entry's growth buffer, stored without a copy
# ---------------------------------------------------------------------------
class TestConcatMaintenance:
    QUERY = "SELECT id, grp, val FROM t WHERE val > 1"

    def test_restored_without_a_snapshot_copy(self, monkeypatch):
        session = fresh_session(make_rows(20))
        warm(session, self.QUERY)
        copies = []
        original = Table.copy

        def spy(table):
            copies.append(table.num_rows)
            return original(table)

        monkeypatch.setattr(Table, "copy", spy)
        report = session.append("t", make_rows(6, start=100))
        assert report.maintained == 1, report.refusals
        assert copies == []

    def test_entry_bytes_are_the_previous_plus_the_deltas(self):
        # strings long on every third row: the strided sample of a
        # large object column then over-estimates, so a re-measured
        # grown entry would differ from the carried-forward sum
        def rows_of(n, start):
            return [dict(row, grp="x" * (40 if (start + i) % 3 == 0
                                         else 1))
                    for i, row in enumerate(make_rows(n, start=start))]

        session = fresh_session(rows_of(3000, 0))
        warm(session, self.QUERY)
        cache = session.state.result_cache
        for start in (3000, 3400, 3800):
            delta = rows_of(400, start)
            before = cache.bytes_used
            session.append("t", delta)
            delta_out = fresh_session(delta).sql(self.QUERY)
            assert cache.bytes_used == before + delta_out.estimated_bytes()
        [(_, entry)] = cache.entries_for_table("t")
        remeasured = Table(entry.table.schema, dict(entry.table.columns))
        assert remeasured.estimated_bytes() != cache.bytes_used

    def test_three_appends_match_rebuild(self):
        rows = make_rows(20)
        session = fresh_session(rows)
        warm(session, self.QUERY)
        handed_out = session.catalog.get("t")
        for start in (100, 200, 300):
            delta = make_rows(5 + start // 100, start=start)
            rows = rows + delta
            report = session.append("t", delta)
            assert report.maintained == 1, report.refusals
            hits = session.state.result_cache.stats()["hits"]
            answer = session.sql(self.QUERY)
            assert session.state.result_cache.stats()["hits"] == hits + 1
            assert_tables_identical(answer,
                                    fresh_session(rows).sql(self.QUERY))
        # the table read before the appends still sees only its rows
        assert_tables_identical(handed_out,
                                Table.from_rows(make_rows(20), SCHEMA))


# ---------------------------------------------------------------------------
# Upsert: update path invalidates, pure-insert path maintains
# ---------------------------------------------------------------------------
class TestUpsert:
    def test_update_path_replaces_in_place_and_invalidates(self):
        query = "SELECT grp, SUM(val) AS s FROM t GROUP BY grp"
        session = fresh_session(make_rows(10))
        warm(session, query)
        report = session.upsert(
            "t", [{"id": 3, "grp": "b", "val": 6, "score": 9.0},
                  {"id": 99, "grp": "a", "val": 1, "score": 0.0}], key="id")
        assert report.rows_updated == 1
        assert report.rows_inserted == 1
        assert report.refusals == {"in-place-update": 1}
        table = session.catalog.get("t")
        assert table.num_rows == 11              # one replaced, one appended
        updated = dict(zip(table.column("id"), table.column("val")))
        assert updated[3] == 6 and updated[99] == 1
        rows = [dict(zip(table.schema.names, values)) for values in zip(
            *(table.column(name) for name in table.schema.names))]
        expected = fresh_session(rows).sql(query)
        assert_tables_identical(session.sql(query), expected)

    def test_no_collision_upsert_takes_the_append_path(self):
        query = "SELECT id, val FROM t WHERE val >= 0"
        session = fresh_session(make_rows(10))
        warm(session, query)
        report = session.upsert("t", make_rows(4, start=800), key="id")
        assert report.mode == "upsert"
        assert report.rows_updated == 0
        assert report.rows_inserted == 4
        assert report.maintained == 1            # delta maintenance ran


# ---------------------------------------------------------------------------
# The classifier's refusal vocabulary (end-to-end through real plans)
# ---------------------------------------------------------------------------
class TestClassifierRefusals:
    @pytest.mark.parametrize("query,reason", [
        ("SELECT id, tag FROM t JOIN u ON id = rid",
         "non-monotone-operator:JoinNode"),
        ("SELECT AVG(score) AS a FROM t",
         "float-sum"),
        ("SELECT SUM(score) AS s FROM t",
         "float-sum"),
        ("SELECT id, val FROM t ORDER BY val DESC, grp ASC LIMIT 5",
         "sort-key-projected-away:grp"),
        ("SELECT grp, COUNT(*) AS c FROM t GROUP BY grp ORDER BY c DESC",
         "order-above-aggregate"),
    ])
    def test_refusal_reason(self, query, reason):
        extra = [{"rid": i, "tag": f"tag{i % 3}"} for i in range(20)]
        session = fresh_session(make_rows(20), extra=extra)
        warm(session, query)
        report = session.append("t", make_rows(5, start=900))
        assert report.refusals == {reason: 1}, report.refusals
        assert report.maintained == 0

    def test_classify_refuses_foreign_table(self):
        session = fresh_session(make_rows(5))
        plan = session.plan_for("SELECT id FROM t").plan
        with pytest.raises(DeltaRefused) as excinfo:
            classify_plan(plan, "somewhere_else")
        assert "scan-of-other-table" in excinfo.value.reason


# ---------------------------------------------------------------------------
# Incremental vector indexes
# ---------------------------------------------------------------------------
class TestIncrementalIndexes:
    def test_bruteforce_extended_equals_rebuild_exactly(self, rng):
        old = rng.normal(size=(12, 16)).astype(np.float32)
        new = rng.normal(size=(5, 16)).astype(np.float32)
        extended = BruteForceIndex().build(old).extended(new)
        rebuilt = BruteForceIndex().build(np.vstack([old, new]))
        assert np.array_equal(extended.vectors, rebuilt.vectors)
        query = rng.normal(size=16).astype(np.float32)
        left, right = extended.search(query, 6), rebuilt.search(query, 6)
        assert np.array_equal(left.ids, right.ids)
        assert np.array_equal(left.scores, right.scores)

    def test_extended_index_is_a_fresh_object(self, rng):
        old = rng.normal(size=(6, 8)).astype(np.float32)
        base = BruteForceIndex().build(old)
        extended = base.extended(rng.normal(size=(2, 8)).astype(np.float32))
        assert base.size == 6 and extended.size == 8
        assert extended is not base

    def test_hnsw_extension_is_deterministic(self, rng):
        old = rng.normal(size=(30, 12)).astype(np.float32)
        new = rng.normal(size=(8, 12)).astype(np.float32)
        one = HNSWIndex(seed=5).build(old.copy()).extended(new.copy())
        two = HNSWIndex(seed=5).build(old.copy()).extended(new.copy())
        assert np.array_equal(one.vectors, two.vectors)
        for query in rng.normal(size=(4, 12)).astype(np.float32):
            first, second = one.search(query, 5), two.search(query, 5)
            assert np.array_equal(first.ids, second.ids)


# ---------------------------------------------------------------------------
# Streaming log source
# ---------------------------------------------------------------------------
class TestStreamingLogSource:
    def test_stream_prefix_matches_fresh_generation(self):
        stream = StreamingLogSource(initial_rows=60, batch_rows=20, seed=5)
        pieces = [stream.initial(), *stream.batches(3)]
        combined = Table.concat(pieces)
        fresh = StreamingLogSource(initial_rows=120, seed=5).initial()
        assert_tables_identical(combined, fresh)

    def test_default_stream_matches_log_workload(self):
        stream = StreamingLogSource(initial_rows=50, seed=67)
        # LogWorkload derives a different seed stream on purpose; the
        # contract is internal consistency, not cross-generator equality
        initial = stream.initial()
        assert initial.num_rows == 50
        assert initial.schema.names == LogWorkload(n=5).generate() \
            .schema.names
        batch = stream.next_batch()
        assert batch.num_rows == 50              # defaults to batch_rows
        assert batch.column("ts")[0] > initial.column("ts")[-1]

    def test_initial_twice_raises(self):
        stream = StreamingLogSource(initial_rows=5)
        stream.initial()
        with pytest.raises(RuntimeError, match="first draw"):
            stream.initial()

    def test_batch_before_initial_raises(self):
        with pytest.raises(RuntimeError, match="before streaming"):
            StreamingLogSource().next_batch()


# ---------------------------------------------------------------------------
# The server front door: scheduler admission + metrics
# ---------------------------------------------------------------------------
class TestServerIngest:
    @pytest.fixture()
    def server(self):
        with EngineServer(load_default_model=False) as server:
            server.register_table(
                "t", Table.from_rows(make_rows(20), SCHEMA))
            yield server

    def test_append_through_the_scheduler(self, server):
        query = "SELECT grp, COUNT(*) AS c FROM t GROUP BY grp"
        server.sql(query)
        server.sql(query)
        report = server.append("t", make_rows(5, start=1000))
        assert report.rows_inserted == 5
        assert report.maintained == 1
        expected = fresh_session(
            make_rows(20) + make_rows(5, start=1000)).sql(query)
        assert_tables_identical(server.sql(query), expected)

    def test_nonblocking_append_returns_a_ticket(self, server):
        ticket = server.append("t", make_rows(2, start=1100), wait=False)
        report = ticket.result()
        assert report.rows_inserted == 2

    def test_upsert_through_the_scheduler(self, server):
        report = server.upsert(
            "t", [{"id": 0, "grp": "b", "val": 5, "score": 1.0}], key="id")
        assert report.rows_updated == 1

    def test_ingest_metrics_exported(self, server):
        server.append("t", make_rows(3, start=1200))
        metrics = server.metrics()
        assert metrics["ingest"]["rows_total"] == 3
        parsed = parse_prometheus(server.export_prometheus())
        assert parsed["ingest_rows_total"] == 3.0
        staleness = [name for name in parsed
                     if name.startswith("ingest_table_staleness_seconds")]
        assert staleness, sorted(parsed)


# ---------------------------------------------------------------------------
# The property: append-then-query == rebuild-then-query, bit for bit
# ---------------------------------------------------------------------------
ROW = st.fixed_dictionaries({
    "id": st.integers(0, 50),
    "grp": st.sampled_from(["a", "b", "c"]),
    "val": st.integers(-5, 5),
    "score": st.integers(-4, 4).map(float),
})

#: Covers every merge form the classifier proves (concat, filter
#: chain, limit, top-k under each direction pattern, full sort,
#: mergeable aggregates, global MIN/MAX and integer AVG through their
#: partials) and the refused fallbacks (float
#: AVG, float SUM,
#: order above an aggregate) — parity must hold on BOTH paths.
PARITY_QUERIES = [
    "SELECT id, grp, val FROM t",
    "SELECT id, val FROM t WHERE val > 0",
    "SELECT id FROM t LIMIT 4",
    "SELECT id, grp, val FROM t ORDER BY val ASC, id ASC LIMIT 6",
    "SELECT id, grp, val FROM t ORDER BY val DESC, id ASC LIMIT 6",
    "SELECT id, grp, val FROM t ORDER BY val DESC, id DESC LIMIT 6",
    "SELECT id, grp, val FROM t ORDER BY grp ASC, val DESC",
    "SELECT grp, COUNT(*) AS c, SUM(val) AS s, MIN(val) AS lo, "
    "MAX(val) AS hi FROM t GROUP BY grp",
    "SELECT COUNT(*) AS c, MIN(val) AS lo, MAX(score) AS hi FROM t",
    "SELECT AVG(val) AS a FROM t",
    "SELECT grp, AVG(val) AS a FROM t GROUP BY grp",
    "SELECT AVG(score) AS a FROM t",
    "SELECT SUM(score) AS s FROM t",
    "SELECT grp, COUNT(*) AS c FROM t GROUP BY grp "
    "ORDER BY c DESC, grp ASC",
    "SELECT grp AS g, COUNT(*) AS c, MAX(val) AS hi FROM t GROUP BY grp",
]


@given(base=st.lists(ROW, min_size=1, max_size=12),
       delta=st.lists(ROW, max_size=10),
       query=st.sampled_from(PARITY_QUERIES))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_append_then_query_matches_rebuild(base, delta, query):
    live = fresh_session(base)
    warm(live, query)                        # a cached entry pre-append
    report = live.append("t", delta)
    assert report.maintained + report.refused == report.entries_seen
    patched = live.sql(query)
    expected = fresh_session(base + delta).sql(query)
    assert_tables_identical(patched, expected)


#: ``val`` near ``2**53 / k`` for a few ``k`` (either sign), or small:
#: a group's ``max(|min|, |max|) · n`` lands on either side of the
#: exactness bound, and past it float64 casts and sums round.
AVG_ROW = st.fixed_dictionaries({
    "id": st.integers(0, 50),
    "grp": st.sampled_from(["a", "b"]),
    "val": st.one_of(
        st.integers(-5, 5),
        st.builds(lambda k, offset, sign: sign * (EXACT_SUM_BOUND // k
                                                  + offset),
                  st.integers(1, 8), st.integers(-3, 3),
                  st.sampled_from([-1, 1]))),
    "score": st.just(0.0),
})


def avg_bound_exceeded(rows, grouped):
    groups = {}
    for row in rows:
        groups.setdefault(row["grp"] if grouped else None,
                          []).append(row["val"])
    return any(max(abs(value) for value in values) * len(values)
               > EXACT_SUM_BOUND for values in groups.values())


_HUGE = EXACT_SUM_BOUND // 3 + 1


@given(base=st.lists(AVG_ROW, min_size=1, max_size=6),
       delta=st.lists(AVG_ROW, min_size=1, max_size=6),
       grouped=st.booleans())
@example(base=[{"id": 1, "grp": "a", "val": 3, "score": 0.0}],
         delta=[{"id": 2, "grp": "b", "val": -4, "score": 0.0}],
         grouped=True)
@example(base=[{"id": 1, "grp": "a", "val": _HUGE, "score": 0.0}] * 3,
         delta=[{"id": 2, "grp": "a", "val": _HUGE, "score": 0.0}],
         grouped=False)
# a row-order float sum drops both 1s (2**53 + 1 rounds back to 2**53),
# so a merge that did not refuse would answer (2**53 + 2) / 3
@example(base=[{"id": 1, "grp": "a", "val": EXACT_SUM_BOUND, "score": 0.0}],
         delta=[{"id": 2, "grp": "a", "val": 1, "score": 0.0}] * 2,
         grouped=False)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_integer_avg_append_matches_rebuild(base, delta, grouped):
    query = ("SELECT grp, AVG(val) AS a FROM t GROUP BY grp" if grouped
             else "SELECT AVG(val) AS a FROM t")
    live = fresh_session(base)
    warm(live, query)
    report = live.append("t", delta)
    if avg_bound_exceeded(base + delta, grouped):
        assert report.refusals == {"avg-inexact": 1}
    else:
        assert report.maintained == 1, report.refusals
    assert_tables_identical(live.sql(query),
                            fresh_session(base + delta).sql(query))
