"""Cross-statement result cache: snapshots, invalidation, eviction, races.

The invariants this cache must not get wrong:

- **Snapshot semantics**: a caller mutating a returned table — or the
  original result it handed in — can never poison later hits (the
  regression tests mutate a hit in place and re-fetch).
- **Versioned invalidation is exactly as precise as the plan cache's**:
  any ``register_table``/``drop``/statistics refresh means a later
  lookup never serves a pre-change result; an arena clear
  (``invalidate_model``) retires results of plans that embedded with
  that model.
- **Byte budget holds under pressure**: LRU eviction keeps
  ``bytes <= max_bytes`` at all times; an oversize result is simply not
  cached.

The ``concurrency``-marked races drive a hit storm (N clients, one
execution), register-during-hit (a lookup after ``register_table``
returns must never see the old result), and eviction under a tiny
budget — deterministic lane: ``pytest -m concurrency -p no:randomly``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine.result_cache import (
    ResultCache,
    ResultKey,
)
from repro.engine.session import Session
from repro.semantic.cache import RETIRED_GENERATIONS
from repro.server import EngineServer, SchedulerConfig
from repro.storage.table import Table


def key_for(digest="d", parameters=(), version=0, model="m",
            arena_generations=()) -> ResultKey:
    return ResultKey(digest=digest, parameters=parameters,
                     catalog_version=version, model_name=model,
                     arena_generations=arena_generations)


def small_table(values=(1, 2, 3), tag="x") -> Table:
    return Table.from_dict({"a": list(values),
                            "b": [f"{tag}{v}" for v in values]})


@pytest.fixture()
def session(model):
    session = Session(load_default_model=False)
    session.register_model(model, default=True)
    session.register_table("t", Table.from_dict({
        "a": [1, 2, 3, 4], "b": ["w", "x", "y", "z"]}))
    return session


def warm(session: Session, text: str) -> Table:
    """Issue ``text`` until it is cached under a stable catalog version
    (the first run may bump the version by computing statistics)."""
    session.sql(text)
    return session.sql(text)


def rows(table: Table) -> list[tuple]:
    return sorted(tuple(row.items()) for row in table.to_rows())


# ---------------------------------------------------------------------------
# The cache object itself
# ---------------------------------------------------------------------------
class TestResultCacheUnit:
    def test_roundtrip_and_counters(self):
        cache = ResultCache(max_bytes=1 << 20)
        key = key_for()
        assert cache.get(key) is None
        assert cache.put(key, small_table())
        hit = cache.get(key)
        assert rows(hit) == rows(small_table())
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["puts"]) == (1, 1, 1)
        assert stats["entries"] == 1
        assert stats["bytes"] > 0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)

    def test_hit_mutation_cannot_poison_cache(self):
        """THE snapshot regression: mutate a hit in place, re-fetch."""
        cache = ResultCache()
        key = key_for()
        cache.put(key, small_table())
        first = cache.get(key)
        first.columns["a"][:] = -99
        first.columns["b"][0] = "poisoned"
        again = cache.get(key)
        assert rows(again) == rows(small_table())

    def test_put_source_mutation_cannot_poison_cache(self):
        cache = ResultCache()
        key = key_for()
        source = small_table()
        cache.put(key, source)
        source.columns["a"][:] = -99
        assert rows(cache.get(key)) == rows(small_table())

    def test_two_hits_are_independent_copies(self):
        cache = ResultCache()
        key = key_for()
        cache.put(key, small_table())
        one, two = cache.get(key), cache.get(key)
        one.columns["a"][:] = -1
        assert rows(two) == rows(small_table())

    def test_lru_eviction_keeps_bytes_under_budget(self):
        entry_bytes = small_table().estimated_bytes()
        cache = ResultCache(max_bytes=entry_bytes * 2)
        keys = [key_for(digest=f"d{i}") for i in range(4)]
        for key in keys:
            cache.put(key, small_table())
            assert cache.bytes_used <= cache.max_bytes
        stats = cache.stats()
        assert stats["evictions"] >= 2
        # oldest evicted, newest still resident
        assert cache.get(keys[0]) is None
        assert cache.get(keys[-1]) is not None

    def test_lru_order_follows_hits(self):
        entry_bytes = small_table().estimated_bytes()
        cache = ResultCache(max_bytes=entry_bytes * 2)
        a, b, c = (key_for(digest=d) for d in "abc")
        cache.put(a, small_table())
        cache.put(b, small_table())
        cache.get(a)                      # a is now most recent
        cache.put(c, small_table())       # evicts b, not a
        assert cache.get(a) is not None
        assert cache.get(b) is None

    def test_oversize_result_is_skipped(self):
        table = small_table(range(100))
        cache = ResultCache(max_bytes=table.estimated_bytes() - 1)
        assert not cache.put(key_for(), table)
        assert len(cache) == 0
        assert cache.stats()["oversize_skips"] == 1

    def test_replacing_an_entry_does_not_double_count_bytes(self):
        cache = ResultCache()
        key = key_for()
        cache.put(key, small_table())
        once = cache.bytes_used
        cache.put(key, small_table())
        assert cache.bytes_used == once
        assert len(cache) == 1

    def test_newer_catalog_version_sweeps_stale_entries(self):
        cache = ResultCache()
        cache.put(key_for(version=1), small_table())
        cache.put(key_for(digest="e", version=2), small_table())
        stats = cache.stats()
        assert stats["stale_evictions"] == 1
        assert stats["entries"] == 1
        assert cache.get(key_for(version=1)) is None

    def test_stale_keyed_put_is_refused_not_inserted(self):
        """A put whose key is already below the version watermark (an
        invalidation landed mid-query) must not enter the store — a
        never-matchable entry could otherwise evict live ones."""
        cache = ResultCache()
        cache.put(key_for(digest="live", version=2), small_table())
        assert not cache.put(key_for(digest="late", version=1),
                             small_table())
        assert len(cache) == 1
        assert cache.get(key_for(digest="live", version=2)) is not None

    def test_retired_generation_put_is_refused(self, model):
        from repro.semantic.cache import EmbeddingCache

        arena = EmbeddingCache(model)
        generation = arena.generation
        arena.clear()
        cache = ResultCache()
        assert not cache.put(
            key_for(arena_generations=(("m", generation),)), small_table())
        assert len(cache) == 0

    def test_no_arena_yet_sentinel_put_is_refused(self):
        """A key carrying generation -1 ("no arena yet") can never match
        a later lookup (the arena now exists), so it is not stored."""
        cache = ResultCache()
        assert not cache.put(key_for(arena_generations=(("m", -1),)),
                             small_table())
        assert len(cache) == 0

    def test_retired_arena_generation_sweeps_entries(self, model):
        from repro.semantic.cache import EmbeddingCache

        arena = EmbeddingCache(model)
        generation = arena.generation
        cache = ResultCache()
        cache.put(key_for(arena_generations=(("m", generation),)),
                  small_table())
        arena.clear()            # retires the generation token
        assert generation in RETIRED_GENERATIONS
        cache.put(key_for(digest="e"), small_table())
        assert cache.stats()["stale_evictions"] == 1

    def test_invalidate_drops_everything_and_counts(self):
        cache = ResultCache()
        for digest in "abc":
            cache.put(key_for(digest=digest), small_table())
        assert cache.invalidate() == 3
        stats = cache.stats()
        assert stats["invalidations"] == 3
        assert stats["entries"] == 0
        assert stats["bytes"] == 0

    def test_estimate_counts_object_payload(self):
        numeric = Table.from_dict({"a": [1, 2, 3]})
        strings = Table.from_dict({"a": ["long string value here"] * 3})
        assert numeric.estimated_bytes() == \
            int(numeric.columns["a"].nbytes)
        assert strings.estimated_bytes() > 3 * len(
            "long string value here")

    def test_snapshot_shares_no_array_storage(self):
        table = small_table()
        copy = table.copy()
        for name in table.columns:
            assert not np.shares_memory(table.columns[name],
                                        copy.columns[name])
        assert copy.schema is table.schema


# ---------------------------------------------------------------------------
# Session integration (standalone engine path)
# ---------------------------------------------------------------------------
class TestSessionIntegration:
    def test_repeat_statement_is_a_result_hit(self, session):
        statement = "SELECT a, b FROM t WHERE a > 1"
        reference = rows(warm(session, statement))
        before = session.state.result_cache.stats()
        repeat = session.sql(statement)
        after = session.state.result_cache.stats()
        assert after["hits"] == before["hits"] + 1
        assert session.last_profile.result_cache_hit is True
        assert session.last_profile.plan_cache_hit is True
        assert rows(repeat) == reference

    def test_canonically_equal_spelling_hits(self, session):
        reference = rows(warm(session, "SELECT a FROM t WHERE a > 1"))
        repeat = session.sql("select   a\nFROM t  WHERE a > 1")
        assert session.last_profile.result_cache_hit is True
        assert rows(repeat) == reference

    def test_different_literal_misses(self, session):
        warm(session, "SELECT a FROM t WHERE a > 1")
        session.sql("SELECT a FROM t WHERE a > 2")
        assert session.last_profile.result_cache_hit is False

    def test_mutating_returned_result_does_not_poison(self, session):
        statement = "SELECT a, b FROM t WHERE a > 1"
        reference = rows(warm(session, statement))
        hit = session.sql(statement)
        assert session.last_profile.result_cache_hit is True
        hit.columns["a"][:] = -99
        hit.columns["b"][:] = "poison"
        again = session.sql(statement)
        assert session.last_profile.result_cache_hit is True
        assert rows(again) == reference

    def test_register_replace_serves_fresh_result(self, session):
        statement = "SELECT a FROM t WHERE a > 0"
        warm(session, statement)
        session.register_table("t", Table.from_dict({
            "a": [10, 20], "b": ["p", "q"]}), replace=True)
        result = session.sql(statement)
        assert session.last_profile.result_cache_hit is False
        assert sorted(result.column("a").tolist()) == [10, 20]

    def test_drop_and_reregister_serves_fresh_result(self, session):
        statement = "SELECT a FROM t"
        warm(session, statement)
        session.catalog.drop("t")
        session.register_table("t", Table.from_dict({
            "a": [7], "b": ["z"]}))
        result = session.sql(statement)
        assert session.last_profile.result_cache_hit is False
        assert result.column("a").tolist() == [7]

    def test_stats_refresh_misses_but_answers_identically(self, session):
        statement = "SELECT a FROM t WHERE a > 1"
        reference = rows(warm(session, statement))
        session.catalog.refresh_stats("t")
        result = session.sql(statement)
        assert session.last_profile.result_cache_hit is False
        assert rows(result) == reference

    def test_arena_clear_retires_semantic_results(self, session):
        statement = "SELECT b FROM t WHERE b ~ 'w' THRESHOLD 0.5"
        warm(session, statement)
        session.sql(statement)
        assert session.last_profile.result_cache_hit is True
        session.embedding_cache().clear()
        session.sql(statement)
        assert session.last_profile.result_cache_hit is False

    def test_relational_statement_key_ignores_arena_state(self, session):
        """A plan that embeds nothing keys on no arena generations, so
        creating an arena later cannot retire its results."""
        statement = "SELECT a FROM t WHERE a > 1"
        warm(session, statement)
        session.embedding_cache()        # create the default arena now
        session.sql(statement)
        assert session.last_profile.result_cache_hit is True

    def test_unoptimized_path_bypasses_result_cache(self, session):
        statement = "SELECT a FROM t"
        warm(session, statement)
        session.sql(statement, optimize=False)
        assert session.last_profile.result_cache_hit is None

    def test_disabled_result_cache(self, model):
        session = Session(load_default_model=False)
        session.state.result_cache = None
        session.register_model(model, default=True)
        session.register_table("t", small_table())
        warm(session, "SELECT a FROM t")
        session.sql("SELECT a FROM t")
        assert session.last_profile.result_cache_hit is None

    def test_semantic_join_repeat_hits(self, session):
        session.register_table("u", Table.from_dict({
            "c": ["w", "y", "other"]}))
        statement = ("SELECT s.a, u.c FROM t AS s SEMANTIC JOIN u AS u "
                     "ON s.b ~ u.c THRESHOLD 0.95 ORDER BY s.a, u.c")
        reference = rows(warm(session, statement))
        repeat = session.sql(statement)
        assert session.last_profile.result_cache_hit is True
        assert rows(repeat) == reference


# ---------------------------------------------------------------------------
# Server integration
# ---------------------------------------------------------------------------
@pytest.fixture()
def server(model):
    with EngineServer(load_default_model=False,
                      scheduler_config=SchedulerConfig(workers=2)) as server:
        server.register_model(model, default=True)
        server.register_table("t", Table.from_dict({
            "a": list(range(20)),
            "b": [f"item{i % 4}" for i in range(20)],
        }))
        yield server


class TestServerIntegration:
    def test_hit_is_shared_across_clients(self, server):
        statement = "SELECT a FROM t WHERE a > 3"
        one, two = server.session("one"), server.session("two")
        one.sql(statement)
        one.sql(statement)                  # cached under stable version
        reference = rows(one.sql(statement))
        result = two.sql(statement)
        assert rows(result) == reference
        assert two.last_profile.result_cache_hit is True
        assert two.last_profile.lane == "interactive"
        assert two.last_profile.tenant == "two"

    def test_hit_counts_as_scheduler_noop(self, server):
        statement = "SELECT a FROM t WHERE a > 3"
        client = server.session("noop")
        client.sql(statement)
        client.sql(statement)
        admitted_before = server.scheduler.stats()["admitted"]
        client.sql(statement)
        stats = server.scheduler.stats()
        assert stats["admitted"] == admitted_before
        assert stats["result_cache_noops"] >= 1
        assert stats["tenants"]["noop"]["result_cache_hits"] >= 1

    def test_metrics_report_result_cache(self, server):
        server.sql("SELECT a FROM t")
        metrics = server.metrics()
        section = metrics["result_cache"]
        for field in ("hits", "misses", "puts", "evictions",
                      "stale_evictions", "invalidations", "bytes",
                      "max_bytes"):
            assert field in section

    def test_invalidate_model_retires_semantic_results(self, server):
        statement = "SELECT b FROM t WHERE b ~ 'item1' THRESHOLD 0.5"
        client = server.session("inv")
        client.sql(statement)
        client.sql(statement)
        client.sql(statement)
        assert client.last_profile.result_cache_hit is True
        server.invalidate_model(server.state.default_model_name)
        client.sql(statement)
        assert client.last_profile.result_cache_hit is False

    def test_invalidate_results_admin_override(self, server):
        """Explicit drop for mutations the engine cannot see (in-place
        array edits): the next statement re-executes."""
        statement = "SELECT a FROM t WHERE a > 3"
        client = server.session("adm")
        client.sql(statement)
        client.sql(statement)
        client.sql(statement)
        assert client.last_profile.result_cache_hit is True
        assert server.invalidate_results() >= 1
        client.sql(statement)
        assert client.last_profile.result_cache_hit is False
        assert server.metrics()["result_cache"]["invalidations"] >= 1

    def test_server_hit_profile_measures_probe_time(self, server):
        statement = "SELECT a FROM t WHERE a > 3"
        client = server.session("probe")
        client.sql(statement)
        client.sql(statement)
        client.sql(statement)
        assert client.last_profile.result_cache_hit is True
        assert client.last_profile.total_seconds > 0.0

    def test_register_through_server_retires_results(self, server):
        statement = "SELECT a FROM t WHERE a > 3"
        client = server.session("reg")
        client.sql(statement)
        client.sql(statement)
        server.register_table("t", Table.from_dict({
            "a": [100], "b": ["new"]}), replace=True)
        result = client.sql(statement)
        assert client.last_profile.result_cache_hit is False
        assert result.column("a").tolist() == [100]


# ---------------------------------------------------------------------------
# Races (deterministic lane: -m concurrency -p no:randomly)
# ---------------------------------------------------------------------------
def run_threads(n, target):
    errors = []

    def wrap(index):
        try:
            target(index)
        except BaseException as error:  # noqa: BLE001 — surfaced below
            errors.append(error)

    threads = [threading.Thread(target=wrap, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


@pytest.mark.concurrency
class TestRaces:
    N_THREADS = 8

    def test_hit_storm_one_execution(self, server):
        """N clients hammer one warmed statement: zero re-executions,
        every hit an independent snapshot."""
        statement = "SELECT a, b FROM t WHERE a > 2 ORDER BY a"
        admin = server.session("warm")
        admin.sql(statement)
        reference = rows(admin.sql(statement))   # cached, stable version
        puts_before = server.state.result_cache.stats()["puts"]
        barrier = threading.Barrier(self.N_THREADS)

        def storm(index):
            client = server.session(f"storm{index}")
            barrier.wait(timeout=10)
            for _ in range(10):
                result = client.sql(statement)
                assert rows(result) == reference
                # mutate my snapshot: must never reach another client
                result.columns["a"][:] = -index

        run_threads(self.N_THREADS, storm)
        stats = server.state.result_cache.stats()
        assert stats["puts"] == puts_before      # nothing re-executed
        assert stats["hits"] >= self.N_THREADS * 10

    def test_register_during_hits_never_serves_stale(self, server):
        """Readers racing register(replace=True) always get a table
        consistent with some registered version, and a query issued
        after the final register sees the final contents."""
        versions = {
            0: Table.from_dict({"a": [0] * 4, "b": ["v0"] * 4}),
            1: Table.from_dict({"a": [1] * 4, "b": ["v1"] * 4}),
        }
        valid = {tuple(rows(table)) for table in versions.values()}
        # also valid: the fixture's initial contents, pre-first-swap
        initial = server.session("init").sql("SELECT a, b FROM t")
        valid.add(tuple(rows(initial)))
        statement = "SELECT a, b FROM t"
        stop = threading.Event()
        barrier = threading.Barrier(self.N_THREADS + 1)

        def reader(index):
            client = server.session(f"reader{index}")
            barrier.wait(timeout=10)
            while not stop.is_set():
                assert tuple(rows(client.sql(statement))) in valid

        def writer():
            barrier.wait(timeout=10)
            for round_number in range(12):
                server.register_table("t", versions[round_number % 2],
                                      replace=True)
            stop.set()

        errors = []

        def wrap(fn, *args):
            try:
                fn(*args)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)
                stop.set()

        threads = [threading.Thread(target=wrap, args=(reader, i))
                   for i in range(self.N_THREADS)]
        threads.append(threading.Thread(target=wrap, args=(writer,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        # after the last register (odd count: final table is versions[1]),
        # a fresh lookup must see the final contents — never a stale hit
        final = server.session("final").sql(statement)
        assert rows(final) == rows(versions[1])

    def test_eviction_under_pressure_tiny_budget(self, model):
        """A byte budget sized for ~2 results under an 8-thread storm
        over 6 distinct statements: budget holds, answers stay right."""
        with EngineServer(load_default_model=False,
                          scheduler_config=SchedulerConfig(workers=2),
                          result_cache_bytes=2_000) as server:
            server.register_model(model, default=True)
            server.register_table("t", Table.from_dict({
                "a": list(range(50)),
                "b": [f"val{i % 7}" for i in range(50)],
            }))
            statements = [f"SELECT a, b FROM t WHERE a > {cut} ORDER BY a"
                          for cut in (0, 10, 20, 30, 40, 45)]
            admin = server.session("warm")
            references = {}
            for statement in statements:
                admin.sql(statement)
                references[statement] = rows(admin.sql(statement))
            barrier = threading.Barrier(self.N_THREADS)

            def pressure(index):
                client = server.session(f"p{index}")
                barrier.wait(timeout=10)
                for round_number in range(6):
                    statement = statements[(index + round_number)
                                           % len(statements)]
                    assert rows(client.sql(statement)) == \
                        references[statement]
                    assert (server.state.result_cache.bytes_used
                            <= server.state.result_cache.max_bytes)

            run_threads(self.N_THREADS, pressure)
            stats = server.state.result_cache.stats()
            assert stats["bytes"] <= stats["max_bytes"]
            assert stats["evictions"] > 0
