"""Serving-layer tests: shared state, scheduler, and real thread races.

The race tests (marked ``concurrency``) drive genuinely concurrent
threads through the shared arenas, index cache, plan cache, and
scheduler, asserting the invariants the serving PR promises:

- concurrent misses on one model create ONE arena and embed each
  distinct string once (no lost updates, no duplicate embeds);
- concurrent misses on one index key build ONE index (single-flight);
- arena growth is publish-safe: readers gathering during growth see
  exact, fully-written vectors, never torn rows;
- a duplicate-statement storm is answered from one plan-cache entry
  with identical results;
- registering tables while queries run never corrupts results — every
  query sees a consistent before-or-after table.

CI runs them in a dedicated deterministic lane:
``pytest -m concurrency -p no:randomly -p no:cacheprovider``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import AdmissionError, ServerError
from repro.semantic import index_cache as index_cache_module
from repro.semantic.cache import EmbeddingCache
from repro.semantic.index_cache import IndexCache
from repro.server import EngineServer, Scheduler, SchedulerConfig
from repro.engine.state import plan_models
from repro.storage.table import Table

N_THREADS = 8


def run_threads(n, target):
    """Run ``target(index)`` on ``n`` threads; re-raise any failure."""
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


@pytest.fixture()
def server(model):
    with EngineServer(load_default_model=False,
                      scheduler_config=SchedulerConfig(workers=4)) as server:
        server.register_model(model, default=True)
        server.register_table("t", Table.from_dict({
            "a": list(range(40)),
            "b": [f"item{i % 5}" for i in range(40)],
        }))
        yield server


# ---------------------------------------------------------------------------
# Shared-state basics (no races)
# ---------------------------------------------------------------------------
class TestSharedState:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, server, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            server.session("a", batch_size=batch_size)
        with pytest.raises(ValueError, match="batch_size"):
            EngineServer(load_default_model=False, batch_size=batch_size)

    def test_client_sessions_share_catalog_and_caches(self, server):
        one, two = server.session("a"), server.session("b")
        assert one.catalog is two.catalog
        assert one.context.embedding_cache is two.context.embedding_cache
        assert one.context.index_cache is two.context.index_cache

    def test_client_session_is_cheap(self, server):
        # no model load: the registry is shared, not rebuilt
        before = len(server.state.models)
        client = server.session()
        assert len(client.models) == before

    def test_register_through_client_visible_to_all(self, server):
        one, two = server.session(), server.session()
        one.register_table("u", Table.from_dict({"x": [1, 2]}))
        assert "u" in two.catalog
        assert two.sql("SELECT x FROM u ORDER BY x").num_rows == 2

    def test_server_sql_convenience(self, server):
        result = server.sql("SELECT a FROM t WHERE a < 3 ORDER BY a")
        assert result.column("a").tolist() == [0, 1, 2]

    def test_closed_server_refuses(self, model):
        server = EngineServer(load_default_model=False)
        server.register_model(model, default=True)
        server.close()
        with pytest.raises(ServerError):
            server.session()

    def test_metrics_snapshot_shape(self, server):
        server.sql("SELECT a FROM t WHERE a < 3 ORDER BY a")
        metrics = server.metrics()
        assert {"plan_cache", "scheduler", "embedding_arenas",
                "vector_index_cache", "catalog_version"} <= metrics.keys()
        assert metrics["scheduler"]["admitted"] >= 1

    def test_profile_carries_serving_fields(self, server):
        client = server.session("tenant-x")
        client.sql("SELECT a FROM t WHERE a < 3 ORDER BY a")
        profile = client.last_profile
        assert profile.lane in ("interactive", "heavy")
        assert profile.tenant == "tenant-x"
        assert profile.plan_cache_hit in (True, False)
        assert profile.queue_wait_seconds >= 0.0

    def test_plan_models_walks_semantic_nodes(self, server):
        client = server.session()
        plan = client.sql_plan("SELECT * FROM t WHERE b ~ 'shoes'")
        assert plan_models(plan) == {client.default_model_name}

    def test_late_default_model_reaches_existing_sessions(self, model):
        """register_model(default=True) after sessions exist must still
        change what unqualified semantic operators bind to."""
        with EngineServer(load_default_model=False) as server:
            client = server.session()        # created BEFORE the model
            server.register_table("p", Table.from_dict({
                "name": ["shoes", "car"]}))
            server.register_model(model, default=True)
            assert client.default_model_name == model.name
            result = server.sql(
                "SELECT name FROM p WHERE name ~ 'shoes' "
                "THRESHOLD 0.99 ORDER BY name")
            assert result.column("name").tolist() == ["shoes"]

    def test_session_local_default_model_override(self, server, model):
        client = server.session()
        client.default_model_name = "my-override"
        assert client.default_model_name == "my-override"
        # other sessions keep tracking the shared default
        assert server.session().default_model_name == model.name


# ---------------------------------------------------------------------------
# Scheduler semantics (driven directly, no engine)
# ---------------------------------------------------------------------------
class TestScheduler:
    def test_lane_classification(self):
        with Scheduler(SchedulerConfig(workers=1)) as scheduler:
            assert scheduler.classify(10.0) == "interactive"
            threshold = scheduler.config.interactive_cost_threshold
            assert scheduler.classify(threshold * 2) == "heavy"

    @pytest.mark.parametrize("workers", [0, -1])
    def test_pool_size_must_be_positive(self, workers):
        with pytest.raises(ValueError, match="workers"):
            Scheduler(SchedulerConfig(workers=workers))

    def test_pool_size_defaults_to_visible_cores(self):
        from repro.utils.parallel import default_parallelism

        with Scheduler() as scheduler:
            assert scheduler.stats()["workers"] == default_parallelism()

    def test_admission_error_when_queue_full(self):
        release = threading.Event()
        started = threading.Event()

        def blocker(ticket):
            started.set()
            release.wait(timeout=10)

        config = SchedulerConfig(workers=1, max_queue_depth=1)
        scheduler = Scheduler(config)
        try:
            scheduler.submit(blocker, estimated_cost=1.0)
            assert started.wait(timeout=5)
            scheduler.submit(lambda t: None, estimated_cost=1.0)
            with pytest.raises(AdmissionError):
                scheduler.submit(lambda t: None, estimated_cost=1.0)
            assert scheduler.stats()["rejected"] == 1
        finally:
            release.set()
            scheduler.close()

    def test_heavy_lane_not_starved(self):
        done: list[str] = []
        gate = threading.Event()

        def job(name):
            def run(ticket):
                gate.wait(timeout=10)
                done.append(name)
            return run

        config = SchedulerConfig(workers=1, heavy_pick_every=4)
        scheduler = Scheduler(config)
        try:
            heavy_cost = config.interactive_cost_threshold * 10
            tickets = [scheduler.submit(job(f"i{i}"), estimated_cost=1.0)
                       for i in range(6)]
            heavy = scheduler.submit(job("heavy"),
                                     estimated_cost=heavy_cost)
            assert heavy.lane == "heavy"
            gate.set()
            heavy.result(timeout=10)
            for ticket in tickets:
                ticket.result(timeout=10)
            # heavy overtook at least the tail of the interactive queue
            assert done.index("heavy") < len(done) - 1
        finally:
            scheduler.close()

    def test_failure_propagates_and_is_counted(self):
        def boom(ticket):
            raise ValueError("deliberate")

        with Scheduler(SchedulerConfig(workers=1)) as scheduler:
            ticket = scheduler.submit(boom, estimated_cost=1.0,
                                      tenant="faulty")
            with pytest.raises(ValueError, match="deliberate"):
                ticket.result(timeout=10)
            scheduler.drain(timeout=5)
            assert scheduler.stats()["tenants"]["faulty"]["failures"] == 1

    def test_ticket_telemetry(self):
        with Scheduler(SchedulerConfig(workers=1)) as scheduler:
            ticket = scheduler.submit(lambda t: "ok", estimated_cost=1.0)
            assert ticket.result(timeout=10) == "ok"
            assert ticket.queue_wait_seconds >= 0.0
            assert ticket.run_seconds >= 0.0


class TestLockPrimitives:
    def test_stripes_for_dedupes_colliding_keys(self):
        from repro.utils.locks import StripedRWLock

        locks = StripedRWLock(stripes=1)   # force every key to collide
        stripes = locks.stripes_for(["model-a", "model-b", "model-c"])
        # the non-reentrant stripe must be acquired once, never twice
        assert len(stripes) == 1
        with stripes[0].read():
            pass

    def test_stripes_for_bank_order_is_stable(self):
        from repro.utils.locks import StripedRWLock

        locks = StripedRWLock(stripes=8)
        keys = [f"model-{i}" for i in range(6)]
        forward = locks.stripes_for(keys)
        backward = locks.stripes_for(list(reversed(keys)))
        assert [id(s) for s in forward] == [id(s) for s in backward]

    def test_clear_rebinds_fresh_arena_buffer(self, model):
        """Post-clear embeds must never rewrite a buffer a pre-clear
        snapshot still aliases (publish-safety across clear())."""
        cache = EmbeddingCache(model)
        cache.row_ids(["alpha", "beta"])
        snapshot = cache.arena
        frozen = snapshot.copy()
        buffer_before = cache._arena
        cache.clear()
        assert cache._arena is not buffer_before
        cache.row_ids(["gamma", "delta"])   # re-interns from row 0
        assert np.array_equal(snapshot, frozen)


# ---------------------------------------------------------------------------
# Races (the acceptance-criteria stress tests)
# ---------------------------------------------------------------------------
@pytest.mark.concurrency
class TestRaces:
    def test_concurrent_misses_one_model_one_arena(self, server):
        """N clients embedding through one model must share ONE arena and
        embed each distinct string exactly once (no lost updates)."""
        barrier = threading.Barrier(N_THREADS)
        clients = [server.session(f"c{i}") for i in range(N_THREADS)]
        texts = [f"word{i}" for i in range(64)]

        def work(index):
            barrier.wait(timeout=10)
            cache = clients[index].embedding_cache()
            ids = cache.row_ids(texts)
            assert len(np.unique(ids)) == len(texts)

        run_threads(N_THREADS, work)
        caches = server.state.embedding_caches
        assert len(caches) == 1          # one arena, not one per client
        cache = next(iter(caches.values()))
        assert cache.rows == len(texts)  # each string interned once
        assert cache.misses == len(texts)
        assert cache.hits == (N_THREADS - 1) * len(texts)

    def test_index_single_flight_under_concurrent_misses(self, model,
                                                         monkeypatch):
        """8 threads missing on one index key must build exactly once."""
        real_factory = index_cache_module.INDEX_FACTORIES["brute"]

        def slow_factory(seed):
            index = real_factory(seed)
            real_build = index.build

            def slow_build(matrix):
                time.sleep(0.2)      # hold the build window open
                return real_build(matrix)

            index.build = slow_build
            return index

        monkeypatch.setitem(index_cache_module.INDEX_FACTORIES, "brute",
                            slow_factory)
        cache = EmbeddingCache(model)
        index_cache = IndexCache()
        values = [f"value{i}" for i in range(32)]
        cache.prefetch(values)       # isolate the index race from embeds
        barrier = threading.Barrier(N_THREADS)
        results = []

        def work(index):
            barrier.wait(timeout=10)
            built, positions = index_cache.get_for_values(
                "brute", values, cache)
            results.append((built, positions))

        run_threads(N_THREADS, work)
        assert index_cache.stats()["builds"] == 1       # single flight
        assert index_cache.stats()["single_flight_waits"] >= 1
        assert len(index_cache) == 1
        first = results[0][0]
        assert all(built is first for built, _ in results)
        reference = results[0][1]
        assert all(np.array_equal(positions, reference)
                   for _, positions in results)

    def test_arena_growth_publish_safe_under_readers(self, model):
        """Readers gathering while the arena doubles must always see
        exact fully-written vectors — never a torn or stale row."""
        cache = EmbeddingCache(model, initial_capacity=4)
        seed_texts = [f"base{i}" for i in range(4)]
        seed_ids = cache.row_ids(seed_texts)
        expected = cache.rows_for(seed_ids).copy()
        stop = threading.Event()
        torn = []

        def reader(index):
            while not stop.is_set():
                got = cache.rows_for(seed_ids)
                if not np.array_equal(got, expected):
                    torn.append(got)
                    return

        readers = [threading.Thread(target=reader, args=(i,))
                   for i in range(4)]
        for thread in readers:
            thread.start()
        try:
            # force many doublings while the readers hammer the gather
            for round_number in range(8):
                cache.row_ids([f"grow{round_number}_{i}"
                               for i in range(64)])
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert not torn
        # snapshot semantics: an old snapshot stays valid and read-only
        snapshot = cache.arena
        assert snapshot.flags.writeable is False
        assert np.array_equal(snapshot[:4], expected)

    def test_duplicate_statement_storm(self, server):
        """8 threads x 12 identical statements: identical results, one
        plan-cache entry, hit rate ~1 after warmup."""
        statement = ("SELECT b, SUM(a) AS total FROM t "
                     "GROUP BY b ORDER BY b")
        reference = server.sql(statement).to_rows()
        server.sql(statement)            # settle stats-bump re-plan
        clients = [server.session(f"storm{i}") for i in range(N_THREADS)]
        barrier = threading.Barrier(N_THREADS)

        def work(index):
            barrier.wait(timeout=10)
            for _ in range(12):
                assert clients[index].sql(statement).to_rows() == reference

        run_threads(N_THREADS, work)
        stats = server.state.plan_cache.stats()
        assert stats["entries"] == 1
        assert stats["hit_rate"] >= 0.9

    def test_register_while_query(self, server):
        """Queries racing a register(replace=True) must each see a
        consistent table version — old count or new count, nothing else."""
        tables = {
            rows: Table.from_dict({"a": list(range(rows)),
                                   "b": ["x"] * rows})
            for rows in (10, 20, 30)
        }
        valid_counts = {40} | set(tables)   # fixture table has 40 rows
        stop = threading.Event()

        def querier(index):
            client = server.session(f"q{index}")
            while not stop.is_set():
                result = client.sql("SELECT COUNT(*) AS n FROM t")
                assert int(result.column("n")[0]) in valid_counts

        threads = [threading.Thread(target=querier, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(5):
                for rows, table in tables.items():
                    server.register_table("t", table, replace=True)
                    time.sleep(0.005)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        server.drain(timeout=10)
        # after the dust settles: fresh plan, current contents
        final = server.sql("SELECT COUNT(*) AS n FROM t")
        assert int(final.column("n")[0]) == 30

    def test_mixed_register_query_semantic_stress(self, server):
        """The acceptance stress: >= 8 threads, shared model, mixed
        register/query with semantic predicates. No lost updates, no
        duplicate index builds, no torn arena reads, sane results."""
        semantic = ("SELECT b FROM t WHERE b ~ 'item1' "
                    "THRESHOLD 0.95 ORDER BY b")
        relational = "SELECT b, COUNT(*) AS n FROM t GROUP BY b ORDER BY b"
        barrier = threading.Barrier(N_THREADS)

        def work(index):
            client = server.session(f"mix{index}")
            barrier.wait(timeout=10)
            for round_number in range(6):
                if index % 4 == 0 and round_number % 3 == 2:
                    client.register_table(
                        f"scratch_{index}_{round_number}",
                        Table.from_dict({"x": [index, round_number]}))
                else:
                    result = client.sql(
                        semantic if round_number % 2 else relational)
                    assert result.num_rows > 0

        run_threads(N_THREADS, work)
        server.drain(timeout=10)
        caches = server.state.embedding_caches
        assert len(caches) == 1
        index_stats = server.state.index_cache.stats()
        # single-flight: every build corresponds to a distinct key
        assert index_stats["builds"] == index_stats["entries"]
        metrics = server.metrics()
        # repeated statements may be served as result-cache no-ops that
        # never occupy a worker; every query is one or the other
        served = (metrics["scheduler"]["admitted"]
                  + metrics["scheduler"]["result_cache_noops"])
        assert served >= N_THREADS * 4
        assert not metrics["scheduler"]["queued"]["interactive"]
        assert not metrics["scheduler"]["queued"]["heavy"]

    def test_parallel_submit_nonblocking(self, server):
        """submit() tickets resolve independently across clients."""
        client = server.session("async")
        tickets = [client.submit("SELECT a FROM t WHERE a < 5 ORDER BY a")
                   for _ in range(16)]
        results = [ticket.result(timeout=30) for ticket in tickets]
        expected = results[0].column("a").tolist()
        assert all(r.column("a").tolist() == expected for r in results)
