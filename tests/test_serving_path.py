"""One serving path: every served statement is a ticket of the engine
state's scheduler, whichever session serves it.

- a pool starts threads only for tickets that queue, so an engine
  driven only by blocking callers starts none;
- a stand-alone ``Session`` is admitted like a server's client: lane,
  tenant, scheduler counters, and the pool bound under many threads;
- a closed engine refuses every session's work before planning it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import lifecycle
from repro.engine.session import Session
from repro.engine.state import EngineState
from repro.errors import ServerError
from repro.obs.export import json_snapshot
from repro.server import EngineServer, Scheduler, SchedulerConfig
from repro.storage.table import Table

WORKER_PREFIX = "repro-query-worker-"

RELATIONAL = "SELECT a, b FROM t WHERE a < {} ORDER BY a"
SEMANTIC = "SELECT a FROM t WHERE b ~ 'shoes' THRESHOLD {} ORDER BY a"


def install(target, model) -> None:
    target.register_model(model, default=True)
    target.register_table("t", Table.from_dict({
        "a": list(range(40)),
        "b": [["sneakers", "boots", "parka", "sedan", "apple"][i % 5]
              for i in range(40)]}))


def new_workers(before: set[threading.Thread]) -> list[threading.Thread]:
    return [thread for thread in threading.enumerate()
            if thread not in before and thread.name.startswith(WORKER_PREFIX)]


def drive_blocking(target) -> None:
    """Blocking statements (executed, then cached) and a waited append."""
    for bound in (3, 7, 3):
        target.sql(RELATIONAL.format(bound))
    target.sql(SEMANTIC.format(0.5))
    target.append("t", [{"a": 40, "b": "boots"}])
    target.sql(RELATIONAL.format(45))


class TestNoIdleThreads:
    def test_blocking_session_starts_no_thread(self, model):
        before = set(threading.enumerate())
        with Session(load_default_model=False) as session:
            install(session, model)
            drive_blocking(session)
            stats = session.state.scheduler.stats()
            assert stats["inline_runs"] == stats["admitted"] >= 4
            assert new_workers(before) == []

    def test_blocking_server_clients_start_no_thread(self, model):
        before = set(threading.enumerate())
        config = SchedulerConfig(workers=3)
        with EngineServer(load_default_model=False,
                          scheduler_config=config) as server:
            install(server, model)
            drive_blocking(server.session("alice"))
            server.sql(RELATIONAL.format(5))
            server.append("t", [{"a": 41, "b": "parka"}])
            assert new_workers(before) == []
            assert server.metrics()["scheduler"]["workers"] == 3

    def test_first_submit_starts_at_most_workers_and_close_joins(self,
                                                                 model):
        before = set(threading.enumerate())
        state = EngineState(load_default_model=False,
                            scheduler_config=SchedulerConfig(workers=2))
        session = Session(shared_state=state)
        install(session, model)
        assert session.submit(RELATIONAL.format(9)).result(timeout=10) \
            .num_rows == 9
        started = new_workers(before)
        assert 1 <= len(started) <= 2
        tickets = [session.submit(RELATIONAL.format(bound))
                   for bound in range(10, 16)]
        assert [ticket.result(timeout=10).num_rows
                for ticket in tickets] == list(range(10, 16))
        started = new_workers(before)
        assert len(started) <= 2
        assert state.scheduler.stats()["workers"] == 2
        session.close()
        assert not any(thread.is_alive() for thread in started)

    def test_scheduler_threads_start_only_for_queued_tickets(self):
        before = set(threading.enumerate())
        scheduler = Scheduler(SchedulerConfig(workers=3))
        try:
            scheduler.submit(lambda ticket: 1, estimated_cost=1.0,
                             wait=True)
            assert new_workers(before) == []
            assert scheduler.stats()["workers"] == 3
            ticket = scheduler.submit(lambda ticket: 2, estimated_cost=1.0)
            assert ticket.result(timeout=10) == 2
            assert len(new_workers(before)) == 1
        finally:
            scheduler.close()
        assert new_workers(before) == []


class TestStandaloneSessionIsAdmitted:
    def test_profile_and_counters(self, model):
        with Session(load_default_model=False, tenant="solo") as session:
            install(session, model)
            registry = session.state.metrics_registry
            before = json_snapshot(registry)
            session.sql(RELATIONAL.format(4))
            profile = session.last_profile
            assert profile.lane == "interactive"
            assert profile.tenant == "solo"
            assert profile.queue_wait_seconds == 0.0
            after = json_snapshot(registry)
            for name in ("scheduler_admitted_total",
                         "scheduler_inline_runs_total"):
                assert after[name] == before[name] + 1
            session.append("t", [{"a": 40, "b": "boots"}])
            stats = session.state.scheduler.stats()
            assert stats["tenants"]["solo"]["by_lane"]["heavy"] == 1
            assert stats["inline_runs"] == 2

    @pytest.mark.concurrency
    def test_more_threads_than_workers_through_one_session(self, model,
                                                           monkeypatch):
        session = Session(load_default_model=False, result_cache_bytes=0)
        install(session, model)
        scheduler = session.state.scheduler
        workers = scheduler.stats()["workers"]
        statements = [RELATIONAL.format(bound) for bound in (5, 12, 30)] \
            + [SEMANTIC.format(threshold) for threshold in (0.3, 0.6)]
        serial = {text: session.sql(text).to_rows() for text in statements}
        for text in statements:             # lazy statistics settled
            assert session.sql(text).to_rows() == serial[text]

        guard = threading.Lock()
        active = [0]
        peaks = {"active": 0, "running": 0}
        real = lifecycle.run_plan

        def counted(*args, **kwargs):
            with guard:
                active[0] += 1
                peaks["active"] = max(peaks["active"], active[0])
                peaks["running"] = max(peaks["running"],
                                       scheduler.stats()["running"])
            try:
                time.sleep(0.002)           # widen the overlap window
                return real(*args, **kwargs)
            finally:
                with guard:
                    active[0] -= 1

        monkeypatch.setattr(lifecycle, "run_plan", counted)
        errors: list[BaseException] = []
        mismatches: list[str] = []

        def client(index: int) -> None:
            try:
                for step in range(12):
                    text = statements[(index + step) % len(statements)]
                    if session.sql(text).to_rows() != serial[text]:
                        mismatches.append(text)
            except BaseException as error:  # noqa: BLE001 — re-raised
                errors.append(error)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(workers + 4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors
            assert mismatches == []
            assert peaks["active"] <= workers
            assert peaks["running"] <= workers
            assert scheduler.stats()["running"] == 0
        finally:
            session.close()


class TestClosedEngineRefusesBeforePlanning:
    @staticmethod
    def assert_refused(closed_state: EngineState, sessions) -> None:
        cache = closed_state.plan_cache
        before = (cache.stats(), closed_state.statements_total.value)
        for session in sessions:
            calls = (lambda: session.sql(RELATIONAL.format(17)),
                     lambda: session.submit(RELATIONAL.format(18)),
                     lambda: session.append("t", [{"a": 50, "b": "x"}]),
                     lambda: session.upsert("t", [{"a": 51, "b": "y"}],
                                            key="a"))
            for call in calls:
                with pytest.raises(ServerError, match="closed"):
                    call()
        assert (cache.stats(), closed_state.statements_total.value) \
            == before

    def test_after_server_close(self, model):
        server = EngineServer(load_default_model=False)
        install(server, model)
        client = server.session("alice")
        client.sql(RELATIONAL.format(3))
        server.close()
        self.assert_refused(server.state, [client, server._admin])
        for call in (lambda: server.sql(RELATIONAL.format(3)),
                     lambda: server.submit(RELATIONAL.format(3)),
                     lambda: server.append("t", [{"a": 50, "b": "x"}]),
                     lambda: server.session("bob")):
            with pytest.raises(ServerError):
                call()

    def test_after_session_close(self, model):
        session = Session(load_default_model=False)
        install(session, model)
        sibling = Session(shared_state=session.state, tenant="sibling")
        session.sql(RELATIONAL.format(3))
        session.close()
        session.close()                     # idempotent
        self.assert_refused(session.state, [session, sibling])

    def test_server_session_close_closes_the_server(self, model):
        server = EngineServer(load_default_model=False)
        install(server, model)
        with server.session("carol") as client:
            client.sql(RELATIONAL.format(3))
        with pytest.raises(ServerError):
            server.sql(RELATIONAL.format(3))
        self.assert_refused(server.state, [server._admin])
