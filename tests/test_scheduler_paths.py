"""Deterministic scheduler coverage: lane policy, admission, telemetry.

``test_server.py`` exercises the scheduler incidentally, through whole
servers and thread storms.  These tests pin down the paths on their
own terms:

- the **anti-starvation policy** is a pure function
  (:meth:`Scheduler.pick_lane`), driven here dispatch-by-dispatch with
  no threads at all, plus one end-to-end ordering test where a single
  blocked worker makes the dispatch sequence fully deterministic;
- every **AdmissionError** path: per-lane bounds (one full lane does
  not poison the other), the rejected counter, admitted count
  unchanged, the error message, and submit-after-close;
- **ticket telemetry** with stubbed clock values — no sleeps, no
  wall-clock flakiness.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

import pytest

from repro.errors import AdmissionError, ServerError
from repro.server import Scheduler, SchedulerConfig
from repro.server.scheduler import QueryTicket


def make_scheduler(**overrides) -> Scheduler:
    defaults = dict(workers=1, max_queue_depth=2,
                    interactive_cost_threshold=100.0, heavy_pick_every=3)
    defaults.update(overrides)
    return Scheduler(SchedulerConfig(**defaults))


def blocked_worker(scheduler: Scheduler):
    """Occupy every worker; returns (release_event, started_event)."""
    release, started = threading.Event(), threading.Event()

    def block(ticket):
        started.set()
        assert release.wait(timeout=10)
        return "blocked-done"

    tickets = [scheduler.submit(block, estimated_cost=1.0)
               for _ in range(scheduler.stats()["workers"])]
    assert started.wait(timeout=10)
    return release, tickets


# ---------------------------------------------------------------------------
# Lane policy as a pure function (no threads)
# ---------------------------------------------------------------------------
class TestPickLanePolicy:
    def test_both_empty_is_none(self):
        assert Scheduler.pick_lane(1, False, False, 4) is None

    def test_only_interactive(self):
        assert Scheduler.pick_lane(4, True, False, 4) == "interactive"

    def test_only_heavy(self):
        assert Scheduler.pick_lane(1, False, True, 4) == "heavy"

    def test_interactive_preferred_off_period(self):
        for dispatch in (1, 2, 3, 5, 6, 7):
            assert Scheduler.pick_lane(dispatch, True, True, 4) \
                == "interactive"

    def test_heavy_forced_every_period(self):
        for dispatch in (4, 8, 12, 400):
            assert Scheduler.pick_lane(dispatch, True, True, 4) == "heavy"

    def test_policy_over_a_simulated_burst(self):
        """Across any window of heavy_pick_every dispatches with both
        lanes waiting, exactly one heavy pick happens — the starvation
        bound the docs promise."""
        every = 5
        picks = [Scheduler.pick_lane(d, True, True, every)
                 for d in range(1, 51)]
        for start in range(0, 50, every):
            window = picks[start:start + every]
            assert window.count("heavy") == 1


# ---------------------------------------------------------------------------
# Anti-starvation end to end (single worker ⇒ deterministic order)
# ---------------------------------------------------------------------------
class TestAntiStarvation:
    def test_dispatch_order_interleaves_heavy(self):
        """One worker, a blocked head, 6 interactive + 2 heavy queued.

        The blocked head consumed dispatch 1, so the drain issues
        dispatches 2..9 with heavy_pick_every=3: heavy at dispatches 3
        and 6, interactive everywhere else."""
        scheduler = make_scheduler(max_queue_depth=16)
        order: list[str] = []

        def record(tag):
            def run(ticket):
                order.append(tag)
                return tag
            return run

        release, head = blocked_worker(scheduler)
        for i in range(6):
            scheduler.submit(record(f"i{i}"), estimated_cost=1.0)
        for i in range(2):
            scheduler.submit(record(f"h{i}"), estimated_cost=1e9)
        release.set()
        assert scheduler.drain(timeout=10)
        assert order == ["i0", "h0", "i1", "i2", "h1", "i3", "i4", "i5"]
        scheduler.close()

    def test_heavy_only_backlog_drains_in_order(self):
        scheduler = make_scheduler(max_queue_depth=16)
        order: list[int] = []
        release, _ = blocked_worker(scheduler)
        for i in range(4):
            scheduler.submit(
                lambda ticket, i=i: order.append(i),
                estimated_cost=1e9)
        release.set()
        assert scheduler.drain(timeout=10)
        assert order == [0, 1, 2, 3]
        scheduler.close()


# ---------------------------------------------------------------------------
# Admission errors
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_classify_boundary_is_inclusive(self):
        scheduler = make_scheduler()
        try:
            assert scheduler.classify(100.0) == "interactive"
            assert scheduler.classify(100.0001) == "heavy"
        finally:
            scheduler.close()

    def test_full_interactive_lane_rejects_with_message(self):
        scheduler = make_scheduler()
        release, _ = blocked_worker(scheduler)
        try:
            scheduler.submit(lambda t: None, estimated_cost=1.0)
            scheduler.submit(lambda t: None, estimated_cost=1.0)
            with pytest.raises(AdmissionError, match="interactive lane"):
                scheduler.submit(lambda t: None, estimated_cost=1.0)
            assert scheduler.stats()["rejected"] == 1
        finally:
            release.set()
            scheduler.close()

    def test_full_lane_does_not_poison_the_other(self):
        scheduler = make_scheduler()
        release, _ = blocked_worker(scheduler)
        try:
            for _ in range(2):
                scheduler.submit(lambda t: None, estimated_cost=1.0)
            with pytest.raises(AdmissionError):
                scheduler.submit(lambda t: None, estimated_cost=1.0)
            # the heavy lane still admits
            ticket = scheduler.submit(lambda t: "heavy-ok",
                                      estimated_cost=1e9)
            assert ticket.lane == "heavy"
            with pytest.raises(AdmissionError, match="heavy lane"):
                for _ in range(3):
                    scheduler.submit(lambda t: None, estimated_cost=1e9)
        finally:
            release.set()
            scheduler.close()

    def test_rejected_submission_is_not_counted_admitted(self):
        scheduler = make_scheduler()
        release, _ = blocked_worker(scheduler)
        try:
            for _ in range(2):
                scheduler.submit(lambda t: None, estimated_cost=1.0)
            admitted = scheduler.stats()["admitted"]
            tenants = scheduler.stats()["tenants"]["default"]["queries"]
            with pytest.raises(AdmissionError):
                scheduler.submit(lambda t: None, estimated_cost=1.0)
            assert scheduler.stats()["admitted"] == admitted
            assert scheduler.stats()["tenants"]["default"]["queries"] \
                == tenants
        finally:
            release.set()
            scheduler.close()

    def test_rejection_leaves_queues_drainable(self):
        scheduler = make_scheduler()
        release, _ = blocked_worker(scheduler)
        for _ in range(2):
            scheduler.submit(lambda t: "ok", estimated_cost=1.0)
        with pytest.raises(AdmissionError):
            scheduler.submit(lambda t: None, estimated_cost=1.0)
        release.set()
        assert scheduler.drain(timeout=10)
        scheduler.close()

    def test_submit_after_close_raises_server_error(self):
        scheduler = make_scheduler()
        scheduler.close()
        with pytest.raises(ServerError):
            scheduler.submit(lambda t: None, estimated_cost=1.0)

    def test_complete_cached_after_close_raises(self):
        scheduler = make_scheduler()
        scheduler.close()
        with pytest.raises(ServerError):
            scheduler.complete_cached("x")

    def test_drain_times_out_while_blocked_then_succeeds(self):
        scheduler = make_scheduler()
        release, tickets = blocked_worker(scheduler)
        try:
            assert scheduler.drain(timeout=0.05) is False
            release.set()
            assert scheduler.drain(timeout=10) is True
            assert tickets[0].result(timeout=10) == "blocked-done"
        finally:
            scheduler.close()


# ---------------------------------------------------------------------------
# Per-tenant in-flight cap (ROADMAP (d), minimal form)
# ---------------------------------------------------------------------------
class TestTenantInflightCap:
    """``max_inflight_per_tenant`` refuses one tenant's excess without
    touching the others — driven deterministically with blocked workers,
    no sleeps."""

    def test_tenant_at_cap_rejected_others_admitted(self):
        scheduler = make_scheduler(max_queue_depth=16,
                                   max_inflight_per_tenant=1)
        release, _ = blocked_worker(scheduler)   # occupies "default"
        try:
            scheduler.submit(lambda t: "a", estimated_cost=1.0,
                             tenant="alice")
            with pytest.raises(AdmissionError,
                               match="tenant 'alice' at max in-flight"):
                scheduler.submit(lambda t: "b", estimated_cost=1.0,
                                 tenant="alice")
            assert scheduler.stats()["rejected"] == 1
            # a different tenant is unaffected by alice's cap
            ticket = scheduler.submit(lambda t: "c",
                                      estimated_cost=1.0, tenant="bob")
            assert ticket.tenant == "bob"
        finally:
            release.set()
            scheduler.close()

    def test_cap_counts_queued_and_running(self):
        scheduler = make_scheduler(max_queue_depth=16,
                                   max_inflight_per_tenant=2)
        release, _ = blocked_worker(scheduler)
        try:
            for _ in range(2):     # both queued: inflight = 2
                scheduler.submit(lambda t: None, estimated_cost=1.0,
                                 tenant="alice")
            assert scheduler.stats()["tenant_inflight"]["alice"] == 2
            with pytest.raises(AdmissionError):
                scheduler.submit(lambda t: None, estimated_cost=1.0,
                                 tenant="alice")
        finally:
            release.set()
            scheduler.close()

    def test_cap_releases_after_completion(self):
        scheduler = make_scheduler(max_queue_depth=16,
                                   max_inflight_per_tenant=1)
        release, _ = blocked_worker(scheduler)
        ticket = scheduler.submit(lambda t: "done", estimated_cost=1.0,
                                  tenant="alice")
        release.set()
        assert ticket.result(timeout=10) == "done"
        assert scheduler.drain(timeout=10)
        # the slot freed: alice admits again, and the gauge is empty
        assert "alice" not in scheduler.stats()["tenant_inflight"]
        again = scheduler.submit(lambda t: "again", estimated_cost=1.0,
                                 tenant="alice")
        assert again.result(timeout=10) == "again"
        scheduler.close()

    def test_cache_noops_exempt_from_cap(self):
        scheduler = make_scheduler(max_queue_depth=16,
                                   max_inflight_per_tenant=1)
        release, _ = blocked_worker(scheduler)
        try:
            scheduler.submit(lambda t: None, estimated_cost=1.0,
                             tenant="alice")    # alice at cap
            for kind in ("result", "reuse"):
                ticket = scheduler.complete_cached(
                    "cached", tenant="alice", kind=kind)
                assert ticket.result(timeout=1) == "cached"
            stats = scheduler.stats()
            assert stats["tenant_inflight"]["alice"] == 1
            assert stats["tenants"]["alice"]["result_cache_hits"] == 1
            assert stats["tenants"]["alice"]["reuse_hits"] == 1
        finally:
            release.set()
            scheduler.close()

    def test_ingest_weight_charges_more_than_a_query(self):
        """A weighted submit displaces ``weight`` units of the tenant's
        cap: with cap 3 and ingest weight 2, one ingest plus one query
        fill it, and either a second ingest or a second-plus-one query
        is refused."""
        scheduler = make_scheduler(max_queue_depth=16,
                                   max_inflight_per_tenant=3)
        release, _ = blocked_worker(scheduler)
        try:
            scheduler.submit(lambda t: "ingest", estimated_cost=1.0,
                             tenant="alice", weight=2.0)
            scheduler.submit(lambda t: "query", estimated_cost=1.0,
                             tenant="alice")
            assert scheduler.stats()["tenant_inflight"]["alice"] == 3.0
            with pytest.raises(AdmissionError,
                               match="requested weight 2"):
                scheduler.submit(lambda t: None, estimated_cost=1.0,
                                 tenant="alice", weight=2.0)
            with pytest.raises(AdmissionError,
                               match="requested weight 1"):
                scheduler.submit(lambda t: None, estimated_cost=1.0,
                                 tenant="alice")
            # another tenant's budget is untouched by alice's ingest
            scheduler.submit(lambda t: None, estimated_cost=1.0,
                             tenant="bob", weight=2.0)
        finally:
            release.set()
            scheduler.close()

    def test_weighted_release_returns_the_full_charge(self):
        """Completion releases exactly the admitted weight — the tenant
        map empties (no float dust pinning idle tenants)."""
        scheduler = make_scheduler(max_queue_depth=16,
                                   max_inflight_per_tenant=2)
        ticket = scheduler.submit(lambda t: "done", estimated_cost=1.0,
                                  tenant="alice", weight=2.0)
        assert ticket.result(timeout=10) == "done"
        assert scheduler.drain(timeout=10)
        assert "alice" not in scheduler.stats()["tenant_inflight"]
        # the full cap is available again for a fresh weighted submit
        again = scheduler.submit(lambda t: "again", estimated_cost=1.0,
                                 tenant="alice", weight=2.0)
        assert again.result(timeout=10) == "again"
        scheduler.close()

    def test_fractional_weights_admit_to_the_exact_boundary(self):
        """Weights are floats: three 0.5-weight submits fit a cap of
        1.5, the fourth is refused at the same boundary an integer cap
        enforces for weight-1 queries."""
        scheduler = make_scheduler(max_queue_depth=16,
                                   max_inflight_per_tenant=1.5)
        release, _ = blocked_worker(scheduler)
        try:
            for _ in range(3):
                scheduler.submit(lambda t: None, estimated_cost=1.0,
                                 tenant="alice", weight=0.5)
            with pytest.raises(AdmissionError):
                scheduler.submit(lambda t: None, estimated_cost=1.0,
                                 tenant="alice", weight=0.5)
        finally:
            release.set()
            scheduler.close()

    def test_failed_query_releases_the_slot(self):
        scheduler = make_scheduler(max_queue_depth=16,
                                   max_inflight_per_tenant=1)

        def boom(ticket):
            raise RuntimeError("query failed")

        ticket = scheduler.submit(boom, estimated_cost=1.0,
                                  tenant="alice")
        with pytest.raises(RuntimeError):
            ticket.result(timeout=10)
        assert scheduler.drain(timeout=10)
        assert "alice" not in scheduler.stats()["tenant_inflight"]
        ok = scheduler.submit(lambda t: "ok", estimated_cost=1.0,
                              tenant="alice")
        assert ok.result(timeout=10) == "ok"
        scheduler.close()

    def test_cap_disabled_by_default(self):
        scheduler = make_scheduler(max_queue_depth=16)
        release, _ = blocked_worker(scheduler)
        try:
            for _ in range(10):
                scheduler.submit(lambda t: None, estimated_cost=1.0,
                                 tenant="alice")
        finally:
            release.set()
            scheduler.close()


# ---------------------------------------------------------------------------
# Ticket telemetry with a stub clock (no sleeps)
# ---------------------------------------------------------------------------
class TestTicketTelemetry:
    def make_ticket(self, queued_at, started_at, finished_at):
        return QueryTicket(future=Future(), lane="interactive",
                           tenant="t", estimated_cost=1.0,
                           queued_at=queued_at, started_at=started_at,
                           finished_at=finished_at)

    def test_queue_wait_and_run_seconds(self):
        ticket = self.make_ticket(10.0, 12.5, 20.0)
        assert ticket.queue_wait_seconds == pytest.approx(2.5)
        assert ticket.run_seconds == pytest.approx(7.5)

    def test_unstarted_ticket_reports_zero(self):
        ticket = self.make_ticket(10.0, None, None)
        assert ticket.queue_wait_seconds == 0.0
        assert ticket.run_seconds == 0.0

    def test_started_unfinished_reports_zero_run(self):
        ticket = self.make_ticket(10.0, 11.0, None)
        assert ticket.queue_wait_seconds == pytest.approx(1.0)
        assert ticket.run_seconds == 0.0

    def test_cached_noop_ticket_has_zero_waits(self):
        scheduler = make_scheduler()
        try:
            ticket = scheduler.complete_cached(
                "result", tenant="acme", estimated_cost=5.0,
                plan_cache_hit=True)
            assert ticket.result(timeout=1) == "result"
            assert ticket.lane == "interactive"
            assert ticket.queue_wait_seconds == 0.0
            assert ticket.run_seconds == 0.0
            stats = scheduler.stats()
            assert stats["result_cache_noops"] == 1
            acme = stats["tenants"]["acme"]
            assert acme["queries"] == 1
            assert acme["result_cache_hits"] == 1
            assert acme["plan_cache_hits"] == 1
            assert acme["by_lane"]["interactive"] == 1
            # no-ops never occupy a worker or a queue slot
            assert stats["admitted"] == 0
        finally:
            scheduler.close()

    def test_failure_counted_per_tenant(self):
        scheduler = make_scheduler()
        try:
            def boom(ticket):
                raise RuntimeError("kaput")

            ticket = scheduler.submit(boom, estimated_cost=1.0,
                                      tenant="acme")
            with pytest.raises(RuntimeError, match="kaput"):
                ticket.result(timeout=10)
            assert scheduler.drain(timeout=10)
            assert scheduler.stats()["tenants"]["acme"]["failures"] == 1
        finally:
            scheduler.close()


# ---------------------------------------------------------------------------
# Idle workers hold nothing they ran
# ---------------------------------------------------------------------------
class TestIdleWorkerReleasesResult:
    def test_collected_ticket_frees_its_result(self):
        """The result (in production: a result table of tens of MB)
        lives exactly as long as its ticket — an idle worker blocked in
        ``wait()`` must not keep its last dispatch's locals alive."""
        import gc
        import time
        import weakref

        class Result:
            pass

        scheduler = make_scheduler()
        try:
            ticket = scheduler.submit(lambda ticket: Result(),
                                      estimated_cost=1.0)
            result = weakref.ref(ticket.result(timeout=10))
            assert scheduler.drain(timeout=10)
            del ticket
            # drain() can return a moment before the worker is back in
            # wait(); give it that moment, then nothing may hold on
            deadline = time.monotonic() + 5
            while result() is not None and time.monotonic() < deadline:
                time.sleep(0.01)
                gc.collect()
            assert result() is None
        finally:
            scheduler.close()
