"""Admission-controlled query scheduler: bounded pool, two lanes.

The serving layer cannot just hand every incoming query a thread — a
burst of heavy semantic joins would seize every core and interactive
dashboards would stall behind them.  The scheduler therefore:

1. **Bounds concurrency.**  A fixed worker pool (``SchedulerConfig.workers``,
   by default one thread per visible core) executes queries; a query
   admitted while all workers are busy waits in a queue, and queue
   depth is bounded — past the bound, :class:`AdmissionError` tells the
   client to back off *now* instead of letting latency grow without
   limit (load shedding, not buffering).
2. **Classifies by estimated cost.**  The optimizer's cost estimate —
   free on a plan-cache hit, computed anyway on a miss — sorts queries
   into an ``interactive`` or ``heavy`` lane at admission.  Workers
   prefer the interactive lane so cheap queries overtake expensive
   ones, with a periodic forced pick from the heavy lane so it can
   never starve outright.

Each query runs its kernels serially on the worker that dispatched it:
the pool's threads are the only threads the engine starts.

Per-query and per-tenant telemetry (queue wait, run time, lane, plan
cache hits) aggregates in the scheduler and surfaces through
``EngineServer.metrics()`` and each query's ``QueryProfile``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.errors import AdmissionError, ServerError
from repro.obs.metrics import MetricsRegistry
from repro.utils.parallel import default_parallelism

#: Estimated-cost boundary between the interactive and heavy lanes, in
#: the cost model's abstract units.  Calibration: a full relational
#: aggregate over ~100k rows sits near 2.5e5; a blocked semantic join of
#: 1k x 1k distinct strings costs ~1.4e6.  Everything up to "small
#: semantic work" stays interactive; big semantic joins go heavy.
INTERACTIVE_COST_THRESHOLD = 1_000_000.0

#: Every Nth dispatch prefers the heavy lane even when interactive work
#: is waiting, so a steady interactive stream cannot starve heavy
#: queries forever.
HEAVY_PICK_EVERY = 4


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs for the admission scheduler."""

    #: Worker threads executing queries; ``None`` = one per visible core
    #: (``utils.parallel.default_parallelism``).
    workers: int | None = None
    #: Queries allowed to wait per lane before admission refuses.
    max_queue_depth: int = 128
    #: Lane classification boundary (cost-model units).
    interactive_cost_threshold: float = INTERACTIVE_COST_THRESHOLD
    #: Anti-starvation period for the heavy lane.
    heavy_pick_every: int = HEAVY_PICK_EVERY
    #: Per-tenant fairness: weighted in-flight work one tenant may have
    #: queued+running at once before admission refuses *that tenant*
    #: (others are unaffected).  A plain query charges weight 1.0
    #: against the cap; heavier operations pass a larger ``weight`` to
    #: :meth:`Scheduler.submit`.  ``None`` disables the cap.
    #: Cache/reuse no-ops never occupy a worker and are exempt.
    max_inflight_per_tenant: int | None = None
    #: Admission weight charged per ingest operation (append/upsert).
    #: Ingest rewrites shared state and triggers delta maintenance, so
    #: one ingest displaces several interactive queries under the
    #: per-tenant cap — a heavy ingestor exhausts its own budget long
    #: before it can monopolize the pool.
    ingest_weight: float = 2.0


@dataclass
class QueryTicket:
    """One admitted query: its future, lane, and timing telemetry."""

    future: Future
    lane: str
    tenant: str
    estimated_cost: float
    queued_at: float
    started_at: float | None = None
    finished_at: float | None = None
    #: Admission weight charged against the tenant's in-flight cap;
    #: released verbatim when the ticket finishes.
    weight: float = 1.0

    @property
    def queue_wait_seconds(self) -> float:
        if self.started_at is None:
            return 0.0
        return self.started_at - self.queued_at

    @property
    def run_seconds(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    def result(self, timeout: float | None = None):
        """Block until the query finishes; returns its result table."""
        return self.future.result(timeout=timeout)


@dataclass
class _TenantMetrics:
    queries: int = 0
    failures: int = 0
    queue_wait_seconds: float = 0.0
    run_seconds: float = 0.0
    plan_cache_hits: int = 0
    result_cache_hits: int = 0
    reuse_hits: int = 0
    by_lane: dict = field(default_factory=lambda: {"interactive": 0,
                                                   "heavy": 0})

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "failures": self.failures,
            "queue_wait_seconds": round(self.queue_wait_seconds, 6),
            "run_seconds": round(self.run_seconds, 6),
            "plan_cache_hits": self.plan_cache_hits,
            "result_cache_hits": self.result_cache_hits,
            "reuse_hits": self.reuse_hits,
            "by_lane": dict(self.by_lane),
        }


class Scheduler:
    """Bounded worker pool with cost-classified admission queues."""

    #: Fixed edges for the queue-wait histogram: sub-millisecond is an
    #: idle pool, 0.1 s+ means admission is absorbing a burst.
    QUEUE_WAIT_BUCKETS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)

    def __init__(self, config: SchedulerConfig | None = None,
                 registry: MetricsRegistry | None = None):
        self.config = config or SchedulerConfig()
        workers = self.config.workers
        if workers is None:
            workers = default_parallelism()
        elif workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        # e2e-harness shim yielding 1; ROADMAP 1(c) deletes it
        self.budget = contextlib.nullcontext(1)
        self._lanes: dict[str, deque] = {"interactive": deque(),
                                         "heavy": deque()}
        self._mutex = threading.Lock()
        self._work_ready = threading.Condition(self._mutex)
        self._idle = threading.Condition(self._mutex)
        self._running = 0
        self._closed = False
        metrics = registry if registry is not None else MetricsRegistry()
        self._dispatches = metrics.counter(
            "scheduler_dispatches_total",
            help="queue pops handed to a worker")
        self._admitted = metrics.counter(
            "scheduler_admitted_total", help="queries admitted to a lane")
        self._rejected = metrics.counter(
            "scheduler_rejected_total",
            help="admissions refused (queue depth or tenant cap)")
        self._result_cache_noops = metrics.counter(
            "scheduler_result_cache_noops_total",
            help="result-cache hits served without occupying a worker")
        self._reuse_noops = metrics.counter(
            "scheduler_reuse_noops_total",
            help="subsumption-reuse hits served without a worker")
        self._queue_wait_hist = metrics.histogram(
            "scheduler_queue_wait_seconds",
            buckets=self.QUEUE_WAIT_BUCKETS,
            help="admission-to-dispatch wait per executed query")
        metrics.gauge("scheduler_running", fn=lambda: self._running,
                      help="queries currently on a worker")
        for lane_name in ("interactive", "heavy"):
            metrics.gauge(
                "scheduler_queued", labels={"lane": lane_name},
                fn=(lambda lane_=lane_name: len(self._lanes[lane_])),
                help="queries waiting per lane")
        #: queued+running admission weight per tenant (the fairness-cap
        #: gauge; a plain query contributes 1.0, ingest more)
        self._tenant_inflight: dict[str, float] = {}
        self._tenants: dict[str, _TenantMetrics] = {}
        self._queue_wait_total = 0.0
        self._queue_wait_max = 0.0
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-query-worker-{index}",
                             daemon=True)
            for index in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def classify(self, estimated_cost: float) -> str:
        """Lane for a query with the given cost estimate."""
        if estimated_cost <= self.config.interactive_cost_threshold:
            return "interactive"
        return "heavy"

    def submit(self, run, estimated_cost: float,
               tenant: str = "default",
               plan_cache_hit: bool | None = None,
               weight: float = 1.0) -> QueryTicket:
        """Admit one query; returns its ticket (``.result()`` blocks).

        ``run`` is called on a worker thread as ``run(ticket)``.
        ``weight`` is the charge against the tenant's in-flight
        cap (1.0 for a plain query; ingest passes
        ``config.ingest_weight``).  Raises :class:`AdmissionError` when
        the target lane is already at ``max_queue_depth``.
        """
        lane = self.classify(estimated_cost)
        ticket = QueryTicket(future=Future(), lane=lane, tenant=tenant,
                             estimated_cost=estimated_cost,
                             queued_at=time.perf_counter(),
                             weight=weight)
        with self._mutex:
            if self._closed:
                raise ServerError("scheduler is closed")
            queue = self._lanes[lane]
            if len(queue) >= self.config.max_queue_depth:
                self._rejected.inc()
                raise AdmissionError(
                    f"{lane} lane at max queue depth "
                    f"({self.config.max_queue_depth}); retry later")
            cap = self.config.max_inflight_per_tenant
            inflight = self._tenant_inflight.get(tenant, 0.0)
            if cap is not None and inflight + weight > cap:
                self._rejected.inc()
                raise AdmissionError(
                    f"tenant {tenant!r} at max in-flight work "
                    f"({inflight:g} of {cap}, requested weight "
                    f"{weight:g}); retry later")
            self._tenant_inflight[tenant] = inflight + weight
            self._admitted.inc()
            metrics = self._tenants.setdefault(tenant, _TenantMetrics())
            metrics.queries += 1
            metrics.by_lane[lane] += 1
            if plan_cache_hit:
                metrics.plan_cache_hits += 1
            queue.append((ticket, run))
            self._work_ready.notify()
        return ticket

    def complete_cached(self, result, tenant: str = "default",
                        estimated_cost: float = 0.0,
                        plan_cache_hit: bool | None = None,
                        kind: str = "result") -> QueryTicket:
        """Account a cache hit as an interactive-lane no-op.

        The result is already in hand (execution was skipped entirely),
        so the query never enters a queue or occupies a worker — but it
        *was* a served query, so tenant metrics count it, with zero
        queue wait and zero run time.  ``kind`` distinguishes exact
        result-cache hits (``"result"``) from semantic-subsumption
        residual answers (``"reuse"``).  Returns a ticket whose future
        is already resolved with ``result``.
        """
        now = time.perf_counter()
        ticket = QueryTicket(future=Future(), lane="interactive",
                             tenant=tenant, estimated_cost=estimated_cost,
                             queued_at=now, started_at=now, finished_at=now)
        with self._mutex:
            if self._closed:
                raise ServerError("scheduler is closed")
            metrics = self._tenants.setdefault(tenant, _TenantMetrics())
            if kind == "reuse":
                self._reuse_noops.inc()
                metrics.reuse_hits += 1
            else:
                self._result_cache_noops.inc()
                metrics.result_cache_hits += 1
            metrics.queries += 1
            metrics.by_lane["interactive"] += 1
            if plan_cache_hit:
                metrics.plan_cache_hits += 1
        ticket.future.set_result(result)
        return ticket

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    @staticmethod
    def pick_lane(dispatch: int, interactive_waiting: bool,
                  heavy_waiting: bool, heavy_pick_every: int) -> str | None:
        """The lane dispatch number ``dispatch`` (1-based) serves.

        Pure policy, extracted so the anti-starvation tests can drive it
        deterministically: prefer interactive work, but every
        ``heavy_pick_every``-th dispatch takes from the heavy lane even
        when interactive work is waiting.  ``None`` when both lanes are
        empty.
        """
        if not interactive_waiting and not heavy_waiting:
            return None
        prefer_heavy = heavy_waiting and (
            not interactive_waiting
            or dispatch % heavy_pick_every == 0)
        return "heavy" if prefer_heavy else "interactive"

    def _pop_locked(self) -> tuple[QueryTicket, object] | None:
        interactive = self._lanes["interactive"]
        heavy = self._lanes["heavy"]
        lane = self.pick_lane(self._dispatches.value + 1, bool(interactive),
                              bool(heavy), self.config.heavy_pick_every)
        if lane is None:
            return None
        self._dispatches.inc()
        return self._lanes[lane].popleft()

    def _worker_loop(self) -> None:
        while self._dispatch_one():
            pass

    def _dispatch_one(self) -> bool:
        """Wait for one query and run it; ``False`` once closed and
        drained.

        A call per dispatch, not a loop body: the ticket, its ``run``
        closure (plan, trace) and the result table are locals that die
        on return, so a worker idling in ``wait()`` pins nothing it ran.
        """
        with self._mutex:
            item = self._pop_locked()
            while item is None and not self._closed:
                self._work_ready.wait()
                item = self._pop_locked()
            if item is None:
                return False
            self._running += 1
        ticket, run = item
        if not ticket.future.set_running_or_notify_cancel():
            self._finish(ticket, cancelled=True)
            return True
        ticket.started_at = time.perf_counter()
        try:
            result = run(ticket)
        except BaseException as error:  # noqa: BLE001 — future carries it
            ticket.finished_at = time.perf_counter()
            ticket.future.set_exception(error)
            self._finish(ticket, failed=True)
        else:
            ticket.finished_at = time.perf_counter()
            ticket.future.set_result(result)
            self._finish(ticket)
        return True

    def _finish(self, ticket: QueryTicket, failed: bool = False,
                cancelled: bool = False) -> None:
        with self._mutex:
            self._running -= 1
            self._release_tenant_locked(ticket.tenant, ticket.weight)
            if not cancelled:
                metrics = self._tenants.setdefault(ticket.tenant,
                                                   _TenantMetrics())
                metrics.queue_wait_seconds += ticket.queue_wait_seconds
                metrics.run_seconds += ticket.run_seconds
                if failed:
                    metrics.failures += 1
                self._queue_wait_total += ticket.queue_wait_seconds
                self._queue_wait_max = max(self._queue_wait_max,
                                           ticket.queue_wait_seconds)
                self._queue_wait_hist.observe(ticket.queue_wait_seconds)
            if (self._running == 0
                    and not any(self._lanes.values())):
                self._idle.notify_all()

    def _release_tenant_locked(self, tenant: str, weight: float) -> None:
        # 1e-9 epsilon: repeated float charges can leave dust that would
        # otherwise pin an idle tenant's entry (and its gauge) forever.
        remaining = self._tenant_inflight.get(tenant, 0.0) - weight
        if remaining > 1e-9:
            self._tenant_inflight[tenant] = remaining
        else:
            self._tenant_inflight.pop(tenant, None)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Block until every admitted query has finished.

        Returns ``False`` on timeout.  New submissions during the wait
        extend it — drain is a quiesce point, not a barrier.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._mutex:
            while self._running or any(self._lanes.values()):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining)
        return True

    def stats(self) -> dict:
        with self._mutex:
            queries = self._admitted.value
            return {
                "workers": len(self._workers),
                "admitted": queries,
                "rejected": self._rejected.value,
                "result_cache_noops": self._result_cache_noops.value,
                "reuse_noops": self._reuse_noops.value,
                "running": self._running,
                "queued": {lane: len(queue)
                           for lane, queue in self._lanes.items()},
                "tenant_inflight": dict(self._tenant_inflight),
                "queue_wait_seconds_total": round(self._queue_wait_total, 6),
                "queue_wait_seconds_max": round(self._queue_wait_max, 6),
                "queue_wait_seconds_mean": round(
                    self._queue_wait_total / queries, 6) if queries else 0.0,
                "tenants": {tenant: metrics.as_dict()
                            for tenant, metrics
                            in sorted(self._tenants.items())},
            }

    def close(self, wait: bool = True) -> None:
        """Stop accepting work; optionally wait for queued queries."""
        with self._mutex:
            if self._closed:
                return
            if not wait:
                # cancel whatever has not started yet
                for queue in self._lanes.values():
                    while queue:
                        ticket, _ = queue.popleft()
                        ticket.future.cancel()
                        self._release_tenant_locked(ticket.tenant,
                                                    ticket.weight)
            self._closed = True
            self._work_ready.notify_all()
        for worker in self._workers:
            worker.join()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
