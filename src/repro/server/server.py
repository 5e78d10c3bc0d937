"""EngineServer: shared engine state + plan cache + scheduler in one box.

The server owns exactly one :class:`~repro.engine.state.EngineState` —
catalog, models, per-model embedding arenas, plan and result caches —
and hands out :class:`ClientSession` facades that *share* it: a string
embedded by any client is an arena hit for all of them, and a statement
planned once executes plan-cache-hot from every connection.

Execution is admission-controlled: ``submit`` hands the statement
lifecycle (:mod:`repro.engine.lifecycle`) the server's
:class:`~repro.server.scheduler.Scheduler`, so planning and cache probes
run in the calling thread and execution on the bounded pool.
"""

from __future__ import annotations

from repro.engine.lifecycle import serve_statement
from repro.engine.session import Session
from repro.engine.state import EngineState
from repro.errors import ServerError
from repro.obs.export import json_snapshot, prometheus_text
from repro.optimizer.optimizer import OptimizerConfig
from repro.relational.physical import DEFAULT_BATCH_SIZE
from repro.server.scheduler import QueryTicket, Scheduler, SchedulerConfig
from repro.storage.table import Table


class EngineServer:
    """A concurrent, multi-session serving layer over one shared engine.

    ``scheduler_config.workers`` sizes the query pool, defaulting to the
    CPUs visible to the process.  Use as a context manager or call
    :meth:`close` to stop the worker pool.
    """

    def __init__(self, seed: int = 7, load_default_model: bool = True,
                 optimizer_config: OptimizerConfig | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 result_cache_bytes: int | None = None,
                 semantic_reuse: bool = True,
                 generic_plans: bool = True,
                 scheduler_config: SchedulerConfig | None = None,
                 trace_sample: float = 1.0,
                 trace_log: object = None):
        self.state = EngineState(
            seed=seed, load_default_model=load_default_model,
            optimizer_config=optimizer_config, batch_size=batch_size,
            result_cache_bytes=result_cache_bytes,
            semantic_reuse=semantic_reuse,
            generic_plans=generic_plans,
            trace_sample=trace_sample, trace_log=trace_log)
        self.scheduler = Scheduler(scheduler_config,
                                   registry=self.state.metrics_registry)
        self._closed = False
        # the admin session plans statements submitted without a client
        # session (server.sql / server.submit convenience paths)
        self._admin = ClientSession(self, tenant="admin")

    # ------------------------------------------------------------------
    # Registration (shared state, versioned invalidation)
    # ------------------------------------------------------------------
    def register_table(self, name: str, table: Table,
                       replace: bool = False) -> None:
        """Register/replace a table for every client session.

        The catalog bumps its version, so every cached plan over the old
        contents stops matching — queries already executing may see
        either version (the engine's usual non-snapshot semantics).
        """
        self.state.catalog.register(name, table, replace=replace)

    def register_model(self, model, default: bool = False) -> None:
        """Register an embedding model for every client session."""
        self.state.models.register(model)
        if default:
            self.state.default_model_name = model.name

    def register_source(self, source) -> list[str]:
        """Federate a polystore source; returns registered table names."""
        self.state.federation.add_source(source)
        return self.state.federation.registered_tables(source.name)

    def append(self, name: str, rows, tenant: str = "admin",
               wait: bool = True):
        """Append rows through the scheduler; delta-maintains caches.

        Returns the :class:`~repro.ingest.IngestReport` when ``wait`` is
        true, the :class:`QueryTicket` otherwise.
        """
        return self._ingest(
            lambda: self.state.ingest.append(name, rows), tenant, wait)

    def upsert(self, name: str, rows, key: str, tenant: str = "admin",
               wait: bool = True):
        """Insert-or-replace by ``key`` through the scheduler; returns
        the report or the ticket, like :meth:`append`."""
        return self._ingest(
            lambda: self.state.ingest.upsert(name, rows, key), tenant, wait)

    def _ingest(self, operation, tenant: str, wait: bool):
        """Admit one ingest operation like a query, but charged
        ``SchedulerConfig.ingest_weight`` against the tenant's in-flight
        cap (a mutation holds the engine-wide ingest lock and re-executes
        delta plans, so it displaces more capacity than one read), and
        classified heavy — strictly above the interactive threshold — so
        a burst of appends cannot starve the interactive lane."""
        self._check_open()
        config = self.scheduler.config
        ticket = self.scheduler.submit(
            lambda ticket: operation(),
            estimated_cost=config.interactive_cost_threshold + 1.0,
            tenant=tenant, weight=config.ingest_weight)
        return ticket.result() if wait else ticket

    def invalidate_model(self, model_name: str) -> None:
        """Clear a model's embedding arena (and, transitively, the
        cached results over it via generation retirement).

        Takes the model's write stripe, so it blocks until no running
        query holds the model's read stripe — an arena is never cleared
        mid-gather.
        """
        with self.state.model_locks.write(model_name):
            cache = self.state.embedding_caches.get(model_name)
            if cache is not None:
                cache.clear()

    def invalidate_results(self) -> int:
        """Drop every cached result snapshot; returns the count dropped.

        The result cache invalidates itself lazily on catalog/model
        changes; this is the explicit admin override for mutations the
        engine cannot see — e.g. a table's arrays modified in place
        (tables are immutable by convention, not enforcement).  The
        reuse family index goes with the entries it lists.
        """
        if self.state.result_cache is None:
            return 0
        return self.state.result_cache.invalidate()

    # ------------------------------------------------------------------
    # Sessions and execution
    # ------------------------------------------------------------------
    def session(self, tenant: str = "default",
                batch_size: int | None = None) -> "ClientSession":
        """A lightweight client session sharing this server's state."""
        self._check_open()
        return ClientSession(self, tenant=tenant, batch_size=batch_size)

    def submit(self, text: str, session: "ClientSession | None" = None,
               tenant: str | None = None) -> QueryTicket:
        """Plan and probe ``text`` now, queue its execution if no cache
        answered; returns the ticket (``.result()`` blocks for the
        table).  ``tenant`` overrides the session's for accounting."""
        self._check_open()
        client = session if session is not None else self._admin
        return serve_statement(
            client, text, scheduler=self.scheduler,
            tenant=tenant if tenant is not None else client.tenant)

    def sql(self, text: str, tenant: str = "admin") -> Table:
        """Blocking convenience: submit and wait for the result."""
        return self.submit(text, tenant=tenant).result()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """One aggregate metrics snapshot across every subsystem."""
        return {
            "plan_cache": self.state.plan_cache.stats(),
            "result_cache": (self.state.result_cache.stats()
                             if self.state.result_cache is not None
                             else None),
            "reuse": (self.state.reuse_registry.stats()
                      if self.state.reuse_registry is not None
                      else None),
            "ingest": self.state.ingest.stats(),
            "scheduler": self.scheduler.stats(),
            "embedding_arenas": self.state.arena_stats(),
            "catalog_version": self.state.catalog.version,
        }

    def export_prometheus(self) -> str:
        """Every instrument in Prometheus text exposition format.

        Reads the same registry the ``metrics()`` dict is built from —
        the subsystem ``stats()`` methods read their registered
        instruments — so the two surfaces agree by construction.
        """
        return prometheus_text(self.state.metrics_registry)

    def export_json(self) -> dict[str, float]:
        """Flat ``{name{labels}: value}`` snapshot of every instrument."""
        return json_snapshot(self.state.metrics_registry)

    def traces(self) -> list:
        """Recently completed statement traces (bounded ring)."""
        return self.state.tracer.completed()

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every admitted query has finished."""
        return self.scheduler.drain(timeout=timeout)

    def close(self, wait: bool = True) -> None:
        """Stop the worker pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.scheduler.close(wait=wait)

    def __enter__(self) -> "EngineServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ServerError("server is closed")


class ClientSession(Session):
    """A session facade sharing an :class:`EngineServer`'s state.

    Construction is cheap — no model load, no new caches — because all
    heavy state lives in the server.  ``sql`` routes through the
    server's plan cache *and* scheduler (admission control applies);
    builder queries and ``execute`` run inline in the calling thread,
    same as a stand-alone session.
    """

    def __init__(self, server: EngineServer, tenant: str = "default",
                 batch_size: int | None = None):
        super().__init__(shared_state=server.state,
                         batch_size=server.state.batch_size
                         if batch_size is None else batch_size)
        self.server = server
        self.tenant = tenant

    def sql(self, text: str, optimize: bool = True) -> Table:
        """Execute through the server's scheduler (blocking)."""
        if not optimize:
            # uncached, unscheduled debug path — identical to Session
            return super().sql(text, optimize=False)
        return self.submit(text).result()

    def submit(self, text: str) -> QueryTicket:
        """Non-blocking execute; returns the scheduler ticket."""
        return self.server.submit(text, session=self)

    def append(self, name: str, rows):
        """Append through the server (admission-controlled, weighted)."""
        return self.server.append(name, rows, tenant=self.tenant)

    def upsert(self, name: str, rows, key: str):
        """Upsert through the server (admission-controlled, weighted)."""
        return self.server.upsert(name, rows, key, tenant=self.tenant)
