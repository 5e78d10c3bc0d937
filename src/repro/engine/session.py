"""The engine session: catalog + models + optimizer + executor in one place.

A session is what the paper's "single declarative framework" looks like to
a user: register tables/sources/models once, then issue SQL or builder
queries; the session optimizes, executes, and profiles them.

``Session`` is a thin facade over an
:class:`~repro.engine.state.EngineState`: a stand-alone session builds a
private state, while sessions handed a ``shared_state`` — the
:class:`~repro.server.EngineServer` path — share catalog, models,
embedding arenas, and the plan and result caches with every sibling.
How a statement is served — plan cache, result cache, reuse,
execution — is :mod:`repro.engine.lifecycle`.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from repro.embeddings.model import EmbeddingModel
from repro.engine.explain import explain_analyzed, explain_plan
from repro.engine.lifecycle import run_plan, serve_statement
from repro.engine.profiler import QueryProfile
from repro.engine.sql.binder import Binder
from repro.engine.sql.canonical import CanonicalQuery, canonicalize
from repro.engine.sql.parser import parse_sql
from repro.engine.state import DEFAULT_MODEL_NAME, EngineState
from repro.errors import CatalogError
from repro.obs.trace import NULL_TRACE, AnyTrace, Trace
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.polystore.source import DataSource
from repro.relational.logical import LogicalPlan, ScanNode
from repro.relational.physical import DEFAULT_BATCH_SIZE
from repro.reuse.analysis import analyze_and_augment
from repro.storage.table import Table

__all__ = ["DEFAULT_MODEL_NAME", "PlannedStatement", "Session"]


class PlannedStatement(NamedTuple):
    """An optimized plan plus the serving metadata around it."""

    plan: LogicalPlan
    #: True when the plan came from the shared plan cache.
    cache_hit: bool
    #: The optimizer's total cost estimate — free on a hit (stored in
    #: the cache entry), and what the scheduler's admission classifier
    #: keys on.
    estimated_cost: float
    #: Canonical form of the statement (digest + literal tuple) — the
    #: result cache keys on it.
    canonical: CanonicalQuery
    #: Catalog version the statement was planned under (captured before
    #: binding, like the plan cache's key).
    catalog_version: int = -1
    #: Default model name the statement was bound with.
    model_name: str = ""
    #: Reuse spec (:class:`repro.reuse.analysis.ReuseSpec`) when the
    #: statement went through subsumption analysis; its plan then
    #: carries the reuse aux columns, which ``EngineState.store_result``
    #: strips before results reach callers.  ``None`` on paths that
    #: never probe for subsumption.
    reuse: object | None = None


class Session:
    """A query session over registered tables, sources, and models.

    ``result_cache_bytes`` budgets the cross-statement result cache
    (``None`` = default 64 MiB, ``0`` disables it so every statement
    executes).  ``semantic_reuse`` toggles the subsumption subsystem
    (answering refined statements residually from cached
    super-results); it rides on result-cache snapshots, so disabling
    the result cache disables it too.

    ``compiled_pipelines`` accepts only ``None`` or ``"off"``: there is
    one, interpreted executor.

    ``shared_state`` plugs the session into an existing
    :class:`~repro.engine.state.EngineState` (the server path).  When it
    is given, ``seed``/``load_default_model``/``optimizer_config``/
    ``result_cache_bytes`` are ignored — that state was configured by
    its owner.
    """

    def __init__(self, seed: int = 7, load_default_model: bool = True,
                 optimizer_config: OptimizerConfig | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 shared_state: EngineState | None = None,
                 result_cache_bytes: int | None = None,
                 semantic_reuse: bool = True,
                 compiled_pipelines: str | None = None,
                 generic_plans: bool = True):
        # kept with its one legal value for callers that still pass
        # "off"; it goes when the engine knobs become one config
        # (ROADMAP item 1(g))
        if compiled_pipelines not in (None, "off"):
            raise ValueError(
                "compiled_pipelines accepts only None or 'off', got "
                f"{compiled_pipelines!r}")
        if shared_state is None:
            shared_state = EngineState(
                seed=seed, load_default_model=load_default_model,
                optimizer_config=optimizer_config, batch_size=batch_size,
                result_cache_bytes=result_cache_bytes,
                semantic_reuse=semantic_reuse,
                generic_plans=generic_plans)
        self.state = shared_state
        # shared references, not copies: mutating through any facade is
        # visible to every session over the same state
        self.catalog = shared_state.catalog
        self.models = shared_state.models
        self.federation = shared_state.federation
        self.context = shared_state.make_context(batch_size=batch_size)
        # no override yet: default_model_name tracks the shared state
        # until this session picks its own (register_model(default=True))
        self._default_model_override: str | None = None
        self.last_profile: QueryProfile | None = None

    @property
    def optimizer_config(self) -> OptimizerConfig:
        """The shared state's optimizer config (read-only: every session
        over one state plans with the config its plan cache keys
        assume)."""
        return self.state.optimizer_config

    @property
    def default_model_name(self) -> str:
        """The model unqualified semantic operators bind to.

        Tracks the shared state's default — so
        ``EngineServer.register_model(default=True)`` reaches every
        existing client session — unless this session set its own
        (assignment or ``register_model(default=True)``), which is a
        session-local override, like a search path.
        """
        return self._default_model_override or self.state.default_model_name

    @default_model_name.setter
    def default_model_name(self, name: str) -> None:
        self._default_model_override = name

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_table(self, name: str, table: Table,
                       replace: bool = False) -> None:
        """Register a materialized table under ``name``.

        Bumps the catalog version, which invalidates every cached plan
        (they are keyed on the version, so they simply stop matching).
        """
        self.catalog.register(name, table, replace=replace)

    def append(self, name: str, rows):
        """Append rows (dicts or a same-schema :class:`Table`) to
        ``name``; returns the :class:`~repro.ingest.IngestReport`.

        Unlike ``register_table(replace=True)`` — a schema-identity
        change that invalidates every cache engine-wide — an append
        bumps only the table's per-row ``data_version``: plans stay
        cached, and results over the table are delta-patched when the
        plan is provably append-monotone (:mod:`repro.ingest`).
        """
        return self.state.ingest.append(name, rows)

    def upsert(self, name: str, rows, key: str):
        """Insert-or-replace rows by the ``key`` column; returns the
        :class:`~repro.ingest.IngestReport`.

        Pure inserts take the delta-maintenance append path; any key
        collision falls back to targeted invalidation of this table's
        cached results (see :meth:`repro.ingest.IngestManager.upsert`).
        """
        return self.state.ingest.upsert(name, rows, key)

    def register_source(self, source: DataSource) -> list[str]:
        """Federate a polystore source; returns the registered table names."""
        self.federation.add_source(source)
        return self.federation.registered_tables(source.name)

    def register_model(self, model: EmbeddingModel,
                       default: bool = False) -> None:
        """Register an embedding model (optionally as the session default)."""
        self.models.register(model)
        if default:
            self.default_model_name = model.name

    def embedding_cache(self, model_name: str | None = None):
        """The session's arena cache for ``model_name`` (default model if
        omitted), creating it on first use.  Embeddings interned here are
        shared by every query the session executes."""
        from repro.semantic.lowering import cache_for

        return cache_for(self.context, model_name or self.default_model_name)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def table(self, name: str, alias: str | None = None):
        """Start a builder query from a registered table."""
        from repro.engine.builder import QueryBuilder

        if name not in self.catalog:
            raise CatalogError(
                f"unknown table {name!r}; registered: {self.catalog.names()}"
            )
        scan = ScanNode(name, self.catalog.get(name).schema, qualifier=alias)
        return QueryBuilder(self, scan)

    def sql(self, text: str, optimize: bool = True) -> Table:
        """Parse, bind, optimize, and execute a SQL query.

        Optimized statements travel the statement lifecycle
        (:func:`repro.engine.lifecycle.serve_statement`): plan cache,
        then result cache and reuse, which skip execution entirely.
        ``optimize=False`` always takes the uncached, unscheduled path.
        """
        if not optimize:
            return self.execute(self.sql_plan(text), optimize=False)
        return serve_statement(self, text)

    def sql_plan(self, text: str) -> LogicalPlan:
        """Parse and bind a SQL query to an (unoptimized) logical plan."""
        statement = parse_sql(text)
        binder = Binder(self.catalog, self.default_model_name)
        return binder.bind(statement)

    def plan_for(self, text: str,
                 trace: AnyTrace = NULL_TRACE) -> PlannedStatement:
        """An optimized plan for ``text`` plus hit flag and cost estimate.

        The cache key is (canonical AST digest, literal tuple, catalog
        version, default model): any ``register_table``/``drop``/stats
        refresh bumps the version and retires every older plan.  The
        version is captured *before* binding — statistics computed
        lazily during this very optimization bump it mid-flight, in
        which case the entry is stored under the pre-bump version, ages
        out on the next lookup, and the statement is re-planned once
        against the now-stable statistics.

        An exact miss additionally probes the family's **generic plan**
        (see :mod:`repro.engine.plan_cache`): a family whose literals
        provably don't steer plan choice serves a parameterized
        template with this statement's literals bound in, skipping
        bind + optimize entirely.  Every full optimization on this path
        feeds ``PlanCache.observe`` for promotion/demotion tracking.
        """
        cache = self.state.plan_cache
        model = self.default_model_name
        version = self.catalog.version
        statement = None
        with trace.span("frontend.parse") as parse_span:
            canonical = cache.canonical_for(text, model)
            if canonical is None:
                statement = parse_sql(text)
                canonical = canonicalize(statement)
            parse_span.annotate(text_memo_hit=statement is None)
        with trace.span("plan_cache.probe") as probe:
            entry = cache.get(canonical, version, model)
            probe.annotate(hit=entry is not None,
                           catalog_version=version, model=model)
        if entry is not None:
            if statement is not None:
                # a textually new spelling of a cached statement: memo it
                # so this spelling skips the lexer next time too
                cache.memo_text(text, model, canonical)
            return PlannedStatement(entry.plan, True, entry.estimated_cost,
                                    canonical=canonical,
                                    catalog_version=version,
                                    model_name=model, reuse=entry.reuse)
        # exact miss: a promoted family can still serve a generic plan
        # with these literals bound in, skipping bind+optimize entirely
        with trace.span("plan_cache.generic_probe") as generic_span:
            generic = cache.get_generic(canonical, version, model)
            generic_span.annotate(hit=generic is not None)
        if generic is not None:
            if statement is not None:
                cache.memo_text(text, model, canonical)
            return PlannedStatement(generic.plan, True,
                                    generic.estimated_cost,
                                    canonical=canonical,
                                    catalog_version=version,
                                    model_name=model, reuse=generic.reuse)
        with trace.span("frontend.bind"):
            if statement is None:
                statement = parse_sql(text)
            bound = Binder(self.catalog, model).bind(statement)
            plan, reuse = bound, None
            if self.state.reuse_registry is not None:
                # subsumption analysis + aux-column augmentation happen
                # before optimization, so the optimizer plans (and the
                # plan cache stores) the score-carrying variant once
                reuse, plan = analyze_and_augment(bound)
        optimizer = self._optimizer()
        with trace.span("optimize"):
            plan = optimizer.optimize(plan)
        estimated = optimizer.last_report.estimated_cost
        cache.put(text, canonical, version, model, plan, estimated,
                  reuse=reuse)
        # promotion evidence (and recheck verification); a generic
        # serve re-derives the reuse spec from ``bound``
        cache.observe(canonical, version, model, plan, estimated, bound,
                      reuse)
        return PlannedStatement(plan, False, estimated,
                                canonical=canonical, catalog_version=version,
                                model_name=model, reuse=reuse)

    def optimize(self, plan: LogicalPlan) -> LogicalPlan:
        return self._optimizer().optimize(plan)

    def execute(self, plan: LogicalPlan, optimize: bool = True) -> Table:
        """Run a logical plan; stores a :class:`QueryProfile`."""
        self.last_profile = None    # a raise must not leave a stale one
        if optimize:
            plan = self.optimize(plan)
        result, self.last_profile, _ = run_plan(self, plan, self.context)
        return result

    def explain(self, query: str | LogicalPlan,
                optimize: bool = True) -> str:
        """EXPLAIN a SQL string or a logical plan."""
        plan = self.sql_plan(query) if isinstance(query, str) else query
        optimizer = self._optimizer()
        if optimize:
            plan = optimizer.optimize(plan)
        return explain_plan(plan, optimizer.estimator, optimizer.cost_model)

    def explain_analyze(self, query: str | LogicalPlan,
                        optimize: bool = True) -> str:
        """EXPLAIN ANALYZE: run the query and show estimated vs actual
        rows and wall time per operator.

        The estimated/actual gap is the cardinality feedback the paper's
        adaptive execution (§VI) acts on — here surfaced for the user.
        """
        trace = Trace("explain_analyze", clock=time.perf_counter)
        with trace.span("frontend.parse"):
            plan = self.sql_plan(query) if isinstance(query, str) else query
        optimizer = self._optimizer()
        if optimize:
            with trace.span("optimize"):
                plan = optimizer.optimize(plan)
        _, profile, root = run_plan(self, plan, self.context, trace)
        trace.finish()
        # the span tree is built from the same operator rows as the
        # table above it, so the two sections cannot disagree on timings
        return "\n".join([
            explain_analyzed(plan, root, optimizer.estimator,
                             profile.total_seconds),
            "trace:",
            *("  " + line for line in trace.pretty().splitlines())])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _optimizer(self) -> Optimizer:
        return Optimizer(self.catalog, self.models,
                         config=self.optimizer_config,
                         execution_context=self.context)
