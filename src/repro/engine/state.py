"""Shared engine state: the part of a session many clients can share.

Before the serving layer, every :class:`~repro.engine.session.Session`
owned a full copy of the expensive, slow-to-warm engine state — model
registry, embedding arenas — so two sessions over
the same data paid the warm-up twice and shared no cache hits.
:class:`EngineState` is that state extracted into one object:

- **catalog** (+ federation) — registered tables and sources, versioned
  for plan-cache invalidation;
- **models** — the embedding model registry;
- **embedding_caches** — one arena-backed
  :class:`~repro.semantic.cache.EmbeddingCache` per model, shared by
  every client so a string embedded by any query is a hit for all;
- **plan_cache** — optimized plans keyed on canonical SQL + catalog
  version;
- **result_cache** — byte-budgeted result snapshots keyed on canonical
  SQL + catalog version + model/arena generations, so a repeated
  statement skips execution entirely (see
  :mod:`repro.engine.result_cache`);
- **model_locks** — striped read-write locks addressed by model name,
  used by the server for operations that must exclude *all* readers of
  one model's caches (e.g. dropping a model's arena).

A stand-alone ``Session()`` still builds a private ``EngineState`` —
same behaviour as before, one owner.  An
:class:`~repro.server.EngineServer` builds one shared state and hands
every :class:`~repro.server.ClientSession` the same instance.
"""

from __future__ import annotations

from repro.embeddings.registry import ModelRegistry
from repro.engine.plan_cache import DEFAULT_PLAN_CACHE_CAPACITY, PlanCache
from repro.engine.result_cache import (
    DEFAULT_RESULT_CACHE_BYTES,
    ResultCache,
    ResultKey,
    strip_columns,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.optimizer.optimizer import OptimizerConfig
from repro.polystore.federation import Federation
from repro.relational.logical import LogicalPlan
from repro.relational.physical import DEFAULT_BATCH_SIZE, ExecutionContext
from repro.storage.catalog import Catalog
from repro.utils.locks import StripedRWLock

DEFAULT_MODEL_NAME = "wiki-ft-100"


def plan_models(plan: LogicalPlan) -> set[str]:
    """Names of every embedding model a plan's semantic nodes use.

    Executors acquire the read stripe of each returned model before
    running the plan, so cache invalidation (the write stripe) can
    never clear an arena out from under a running gather.
    """
    return set(plan.models)


def _checked_batch_size(batch_size: int) -> int:
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    return batch_size


class EngineState:
    """Read-mostly engine state shareable across client sessions."""

    def __init__(self, seed: int = 7, load_default_model: bool = True,
                 optimizer_config: OptimizerConfig | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 result_cache_bytes: int | None = None,
                 semantic_reuse: bool = True,
                 generic_plans: bool = True,
                 trace_sample: float = 1.0,
                 trace_log: object = None):
        self.seed = seed
        #: One registry per engine state: every subsystem registers its
        #: instruments here, and every exporter reads from here.
        self.metrics_registry = MetricsRegistry()
        #: Per-statement span tracer (``trace_sample`` is the sampling
        #: rate; ``trace_log`` an optional NDJSON sink path/file).
        self.tracer = Tracer(sample=trace_sample, sink=trace_log,
                             registry=self.metrics_registry)
        self.statements_total = self.metrics_registry.counter(
            "engine_statements_total",
            help="statements served (all paths: cached, reused, executed)")
        self.statement_seconds = self.metrics_registry.histogram(
            "engine_statement_seconds",
            buckets=(0.0001, 0.001, 0.01, 0.1, 1.0, 10.0),
            help="end-to-end wall seconds per executed statement")
        self.operator_seconds = self.metrics_registry.histogram(
            "engine_operator_seconds",
            buckets=(0.0001, 0.001, 0.01, 0.1, 1.0, 10.0),
            help="wall seconds per physical operator")
        self.catalog = Catalog()
        self.metrics_registry.gauge(
            "catalog_version", fn=lambda: self.catalog.version,
            help="monotonic catalog/statistics version")
        self.models = ModelRegistry()
        self.federation = Federation(self.catalog)
        self.batch_size = _checked_batch_size(batch_size)
        #: model name -> EmbeddingCache; created lazily and race-safely
        #: by :func:`repro.semantic.lowering.cache_for`.
        self.embedding_caches: dict = {}
        self.model_locks = StripedRWLock()
        self.default_model_name = DEFAULT_MODEL_NAME
        # generic_plans=False pins every statement to per-literal
        # optimization (the promotion machinery never engages)
        self.plan_cache = PlanCache(
            DEFAULT_PLAN_CACHE_CAPACITY, registry=self.metrics_registry,
            enable_generic=generic_plans)
        # result_cache_bytes=0 disables cross-statement result caching
        # (every statement executes); None takes the default budget
        if result_cache_bytes is None:
            result_cache_bytes = DEFAULT_RESULT_CACHE_BYTES
        self.result_cache = (
            ResultCache(result_cache_bytes,
                        registry=self.metrics_registry)
            if result_cache_bytes else None)
        # semantic subsumption rides on result-cache snapshots: without
        # them there is nothing to answer residually from
        if semantic_reuse and self.result_cache is not None:
            from repro.reuse.registry import ReuseRegistry

            self.reuse_registry = ReuseRegistry(
                self.result_cache, registry=self.metrics_registry)
        else:
            self.reuse_registry = None
        self.optimizer_config = optimizer_config or OptimizerConfig()
        #: Append/upsert front door: delta-maintains or precisely
        #: invalidates the caches above on row mutations
        #: (:mod:`repro.ingest`).
        from repro.ingest.manager import IngestManager

        self.ingest = IngestManager(self)
        if load_default_model:
            from repro.embeddings.pretrained import build_pretrained_model

            self.models.register(build_pretrained_model(seed=seed))

    def make_context(self, batch_size: int | None = None,
                     parallelism: object = None) -> ExecutionContext:
        """A fresh execution context wired to the shared caches.

        Contexts are cheap per-client (or per-query) objects: they share
        the catalog, model registry and embedding arenas, but carry
        their own ``metrics`` dict so concurrent executions never write
        into each other's telemetry.
        """
        # parallelism: ignored e2e-harness shim; ROADMAP 1(c) deletes it
        return ExecutionContext(
            catalog=self.catalog, models=self.models,
            batch_size=self.batch_size if batch_size is None
            else _checked_batch_size(batch_size),
            embedding_cache=self.embedding_caches,
            metrics_registry=self.metrics_registry)

    def result_key(self, planned) -> ResultKey | None:
        """The result-cache key for a planned statement, or ``None``.

        ``None`` means the result cache is disabled.

        Generations are read *now*, at lookup time, and the caller
        stores the post-execution result under this same key — see the
        capture discipline in :mod:`repro.engine.result_cache`.  Models
        whose arena does not exist yet record generation ``-1``; the
        cache refuses such keys at store time (the arena is created by
        the very execution that produced the result, so the key could
        never match again).
        """
        if self.result_cache is None:
            return None
        caches = self.embedding_caches
        arena_generations = tuple(
            (name, cache.generation if (cache := caches.get(name))
             is not None else -1)
            for name in sorted(planned.plan.models))
        return ResultKey(
            digest=planned.canonical.digest,
            parameters=planned.canonical.parameters,
            catalog_version=planned.catalog_version,
            model_name=planned.model_name,
            arena_generations=arena_generations,
            table_versions=tuple(
                (name, self.catalog.data_version(name))
                for name in sorted(planned.plan.tables)))

    def fetch_result(self, key: ResultKey | None):
        """A defensive snapshot of the cached result for ``key``, or
        ``None`` (also when the key is ``None`` or the cache disabled).

        Both execution paths — ``Session.sql`` inline and
        ``EngineServer.submit`` — consult through here so the key
        discipline lives in one place.
        """
        if key is None or self.result_cache is None:
            return None
        return self.result_cache.get(key)

    def store_result(self, key: ResultKey | None, table,
                     planned=None):
        """Insert a result under the **pre-execution** key from
        :meth:`result_key`; returns the table *visible* to the caller.

        The captured key is what makes invalidation-during-execution
        safe: a register/clear that landed mid-run leaves this key
        below the watermark, and the cache refuses it dead-on-arrival.

        The entry records ``planned.plan`` (what the ingest maintainer
        re-executes over an append's delta).  When ``planned`` carries
        an eligible reuse spec, ``table`` is the augmented execution's
        output: the entry also records the spec and plan shape (which
        puts it in the cache's family index), and its reuse aux columns
        are snapshotted into the entry but stripped from the returned
        table.
        """
        plan = getattr(planned, "plan", None)
        spec = getattr(planned, "reuse", None)
        if spec is None or not spec.eligible:
            if key is not None and self.result_cache is not None:
                self.result_cache.put(key, table, plan)
            return table
        from repro.reuse.analysis import describe_plan

        return self._store_reuse_eligible(key, table, plan, spec,
                                          describe_plan(plan))

    def _store_reuse_eligible(self, key, table, plan, spec, shape,
                              owned: bool = False):
        """Snapshot an aux-carrying result with its reuse record;
        returns the aux-stripped visible table.

        ``owned=True`` (the residual path, whose derived arrays share
        storage with nothing) hands the table to the cache without a
        second copy; the caller-visible strip is then copied instead so
        client mutations can never reach the stored entry.
        """
        if key is None or self.result_cache is None:
            return strip_columns(table, spec.aux_columns)
        stored = self.result_cache.put(key, table, plan, spec, shape,
                                       owned=owned)
        visible = strip_columns(table, spec.aux_columns)
        if owned and stored:
            visible = visible.copy()
        if stored and self.reuse_registry is not None:
            self.reuse_registry.record_registration()
        return visible

    def fetch_reuse(self, planned, key: ResultKey | None):
        """Answer ``planned`` from a *containing* cached statement, or
        ``None`` (probe ineligible, no candidate subsumes, or a tie
        guard forced a fallback).

        Candidates are the result cache's resident entries of the same
        containment family, and must have been captured under exactly
        the probe's catalog version, model, arena generations and table
        data versions — the same freshness contract as an exact hit,
        enforced by comparing the non-identity fields of the two keys.
        A candidate that differs is only skipped: the cache's own
        watermark sweep removes keys that can never match again.  A
        successful residual answer is stored under the probe's own
        exact key (with its reuse record), so an identical repeat is an
        exact hit and further refinements can chain off it.
        """
        registry = self.reuse_registry
        if registry is None or key is None or self.result_cache is None:
            return None
        spec = getattr(planned, "reuse", None)
        if spec is None or not spec.eligible:
            return None
        from repro.reuse.analysis import describe_plan, plan_containment
        from repro.reuse.residual import derive_residual

        probe_shape = None
        for cached_key, entry in registry.candidates(spec.family):
            if (cached_key == key      # the exact entry already missed
                    or cached_key.catalog_version != key.catalog_version
                    or cached_key.model_name != key.model_name
                    or cached_key.arena_generations
                    != key.arena_generations
                    or cached_key.table_versions != key.table_versions):
                continue
            if probe_shape is None:
                probe_shape = describe_plan(planned.plan)
            try:
                action = plan_containment(
                    entry.reuse, entry.shape, entry.table.num_rows,
                    tuple(entry.table.schema.names), spec, probe_shape)
                if action is None:
                    continue
                snapshot = self.result_cache.get_full(cached_key)
                if snapshot is None:
                    continue        # evicted since the candidate list
                derived = derive_residual(snapshot, entry.reuse, spec,
                                          action)
            except Exception:     # noqa: BLE001 — degrade, never fail
                # a defective candidate must cost a fresh execution,
                # not the query
                registry.record_fallback()
                continue
            if derived is None:
                registry.record_fallback()       # tie guard fired
                continue
            registry.record_hit()
            return self._store_reuse_eligible(key, derived, planned.plan,
                                              spec, probe_shape, owned=True)
        registry.record_miss()
        return None

    def arena_stats(self) -> dict:
        """Per-model embedding-arena statistics (metrics surface).

        Snapshots the dict first (atomic C-level copy): a concurrent
        query's ``cache_for`` may be inserting a new model's cache.
        """
        return {name: cache.stats()
                for name, cache
                in sorted(self.embedding_caches.copy().items())}
