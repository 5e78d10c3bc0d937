"""Canonical lock-hierarchy declarations for the engine.

This file is the single source of truth for the lock hierarchy that
``docs/serving.md`` § "Lock hierarchy" describes in prose; the
lock-hierarchy checker (:mod:`repro.analysis.locks`) enforces it
against the source on every run of ``python -m repro.analysis`` and in
tier-1 via ``tests/test_static_analysis.py``.  To add a lock: declare
it here with its level, construct it in the owner named here, and the
checker verifies every acquired-while-held edge stays strictly
downward (level numbers strictly increase from holder to acquiree).

Levels (acquire downward only):

0. **Ingest mutex** (``IngestManager._lock``) — the outermost lock:
   one append/upsert at a time per engine state.  Cache maintenance
   holds it across the whole mutation pipeline (catalog bump, plan
   drop, delta re-execution under model read stripes, result
   re-store), so it legitimately acquires every level below.
1. **Scheduler and plan-cache mutexes** — short critical sections
   around queue state and the canonical-plan map.  Never held across a
   call into any other locked component.
2. **Per-model striped RW locks** (``EngineState.model_locks``) —
   queries hold *read* stripes for every model their plan embeds with
   for the whole build+execute span; ``invalidate_model`` takes the
   write stripe.  Everything a query touches while executing sits
   below this level.
3. **Catalog mutex** — registration, lookup, version, statistics.
   Sits *below* the stripes because physical lowering resolves tables
   (``context.catalog.get``) while the query's read stripes are held;
   the catalog acquires nothing upward while locked (``stats`` only
   recurses into its own reentrant lock).
4. **Leaf locks** — embedding-cache internals, result cache (its
   reuse family index included), a table growth buffer's tail claim
   (``Table.append``, taken under the catalog lock on an append), the
   semantic cache-creation latch,
   and the observability instruments (``obs.metrics``
   counters/histograms, the metrics registry, the tracer ring).  A
   leaf lock is never held across a call into the catalog, plan
   cache, or scheduler (rule LH003).

Historical note: before the static-analysis suite landed, the docs
placed the catalog at level 2 and the stripes at level 3 — the checker
found that statement execution (today ``engine.lifecycle.run_plan``)
holds read stripes across ``build_physical``'s catalog lookups, an
up-hierarchy edge under the documented order.  The *code* order (stripes, then
catalog) is deadlock-free and is what this file now declares.
"""

from __future__ import annotations

from repro.analysis.locks import LockDecl, LockModel

PKG = "repro"

DECLARATIONS: tuple[LockDecl, ...] = (
    # -- level 0: ingest (outermost) -----------------------------------
    LockDecl(name="IngestManager._lock",
             owner=f"{PKG}.ingest.manager.IngestManager", attr="_lock",
             level=0),
    # -- level 1: scheduler / plan-cache mutexes -----------------------
    LockDecl(name="Scheduler._mutex",
             owner=f"{PKG}.server.scheduler.Scheduler", attr="_mutex",
             level=1,
             # Conditions constructed over the same mutex: acquiring
             # them IS acquiring _mutex.
             aliases=("_work_ready", "_idle")),
    LockDecl(name="PlanCache._lock",
             owner=f"{PKG}.engine.plan_cache.PlanCache", attr="_lock",
             level=1),
    # -- level 2: per-model striped RW locks ---------------------------
    LockDecl(name="EngineState.model_locks",
             owner=f"{PKG}.engine.state.EngineState", attr="model_locks",
             level=2, kind="striped"),
    # -- level 3: catalog ----------------------------------------------
    LockDecl(name="Catalog._lock",
             owner=f"{PKG}.storage.catalog.Catalog", attr="_lock",
             level=3, reentrant=True),
    # -- level 4: leaves -----------------------------------------------
    LockDecl(name="EmbeddingCache._lock",
             owner=f"{PKG}.semantic.cache.EmbeddingCache", attr="_lock",
             level=4, kind="rwlock"),
    LockDecl(name="EmbeddingCache._stats_lock",
             owner=f"{PKG}.semantic.cache.EmbeddingCache",
             attr="_stats_lock", level=4),
    LockDecl(name="ResultCache._lock",
             owner=f"{PKG}.engine.result_cache.ResultCache", attr="_lock",
             level=4),
    LockDecl(name="GrowthBuffer._lock",
             owner=f"{PKG}.storage.table.GrowthBuffer", attr="_lock",
             level=4),
    LockDecl(name="lowering._CACHE_CREATE_LOCK",
             owner=f"{PKG}.semantic.lowering", attr="_CACHE_CREATE_LOCK",
             level=4),
    # -- level 4: observability instruments ----------------------------
    # Instruments never call out while locked, so they are safe leaves;
    # subsystems above level 4 may update them inside their own
    # critical sections, level-4 caches declare the same-level edge in
    # ALLOWED_SAME_LEVEL below.
    LockDecl(name="Counter._lock",
             owner=f"{PKG}.obs.metrics.Counter", attr="_lock", level=4),
    LockDecl(name="Histogram._lock",
             owner=f"{PKG}.obs.metrics.Histogram", attr="_lock", level=4),
    LockDecl(name="MetricsRegistry._lock",
             owner=f"{PKG}.obs.metrics.MetricsRegistry", attr="_lock",
             level=4),
    LockDecl(name="Tracer._lock",
             owner=f"{PKG}.obs.trace.Tracer", attr="_lock", level=4),
)

#: Same-level edges that are deliberate and deadlock-free: the
#: embedding cache bumps its hit/miss counters while holding its main
#: RW lock; the counter lock is always innermost and never held across
#: anything, so the pair cannot invert.
ALLOWED_SAME_LEVEL: frozenset[tuple[str, str]] = frozenset({
    ("EmbeddingCache._lock", "EmbeddingCache._stats_lock"),
    # Level-4 caches bump their metric instruments inside their own
    # critical sections; an instrument lock is always innermost and
    # acquires nothing, so these edges cannot invert.
    ("ResultCache._lock", "Counter._lock"),
})

#: Attribute name -> class it holds, engine-wide.  This is how the
#: checker types receivers across call chains (``self.state.catalog``
#: types as Catalog because the final attribute is ``catalog``).  Keep
#: attribute names unique per type; the checker trusts this table.
ATTR_TYPES: dict[str, str] = {
    "state": f"{PKG}.engine.state.EngineState",
    "ingest": f"{PKG}.ingest.manager.IngestManager",
    "catalog": f"{PKG}.storage.catalog.Catalog",
    "plan_cache": f"{PKG}.engine.plan_cache.PlanCache",
    "result_cache": f"{PKG}.engine.result_cache.ResultCache",
    "reuse_registry": f"{PKG}.reuse.registry.ReuseRegistry",
    "scheduler": f"{PKG}.server.scheduler.Scheduler",
    "model_locks": f"{PKG}.utils.locks.StripedRWLock",
    "metrics_registry": f"{PKG}.obs.metrics.MetricsRegistry",
    "tracer": f"{PKG}.obs.trace.Tracer",
    # Migrated stat counters: every private ``_<counter>`` attribute
    # below is an obs Counter engine-wide, so the checker sees (and
    # gates) instrument updates made while subsystem locks are held.
    **{attr: f"{PKG}.obs.metrics.Counter" for attr in (
        "_hits", "_misses", "_puts", "_evictions", "_stale_evictions",
        "_invalidations", "_oversize_skips", "_reuse_fetches",
        "_text_memo_hits", "_registrations", "_probes", "_fallbacks",
        "_admitted", "_rejected", "_result_cache_noops",
        "_reuse_noops", "_dispatches", "_compiles", "statements_total")},
    **{attr: f"{PKG}.obs.metrics.Histogram" for attr in (
        "_queue_wait_hist", "_compile_hist", "statement_seconds",
        "operator_seconds")},
}

#: Dict-valued attribute name -> element class, for ``d.get(k)`` /
#: ``d[k]`` / iteration over ``.values()``.
VALUE_TYPES: dict[str, str] = {
    "embedding_caches": f"{PKG}.semantic.cache.EmbeddingCache",
    "embedding_cache": f"{PKG}.semantic.cache.EmbeddingCache",
}

#: Modules whose lock internals are the primitives themselves — the
#: RWLock implementation necessarily manipulates its own mutex.
EXEMPT_MODULES: frozenset[str] = frozenset({f"{PKG}.utils.locks"})

#: Modules a *leaf* (level 4) lock must never be held across a call
#: into (rule LH003): these own upper-level locks and queue state.
BOUNDARY_MODULES: frozenset[str] = frozenset({
    f"{PKG}.storage.catalog",
    f"{PKG}.engine.plan_cache",
    f"{PKG}.server.scheduler",
})

#: Receiver attribute names treated as boundary components even when
#: the exact callee cannot be resolved.
BOUNDARY_ATTRS: frozenset[str] = frozenset({
    "catalog", "plan_cache", "scheduler",
})


def engine_lock_model() -> LockModel:
    return LockModel(
        declarations=DECLARATIONS,
        allowed_same_level=ALLOWED_SAME_LEVEL,
        attr_types=ATTR_TYPES,
        value_types=VALUE_TYPES,
        exempt_modules=EXEMPT_MODULES,
        boundary_modules=BOUNDARY_MODULES,
        boundary_attrs=BOUNDARY_ATTRS,
    )
