"""Normalized-SQL plan cache: repeated statements skip the whole frontend.

A statement's journey without this cache is lexer -> parser -> binder ->
optimizer on *every* execution, even when the text is byte-identical to
the previous query.  The plan cache short-circuits that at two levels:

1. **Text memo** — exact text (per default model) maps straight to its
   :class:`~repro.engine.sql.canonical.CanonicalQuery`, skipping even
   the lexer on repeats.  Safe to key on raw text because parsing is
   deterministic and context-free: the same text always produces the
   same AST regardless of catalog state.
2. **Plan store** — the canonical family digest plus the concrete
   literal tuple, the catalog/statistics **version**, and the default
   model name key a fully optimized logical plan (physical hints
   annotated).  A hit goes straight to ``build_physical``; a cached
   plan is never mutated by execution, so one entry serves any number
   of concurrent clients.
3. **Generic plans** — when enough *distinct* literal tuples of one
   family optimize to the same literal-masked plan fingerprint, the
   family is **promoted**: new literals are bound into a parameterized
   template and the per-literal optimization is skipped entirely
   (PostgreSQL's generic-vs-custom plan decision, applied to this
   engine).  Periodic rechecks divert a serve through the full
   optimizer; a fingerprint mismatch **demotes** the family for good.
   See ``optimizer/parameterize.py`` for the fingerprint/site
   machinery and ``docs/optimizer.md`` for the promotion contract.

Invalidation is **versioned**, not evented: every ``register_table``,
``drop``, or statistics refresh bumps ``Catalog.version``, and since
the version is part of the key, stale plans simply stop matching.  A
lazy sweep drops old-version entries whenever a newer version is first
seen, so they do not squat in the LRU budget.

The cached artifact is the *optimized logical plan*, not the physical
operator tree: physical operators are stateful one-shot iterators
(row counters, batch cursors), so each execution instantiates fresh
ones from the cached plan — instantiation is microseconds, while the
skipped parse/bind/optimize is the expensive part.

A note on what a version-keyed cache does **not** promise: a query that
runs concurrently with a ``register_table`` may execute a plan bound
against either catalog state — the same non-snapshot semantics the
engine always had.  The cache only guarantees a *later* lookup never
returns a plan built before the change.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.engine.sql.canonical import CanonicalQuery
from repro.errors import PlanError
from repro.obs.metrics import MetricsRegistry, hit_ratio
from repro.optimizer.parameterize import (
    ParameterizeError,
    bind_parameters,
    coerce_to_sites,
    literal_sites,
    parameter_order,
    plan_fingerprint,
    unparameterizable_reason,
)
from repro.relational.logical import LogicalPlan
from repro.reuse.registry import FamilyDigestTracker, FamilyKey

#: Default number of cached plans (and memoized texts) kept.
DEFAULT_PLAN_CACHE_CAPACITY = 256

#: Distinct literal tuples that must optimize to one fingerprint
#: before the family is promoted to a generic plan.
DEFAULT_GENERIC_PROMOTION_THRESHOLD = 3

#: Every Nth generic serve is instead a forced miss: the statement
#: takes the full optimizer path and :meth:`PlanCache.observe`
#: compares the outcome against the generic plan's fingerprint.
DEFAULT_GENERIC_RECHECK_INTERVAL = 16

#: ``(*CanonicalQuery.key, catalog_version, model_name)`` — the literal
#: tuple inside ``CanonicalQuery.key`` is heterogeneous, hence ``Any``.
_PlanKey = tuple[Any, ...]


@dataclass
class CachedPlan:
    """One optimized plan plus the metadata admission control needs."""

    plan: LogicalPlan
    #: Optimizer's total cost estimate — the scheduler's admission
    #: classifier reads this on a hit without re-costing anything.
    estimated_cost: float
    canonical: CanonicalQuery
    catalog_version: int
    model_name: str
    #: Subsumption spec (repro.reuse.analysis.ReuseSpec) when the plan
    #: was augmented for semantic reuse; None otherwise.
    reuse: object | None = None
    hits: int = 0


@dataclass
class GenericPlan:
    """A promoted family's parameterized plan template.

    ``template`` is one exemplar's fully optimized plan; serving binds
    the incoming statement's canonical parameters into its literal
    sites (``order`` maps site index -> parameter index, proven unique
    at promotion time).  The result is structurally identical to what
    the optimizer would have produced — that is exactly what the
    matching fingerprints of ``promotion_threshold`` distinct literal
    tuples established — so the per-literal optimization is skipped.
    """

    template: LogicalPlan
    #: Template literal values in site order (types are authoritative:
    #: incoming parameters are coerced back to these types).
    sites: list = field(default_factory=list)
    #: Site index -> canonical parameter index.
    order: list = field(default_factory=list)
    #: Literal-masked structural fingerprint rechecks compare against.
    fingerprint: str = ""
    estimated_cost: float = 0.0
    catalog_version: int = 0
    model_name: str = ""
    serves: int = 0


@dataclass
class PlanCacheStats:
    """Counters the benchmarks and server metrics read."""

    hits: int = 0
    misses: int = 0
    text_memo_hits: int = 0
    evictions: int = 0
    stale_evictions: int = 0
    entries: int = 0
    families: int = 0
    generic_hits: int = 0
    promotions: int = 0
    demotions: int = 0
    generic_rechecks: int = 0
    generic_entries: int = 0

    @property
    def hit_rate(self) -> float:
        return hit_ratio(self.hits, self.misses)

    def as_dict(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "text_memo_hits": self.text_memo_hits,
            "evictions": self.evictions,
            "stale_evictions": self.stale_evictions,
            "entries": self.entries,
            "families": self.families,
            "generic_hits": self.generic_hits,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "generic_rechecks": self.generic_rechecks,
            "generic_entries": self.generic_entries,
        }


class PlanCache:
    """LRU cache of optimized plans keyed on canonical digest + version."""

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_CAPACITY,
                 registry: MetricsRegistry | None = None,
                 enable_generic: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: Generic-plan promotion knobs (mutable; benchmarks tune them).
        self.enable_generic = enable_generic
        self.generic_promotion_threshold = \
            DEFAULT_GENERIC_PROMOTION_THRESHOLD
        self.generic_recheck_interval = DEFAULT_GENERIC_RECHECK_INTERVAL
        self._lock = threading.Lock()
        self._plans: OrderedDict[_PlanKey, CachedPlan] = OrderedDict()
        self._texts: OrderedDict[tuple[str, str], CanonicalQuery] = \
            OrderedDict()
        #: Promoted families; FamilyDigestTracker is lock-free and
        #: mutated only under self._lock (engine lock hierarchy).
        self._generics: dict[FamilyKey, GenericPlan] = {}
        self._tracker = FamilyDigestTracker()
        registry = registry if registry is not None else MetricsRegistry()
        self._hits = registry.counter(
            "plan_cache_hits_total", help="optimized-plan cache hits")
        self._misses = registry.counter(
            "plan_cache_misses_total", help="optimized-plan cache misses")
        self._text_memo_hits = registry.counter(
            "plan_cache_text_memo_hits_total",
            help="exact-text memo hits (lexer skipped)")
        self._evictions = registry.counter(
            "plan_cache_evictions_total", help="LRU evictions")
        self._stale_evictions = registry.counter(
            "plan_cache_stale_evictions_total",
            help="old-catalog-version entries swept")
        self._generic_hits = registry.counter(
            "plan_cache_generic_hits_total",
            help="statements served from a promoted generic plan "
                 "(per-literal optimization skipped)")
        self._promotions = registry.counter(
            "plan_cache_promotions_total",
            help="families promoted to a generic plan")
        self._demotions = registry.counter(
            "plan_cache_demotions_total",
            help="generic plans dropped after a fingerprint mismatch")
        self._generic_rechecks = registry.counter(
            "plan_cache_generic_rechecks_total",
            help="generic serves diverted to full optimization to "
                 "re-verify the family fingerprint")
        registry.gauge("plan_cache_entries", fn=lambda: len(self._plans),
                       help="cached plans resident")
        registry.gauge("plan_cache_generic_entries",
                       fn=lambda: len(self._generics),
                       help="promoted generic plans resident")
        registry.gauge(
            "plan_cache_hit_ratio",
            fn=lambda: hit_ratio(self._hits.value, self._misses.value),
            help="hits / (hits + misses); 0.0 before any probe")
        self._newest_version = -1

    # -- lookups --------------------------------------------------------
    def canonical_for(self, text: str, model_name: str
                      ) -> CanonicalQuery | None:
        """The memoized canonical form of ``text``, if seen before.

        ``None`` means the caller must lex/parse/canonicalize (and then
        :meth:`put` or :meth:`memo_text` the result).
        """
        with self._lock:
            memo = self._texts.get((text, model_name))
            if memo is not None:
                self._text_memo_hits.inc()
                self._texts.move_to_end((text, model_name))
            return memo

    def get(self, canonical: CanonicalQuery, catalog_version: int,
            model_name: str) -> CachedPlan | None:
        """The cached plan for an exact canonical statement, or ``None``."""
        key = (*canonical.key, catalog_version, model_name)
        with self._lock:
            entry = self._plans.get(key)
            if entry is None:
                self._misses.inc()
                return None
            self._hits.inc()
            entry.hits += 1
            self._plans.move_to_end(key)
            return entry

    def peek(self, digest: str, parameters: tuple[Any, ...],
             catalog_version: int, model_name: str) -> CachedPlan | None:
        """The cached plan for an exact key, without counting a probe.

        The ingest subsystem's read: a result-cache key carries exactly
        these four identity fields, so the delta maintainer can recover
        the optimized plan behind a cached snapshot.  Maintenance is not
        a statement serve — it must not move hit/miss telemetry or the
        LRU order.
        """
        key: _PlanKey = (digest, parameters, catalog_version, model_name)
        with self._lock:
            return self._plans.get(key)

    def drop_if(self, predicate) -> int:
        """Drop cached plans that ``predicate(CachedPlan)`` selects.

        The targeted invalidation hook for row mutations: plans that
        embed *data-derived* artifacts (data-induced predicates built
        from a table's old contents) are unsound after an append even
        though the schema — and therefore the catalog version they key
        on — is unchanged.  The predicate runs outside the cache lock
        (it walks plan trees); entries that match are then dropped under
        the lock.  Returns the number dropped.
        """
        with self._lock:
            entries = list(self._plans.items())
        doomed = [key for key, entry in entries if predicate(entry)]
        if not doomed:
            return 0
        dropped = 0
        with self._lock:
            for key in doomed:
                if self._plans.pop(key, None) is not None:
                    self._stale_evictions.inc()
                    dropped += 1
        return dropped

    def get_generic(self, canonical: CanonicalQuery, catalog_version: int,
                    model_name: str) -> tuple[LogicalPlan, float] | None:
        """Serve the family's generic plan for these literals, if any.

        Returns ``(plan, estimated_cost)`` with the statement's
        parameters bound into the template, or ``None`` when the family
        is not promoted, the parameters cannot be typed to the
        template's sites, or this serve is a scheduled **recheck** —
        every ``generic_recheck_interval``-th serve deliberately misses
        so the caller runs the full optimizer and :meth:`observe`
        compares the outcome against the promoted fingerprint.
        """
        if not self.enable_generic:
            return None
        key: FamilyKey = (canonical.digest, catalog_version, model_name)
        with self._lock:
            generic = self._generics.get(key)
            if generic is None:
                return None
            generic.serves += 1
            if generic.serves % self.generic_recheck_interval == 0:
                self._generic_rechecks.inc()
                return None
            values = coerce_to_sites(generic.sites, generic.order,
                                     canonical.parameters)
            if values is None:
                return None
            try:
                plan = bind_parameters(generic.template, values)
            except (ParameterizeError, PlanError):
                # e.g. a bound literal fails a node invariant the full
                # binder would also reject — fall through to that path
                return None
            self._generic_hits.inc()
            return plan, generic.estimated_cost

    def observe(self, canonical: CanonicalQuery, catalog_version: int,
                model_name: str, plan: LogicalPlan,
                estimated_cost: float) -> None:
        """Feed one *fully optimized* statement into promotion tracking.

        Call this whenever the optimizer actually ran (exact-cache
        miss and generic miss).  Three outcomes:

        - the family already has a generic plan: compare fingerprints —
          a mismatch means a literal **did** change the chosen plan, so
          the generic entry is dropped and the family permanently
          demoted at this catalog version (recheck serves land here);
        - no generic yet: accumulate ``(fingerprint, parameters)``
          evidence, and promote once ``generic_promotion_threshold``
          distinct literal tuples agree on one fingerprint with a
          provably unique site<->parameter mapping;
        - the plan is structurally unparameterizable (data-induced
          predicates, approximate access paths): demote permanently.
        """
        if not self.enable_generic:
            return
        key: FamilyKey = (canonical.digest, catalog_version, model_name)
        with self._lock:
            if self._tracker.is_demoted(key):
                return
            fingerprint = plan_fingerprint(plan)
            generic = self._generics.get(key)
            if generic is not None:
                if generic.fingerprint != fingerprint:
                    del self._generics[key]
                    self._tracker.demote(key)
                    self._demotions.inc()
                return
            reason = unparameterizable_reason(plan)
            if reason is not None:
                self._tracker.demote(key)
                return
            sites = literal_sites(plan)
            order = parameter_order(sites, canonical.parameters)
            exemplars = self._tracker.observe(key, fingerprint,
                                              canonical.parameters)
            if order is None:
                # mapping not provable from THIS exemplar (duplicate or
                # folded values) — evidence still counts, promotion
                # waits for an exemplar with distinct literals
                return
            if exemplars >= self.generic_promotion_threshold:
                self._generics[key] = GenericPlan(
                    template=plan, sites=sites, order=order,
                    fingerprint=fingerprint,
                    estimated_cost=estimated_cost,
                    catalog_version=catalog_version,
                    model_name=model_name)
                self._promotions.inc()

    # -- population -----------------------------------------------------
    def memo_text(self, text: str, model_name: str,
                  canonical: CanonicalQuery) -> None:
        """Record text -> canonical so later repeats skip the lexer."""
        with self._lock:
            self._memo_text_locked(text, model_name, canonical)

    def put(self, text: str, canonical: CanonicalQuery,
            catalog_version: int, model_name: str, plan: LogicalPlan,
            estimated_cost: float, reuse: object | None = None
            ) -> CachedPlan:
        """Insert an optimized plan (and memoize its text)."""
        entry = CachedPlan(plan=plan, estimated_cost=estimated_cost,
                           canonical=canonical,
                           catalog_version=catalog_version,
                           model_name=model_name, reuse=reuse)
        key = (*canonical.key, catalog_version, model_name)
        with self._lock:
            self._sweep_stale_locked(catalog_version)
            self._memo_text_locked(text, model_name, canonical)
            self._plans[key] = entry
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self._evictions.inc()
            return entry

    # -- maintenance ----------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached plan, generic plan, and digest record
        (text memos survive: parse output is catalog-independent)."""
        with self._lock:
            self._plans.clear()
            self._generics.clear()
            self._tracker.clear()

    def stats(self) -> PlanCacheStats:
        with self._lock:
            families = {key[0] for key in self._plans}
            return PlanCacheStats(
                hits=self._hits.value, misses=self._misses.value,
                text_memo_hits=self._text_memo_hits.value,
                evictions=self._evictions.value,
                stale_evictions=self._stale_evictions.value,
                entries=len(self._plans), families=len(families),
                generic_hits=self._generic_hits.value,
                promotions=self._promotions.value,
                demotions=self._demotions.value,
                generic_rechecks=self._generic_rechecks.value,
                generic_entries=len(self._generics))

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    # -- internals ------------------------------------------------------
    def _memo_text_locked(self, text: str, model_name: str,
                          canonical: CanonicalQuery) -> None:
        self._texts[(text, model_name)] = canonical
        self._texts.move_to_end((text, model_name))
        while len(self._texts) > self.capacity:
            self._texts.popitem(last=False)

    def _sweep_stale_locked(self, version: int) -> None:
        """Drop entries keyed under versions older than ``version``.

        They can never hit again (the catalog version is monotonic), so
        letting them age out through the LRU would waste its budget.
        """
        if version <= self._newest_version:
            return
        self._newest_version = version
        stale = [key for key in self._plans if key[2] < version]
        for key in stale:
            del self._plans[key]
            self._stale_evictions.inc()
        stale_generics = [key for key in self._generics
                          if key[1] < version]
        for generic_key in stale_generics:
            del self._generics[generic_key]
        self._tracker.sweep_versions_before(version)
