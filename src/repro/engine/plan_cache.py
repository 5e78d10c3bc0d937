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
seen, so they do not squat in the LRU budget.  Plans and text memos are
each a count-budgeted :class:`~repro.utils.store.LRUStore` of
``capacity`` entries.

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
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

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
from repro.reuse.analysis import ReuseSpec, analyze_and_augment, is_dip_free
from repro.reuse.registry import FamilyDigestTracker, FamilyKey
from repro.utils.store import LRUStore

#: Default number of cached plans (and memoized texts) kept.
DEFAULT_PLAN_CACHE_CAPACITY = 256

#: Distinct literal tuples that must optimize to one fingerprint
#: before the family is promoted to a generic plan.
GENERIC_PROMOTION_THRESHOLD = 3

#: Every Nth generic serve is instead a forced miss: the statement
#: takes the full optimizer path and :meth:`PlanCache.observe`
#: compares the outcome against the generic plan's fingerprint.
GENERIC_RECHECK_INTERVAL = 16

#: Why an observed exemplar did not (yet) promote its family — the
#: ``reason`` label of ``plan_cache_promotion_refusals_total``.
#: ``unmappable_sites`` leaves the family waiting for a better exemplar;
#: the other two demote it at this catalog version.
PROMOTION_REFUSAL_REASONS = ("data_induced", "unmappable_sites",
                             "fingerprint_mismatch")

#: ``(*CanonicalQuery.key, catalog_version, model_name)`` — the literal
#: tuple inside ``CanonicalQuery.key`` is heterogeneous, hence ``Any``.
_PlanKey = tuple[Any, ...]


@dataclass
class CachedPlan:
    """One optimized plan plus the metadata admission control and
    ingest need."""

    plan: LogicalPlan
    #: Optimizer's total cost estimate — the scheduler's admission
    #: classifier reads this on a hit without re-costing anything.
    estimated_cost: float
    #: Subsumption spec (repro.reuse.analysis.ReuseSpec) when the plan
    #: was augmented for semantic reuse; None otherwise.
    reuse: object | None = None
    #: No data-induced predicate in the plan — recorded once, when the
    #: plan is cached, and read by every append's plan drop.
    dip_free: bool = field(init=False)

    def __post_init__(self) -> None:
        self.dip_free = is_dip_free(self.plan)


@dataclass
class GenericPlan:
    """A promoted family's parameterized plan template.

    ``template`` is one exemplar's fully optimized plan; serving binds
    the incoming statement's canonical parameters into its literal
    sites (``order`` maps site index -> parameter index, proven unique
    at promotion time).  The result is structurally identical to what
    the optimizer would have produced — that is exactly what the
    matching fingerprints of ``GENERIC_PROMOTION_THRESHOLD`` distinct literal
    tuples established — so the per-literal optimization is skipped.

    ``bound`` is the same exemplar's bound plan before reuse
    augmentation, with its own site order: a serve rebinds it and
    re-derives the statement's reuse spec from it, exactly as the full
    path derives it from the binder's output.
    """

    template: LogicalPlan
    #: Template literal values in site order (types are authoritative:
    #: incoming parameters are coerced back to these types).
    sites: list[object]
    #: Site index -> canonical parameter index.
    order: list[int]
    #: The exemplar's bound, un-augmented plan and its site mapping.
    bound: LogicalPlan
    bound_sites: list[object]
    bound_order: list[int]
    #: Reuse aux columns the template carries, or ``None`` when the
    #: exemplar was planned without reuse analysis (a serve then
    #: derives no spec).  A serve whose re-derived spec names other
    #: columns falls back to the full path.
    aux_columns: tuple[str, ...] | None
    #: Literal-masked structural fingerprint rechecks compare against.
    fingerprint: str
    estimated_cost: float
    serves: int = 0


class GenericServe(NamedTuple):
    """A statement served from its family's generic plan."""

    plan: LogicalPlan
    estimated_cost: float
    #: The reuse spec re-derived from the rebound exemplar plan
    #: (``None`` when the family is planned without reuse analysis).
    reuse: ReuseSpec | None


class PlanCache:
    """LRU cache of optimized plans keyed on canonical digest + version."""

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_CAPACITY,
                 registry: MetricsRegistry | None = None,
                 enable_generic: bool = True) -> None:
        self._enable_generic = enable_generic
        self._lock = threading.Lock()
        self._plans: LRUStore[_PlanKey, CachedPlan] = LRUStore(capacity)
        self._texts: LRUStore[tuple[str, str], CanonicalQuery] = \
            LRUStore(capacity)
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
        self._refusals = {
            reason: registry.counter(
                "plan_cache_promotion_refusals_total",
                labels={"reason": reason},
                help="observed exemplars that did not promote their "
                     "family, by reason")
            for reason in PROMOTION_REFUSAL_REASONS}
        self._generic_rechecks = registry.counter(
            "plan_cache_generic_rechecks_total",
            help="generic serves diverted to full optimization to "
                 "re-verify the family fingerprint")
        registry.gauge("plan_cache_entries", fn=lambda: len(self._plans),
                       help="cached plans resident")
        registry.gauge("plan_cache_generic_entries",
                       fn=lambda: len(self._generics),
                       help="promoted generic plans resident")
        self._hit_ratio = registry.gauge(
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
            return entry

    def drop_if(self, predicate: Callable[[CachedPlan], bool]) -> int:
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
            entries = self._plans.items()
        doomed = [key for key, entry in entries if predicate(entry)]
        with self._lock:
            dropped = sum(self._plans.pop(key) is not None for key in doomed)
            self._stale_evictions.inc(dropped)
        return dropped

    def get_generic(self, canonical: CanonicalQuery, catalog_version: int,
                    model_name: str) -> GenericServe | None:
        """Serve the family's generic plan for these literals, if any.

        Returns the template with the statement's parameters bound in,
        or ``None`` when the family is not promoted, the parameters
        cannot be typed to the template's sites, or this serve is a
        scheduled **recheck** — every ``GENERIC_RECHECK_INTERVAL``-th
        serve deliberately misses so the caller runs the full optimizer
        and :meth:`observe` compares the outcome against the promoted
        fingerprint.

        A family planned with reuse analysis also rebinds the
        exemplar's bound plan and re-derives the reuse spec from it;
        when the spec's aux columns differ from the template's, the
        serve misses so the full path plans it.
        """
        if not self._enable_generic:
            return None
        key: FamilyKey = (canonical.digest, catalog_version, model_name)
        with self._lock:
            generic = self._generics.get(key)
            if generic is None:
                return None
            generic.serves += 1
            if generic.serves % GENERIC_RECHECK_INTERVAL == 0:
                self._generic_rechecks.inc()
                return None
        # the template and bound plans are never mutated: binding clones
        values = coerce_to_sites(generic.sites, generic.order,
                                 canonical.parameters)
        if values is None:
            return None
        spec: ReuseSpec | None = None
        try:
            plan = bind_parameters(generic.template, values)
            if generic.aux_columns is not None:
                bound_values = coerce_to_sites(
                    generic.bound_sites, generic.bound_order,
                    canonical.parameters)
                if bound_values is None:
                    return None
                spec, _ = analyze_and_augment(
                    bind_parameters(generic.bound, bound_values))
        except (ParameterizeError, PlanError):
            # e.g. a bound literal fails a node invariant the full
            # binder would also reject — fall through to that path
            return None
        if spec is not None and spec.aux_columns != generic.aux_columns:
            return None
        self._generic_hits.inc()
        return GenericServe(plan, generic.estimated_cost, spec)

    def observe(self, canonical: CanonicalQuery, catalog_version: int,
                model_name: str, plan: LogicalPlan, estimated_cost: float,
                bound: LogicalPlan, reuse: ReuseSpec | None = None
                ) -> None:
        """Feed one *fully optimized* statement into promotion tracking.

        Call this whenever the optimizer actually ran (exact-cache
        miss and generic miss); ``bound`` is the binder's plan before
        reuse augmentation and ``reuse`` the spec augmentation derived
        (``None`` when the session plans without reuse analysis).
        Three outcomes:

        - the family already has a generic plan: compare fingerprints —
          a mismatch means a literal **did** change the chosen plan, so
          the generic entry is dropped and the family permanently
          demoted at this catalog version (recheck serves land here);
        - no generic yet: accumulate ``(fingerprint, parameters)``
          evidence, and promote once ``GENERIC_PROMOTION_THRESHOLD``
          distinct literal tuples agree on one fingerprint with
          provably unique site<->parameter mappings for both the
          optimized and the bound plan;
        - the plan is structurally unparameterizable (data-induced
          predicates): demote permanently.

        Every exemplar that does not promote for a reason other than
        "not enough evidence yet" counts one
        ``plan_cache_promotion_refusals_total{reason}``.
        """
        if not self._enable_generic:
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
                self._refusals[reason].inc()
                return
            sites = literal_sites(plan)
            order = parameter_order(sites, canonical.parameters)
            bound_sites = literal_sites(bound)
            bound_order = parameter_order(bound_sites, canonical.parameters)
            exemplars = self._tracker.observe(key, fingerprint,
                                              canonical.parameters)
            if exemplars < 0:
                self._refusals["fingerprint_mismatch"].inc()
                return
            if order is None or bound_order is None:
                # mapping not provable from THIS exemplar (duplicate or
                # folded values) — evidence still counts, promotion
                # waits for an exemplar with distinct literals
                self._refusals["unmappable_sites"].inc()
                return
            if exemplars >= GENERIC_PROMOTION_THRESHOLD:
                self._generics[key] = GenericPlan(
                    template=plan, sites=sites, order=order, bound=bound,
                    bound_sites=bound_sites, bound_order=bound_order,
                    aux_columns=None if reuse is None
                    else reuse.aux_columns,
                    fingerprint=fingerprint,
                    estimated_cost=estimated_cost)
                self._promotions.inc()

    # -- population -----------------------------------------------------
    def memo_text(self, text: str, model_name: str,
                  canonical: CanonicalQuery) -> None:
        """Record text -> canonical so later repeats skip the lexer."""
        with self._lock:
            self._texts.put((text, model_name), canonical)

    def put(self, text: str, canonical: CanonicalQuery,
            catalog_version: int, model_name: str, plan: LogicalPlan,
            estimated_cost: float, reuse: object | None = None
            ) -> CachedPlan:
        """Insert an optimized plan (and memoize its text)."""
        entry = CachedPlan(plan=plan, estimated_cost=estimated_cost,
                           reuse=reuse)
        key = (*canonical.key, catalog_version, model_name)
        with self._lock:
            self._sweep_stale_locked(catalog_version)
            self._texts.put((text, model_name), canonical)
            self._evictions.inc(len(self._plans.put(key, entry)))
            return entry

    # -- maintenance ----------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Counters for ``server.metrics()["plan_cache"]``, read from the
        registered instruments."""
        with self._lock:
            families = len({key[0] for key, _ in self._plans.items()})
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
            "hit_rate": self._hit_ratio.value,
            "text_memo_hits": self._text_memo_hits.value,
            "evictions": self._evictions.value,
            "stale_evictions": self._stale_evictions.value,
            "entries": len(self._plans),
            "families": families,
            "generic_hits": self._generic_hits.value,
            "promotions": self._promotions.value,
            "demotions": self._demotions.value,
            "generic_rechecks": self._generic_rechecks.value,
            "generic_entries": len(self._generics),
        }

    def __len__(self) -> int:
        return len(self._plans)

    # -- internals ------------------------------------------------------
    def _sweep_stale_locked(self, version: int) -> None:
        """Drop entries keyed under versions older than ``version``.

        They can never hit again (the catalog version is monotonic), so
        letting them age out through the LRU would waste its budget.
        """
        if version <= self._newest_version:
            return
        self._newest_version = version
        self._stale_evictions.inc(
            self._plans.drop_if(lambda key, _: key[2] < version))
        stale_generics = [key for key in self._generics
                          if key[1] < version]
        for generic_key in stale_generics:
            del self._generics[generic_key]
        self._tracker.sweep_versions_before(version)
