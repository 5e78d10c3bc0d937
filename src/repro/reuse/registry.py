"""Subsumption-reuse counters, and the generic-plan family digests.

The entries a subsumption probe examines live in the result cache:
each :class:`~repro.engine.result_cache.CachedResult` of an eligible
statement carries its reuse spec and plan shape, and the cache keeps
the **containment-family** index (see :mod:`repro.reuse.analysis`)
beside its store, under its own lock, so a probe only examines the
resident variants of its own statement shape.  An entry leaves the
index exactly when it leaves the store — eviction, version sweep,
explicit invalidation — so there is no second store to fall out of
step with the first.  :class:`ReuseRegistry` keeps what is left: the
probe/hit/miss/fallback counters and the ``stats()`` surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry, hit_ratio

if TYPE_CHECKING:
    from repro.engine.result_cache import (
        CachedResult, ResultCache, ResultKey)


#: A plan-family identity for digest tracking:
#: ``(canonical digest, catalog version, model name)``.
FamilyKey = tuple[str, int, str]


@dataclass
class FamilyDigest:
    """What one statement family's optimizations have shown so far."""

    #: Masked structural fingerprint every exemplar agreed on.
    fingerprint: str
    #: Distinct canonical parameter tuples optimized to ``fingerprint``.
    exemplars: set[tuple]
    #: Permanently literal-sensitive (fingerprint mismatch seen) or
    #: structurally unparameterizable — never promote again.
    demoted: bool = False


class FamilyDigestTracker:
    """Per-family evidence that literals don't steer plan choice.

    Generic-plan promotion (``engine/plan_cache.py``) asks one
    question: *have enough distinct literal tuples of this family
    optimized to the same literal-masked plan fingerprint?*  This
    tracker accumulates that evidence and remembers refusals.

    **Not thread-safe by design** — it holds no lock of its own and is
    mutated only under :class:`~repro.engine.plan_cache.PlanCache`'s
    lock (taking a second lock here would add an ordering edge to the
    engine's lock hierarchy for no benefit).
    """

    def __init__(self) -> None:
        self._families: dict[FamilyKey, FamilyDigest] = {}

    def observe(self, key: FamilyKey, fingerprint: str,
                parameters: tuple) -> int:
        """Record one full optimization's outcome for the family.

        Returns the number of distinct parameter tuples that have
        produced the family's (single) fingerprint, or ``-1`` when the
        family is demoted — either previously, or right now because
        ``fingerprint`` disagrees with the recorded one (the literals
        provably steer the optimizer, so the family may never serve a
        generic plan again at this catalog version).
        """
        record = self._families.get(key)
        if record is None:
            self._families[key] = FamilyDigest(
                fingerprint=fingerprint, exemplars={parameters})
            return 1
        if record.demoted:
            return -1
        if record.fingerprint != fingerprint:
            record.demoted = True
            record.exemplars.clear()
            return -1
        record.exemplars.add(parameters)
        return len(record.exemplars)

    def demote(self, key: FamilyKey) -> None:
        """Permanently bar the family from promotion (refusal path)."""
        record = self._families.get(key)
        if record is None:
            record = FamilyDigest(fingerprint="", exemplars=set())
            self._families[key] = record
        record.demoted = True
        record.exemplars.clear()

    def is_demoted(self, key: FamilyKey) -> bool:
        record = self._families.get(key)
        return record is not None and record.demoted

    def sweep_versions_before(self, version: int) -> None:
        """Drop records for older catalog versions (they can never be
        consulted again — the version is part of the key)."""
        stale = [key for key in self._families if key[1] < version]
        for key in stale:
            del self._families[key]


class ReuseRegistry:
    """Counters of the subsumption path over the result cache's family
    index."""

    def __init__(self, cache: ResultCache,
                 registry: MetricsRegistry | None = None) -> None:
        self._cache = cache
        metrics = registry if registry is not None else MetricsRegistry()
        self._registrations = metrics.counter(
            "reuse_registered_total",
            help="subsumption-eligible results indexed")
        self._probes = metrics.counter(
            "reuse_probes_total", help="containment-family probes")
        self._hits = metrics.counter(
            "reuse_hits_total", help="statements answered residually")
        self._misses = metrics.counter(
            "reuse_misses_total", help="probes with no containing entry")
        self._fallbacks = metrics.counter(
            "reuse_fallbacks_total",
            help="containment held but a guard forced normal execution")
        metrics.gauge("reuse_entries", fn=lambda: cache.reuse_entries,
                      help="indexed entries resident")
        metrics.gauge("reuse_families", fn=lambda: cache.reuse_families,
                      help="distinct containment families indexed")
        self._hit_ratio = metrics.gauge(
            "reuse_hit_ratio",
            fn=lambda: hit_ratio(
                self._hits.value, self._probes.value - self._hits.value),
            help="hits / probes; 0.0 before any probe")

    def candidates(self, family: str) -> list[
            tuple[ResultKey, CachedResult]]:
        """The family's resident entries, most recently stored first."""
        self._probes.inc()
        return self._cache.reuse_candidates(family)

    def record_registration(self) -> None:
        self._registrations.inc()

    def record_hit(self) -> None:
        self._hits.inc()

    def record_miss(self) -> None:
        self._misses.inc()

    def record_fallback(self) -> None:
        self._fallbacks.inc()

    def stats(self) -> dict[str, float]:
        """Counters for ``server.metrics()["reuse"]``, read from the
        registered instruments and the result cache's family index."""
        return {
            "registered": self._registrations.value,
            "probes": self._probes.value,
            "hits": self._hits.value,
            "misses": self._misses.value,
            "hit_rate": self._hit_ratio.value,
            # containment held but a tie guard (or a failed residual
            # derivation) forced normal execution
            "fallbacks": self._fallbacks.value,
            "entries": self._cache.reuse_entries,
            "families": self._cache.reuse_families,
        }
