"""Family-indexed registry of subsumption-eligible cached results.

The exact result cache keys on the full :class:`ResultKey` — probing it
for "any cached statement that *contains* this one" would be a full
scan.  The registry adds the missing index: entries bucket by
**containment family** (see :mod:`repro.reuse.analysis`), so a probe
only examines the handful of cached variants of its own statement
shape.

The registry stores no result data — just the spec/shape metadata the
matcher compares plus the :class:`ResultKey` under which the snapshot
lives in the result cache.  Invalidation therefore needs no events:

- a candidate whose key disagrees with the probe's freshly captured
  catalog version / model / index generation / arena generations can
  never be served and is dropped on sight (versions are monotonic);
- a candidate whose snapshot was evicted from the byte-budgeted result
  cache comes back empty on fetch and is dropped by the caller via
  :meth:`discard`.

Entries are LRU-bounded by count (a count-budgeted
:class:`~repro.utils.store.LRUStore` across all families); metadata is
tiny, so the bound exists to keep probes O(candidates-in-family) under
adversarial workloads rather than to save memory.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, hit_ratio
from repro.reuse.analysis import PlanShape, ReuseSpec
from repro.utils.store import LRUStore

#: Default bound on registered entries across all families.
DEFAULT_REGISTRY_CAPACITY = 1024

#: An ``engine.result_cache.ResultKey`` (kept structural here to avoid
#: importing the engine package from the reuse layer).
_EntryKey = tuple[object, ...]


@dataclass(frozen=True)
class ReuseEntry:
    """One subsumption-eligible cached result's matching metadata."""

    key: _EntryKey               # engine.result_cache.ResultKey
    spec: ReuseSpec
    shape: PlanShape
    #: Stored snapshot's row count (LIMIT-bite checks) and full column
    #: names (extra-predicate / projection resolvability checks).
    rows: int
    columns: tuple[str, ...]


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
    """Thread-safe family index over subsumption-eligible entries."""

    def __init__(self, capacity: int = DEFAULT_REGISTRY_CAPACITY,
                 registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        #: family digest -> (ResultKey -> ReuseEntry), oldest
        #: registration first
        self._families: dict[str, dict[_EntryKey, ReuseEntry]] = {}
        #: key -> family, LRU across all families for the capacity bound
        self._order: LRUStore[_EntryKey, str] = LRUStore(capacity)
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
        self._stale_drops = metrics.counter(
            "reuse_stale_drops_total",
            help="version-dead or evicted entries dropped on sight")
        metrics.gauge("reuse_entries", fn=lambda: len(self._order),
                      help="indexed entries resident")
        metrics.gauge("reuse_families", fn=lambda: len(self._families),
                      help="distinct containment families indexed")
        self._hit_ratio = metrics.gauge(
            "reuse_hit_ratio",
            fn=lambda: hit_ratio(
                self._hits.value, self._probes.value - self._hits.value),
            help="hits / probes; 0.0 before any probe")

    # -- population -----------------------------------------------------
    def register(self, entry: ReuseEntry) -> None:
        """Index ``entry`` (replacing any previous entry for its key)."""
        family = entry.spec.family
        with self._lock:
            bucket = self._families.setdefault(family, {})
            bucket.pop(entry.key, None)
            bucket[entry.key] = entry
            self._registrations.inc()
            for evicted in self._order.put(entry.key, family):
                self._drop_locked(*evicted)

    # -- probing --------------------------------------------------------
    def candidates(self, family: str) -> list[ReuseEntry]:
        """Snapshot of the family's entries, most recently used first."""
        with self._lock:
            self._probes.inc()
            bucket = self._families.get(family)
            if not bucket:
                return []
            return list(reversed(bucket.values()))

    def record_hit(self) -> None:
        self._hits.inc()

    def record_miss(self) -> None:
        self._misses.inc()

    def record_fallback(self) -> None:
        self._fallbacks.inc()

    # -- maintenance ----------------------------------------------------
    def discard(self, key: _EntryKey, stale: bool = False) -> None:
        """Drop one entry (evicted snapshot or version-dead key)."""
        with self._lock:
            family = self._order.pop(key)
            if family is None:
                return
            self._drop_locked(key, family)
            if stale:
                self._stale_drops.inc()

    def _drop_locked(self, key: _EntryKey, family: str) -> None:
        bucket = self._families.get(family)
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self._families[family]

    def clear(self) -> int:
        with self._lock:
            self._families.clear()
            return self._order.clear()

    def stats(self) -> dict[str, float]:
        """Counters for ``server.metrics()["reuse"]``, read from the
        registered instruments."""
        return {
            "registered": self._registrations.value,
            "probes": self._probes.value,
            "hits": self._hits.value,
            "misses": self._misses.value,
            "hit_rate": self._hit_ratio.value,
            # containment held but a tie guard (or an evicted snapshot)
            # forced normal execution
            "fallbacks": self._fallbacks.value,
            "stale_drops": self._stale_drops.value,
            "entries": len(self._order),
            "families": len(self._families),
        }
