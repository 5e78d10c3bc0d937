"""Cross-statement result cache: repeated statements skip execution.

The plan cache (PR 3) made a repeated statement skip the frontend —
lexer, parser, binder, optimizer — but every hit still re-executed the
full operator tree, so the expensive part of a repeated semantic join
was paid on every repetition.  This cache closes that gap: a statement
whose **canonical identity and inputs** are unchanged returns a
defensive snapshot of the previous result and executes nothing.

Key structure (:class:`ResultKey`) — everything a result is a pure
function of:

- **canonical digest + literal tuple** — the statement's identity under
  :mod:`repro.engine.sql.canonical`: whitespace, keyword case, and
  formatting differences share one entry; a different literal is a
  different result and misses;
- **catalog version** — the same signal the plan cache keys on: any
  ``register_table``/``drop``/statistics refresh bumps it, so results
  computed over old contents simply stop matching;
- **default model name** — unqualified semantic operators bind through
  it, exactly as in the plan-cache key;
- **arena generations** — one ``(model, generation)`` pair per model
  the plan embeds with.  ``EngineServer.invalidate_model`` (or any
  ``EmbeddingCache.clear``) refreshes the generation token, so results
  that involved a since-invalidated model never serve again — the
  signal a model *replacement* needs, which the catalog version cannot
  see;
- **table data versions** — one ``(table, data_version)`` pair per
  table the plan scans.  Appends/upserts bump only this dimension
  (``docs/ingest.md``), so a row mutation invalidates — or lets the
  ingest subsystem delta-patch — exactly the entries that read the
  mutated table, while every other entry keeps serving.

Invalidation is **versioned and lazy**, mirroring
:mod:`repro.engine.plan_cache`: nothing is evicted at mutation time;
stale entries stop matching immediately (their key embeds the old
version/generation) and are swept out of the byte budget the next time
a put observes a newer version or a retired arena generation.

**Snapshot semantics.**  The cache never shares array storage with
callers in either direction: ``put`` stores a deep column-copy of the
result (unless the caller hands over arrays nobody else holds,
``owned=True``), and ``get`` returns a fresh deep copy per hit.  A
caller that mutates a returned table (or the original result it handed
in) can therefore never poison later hits — the regression tests
mutate a hit in place and re-fetch.

**Budgeting** is by *estimated result bytes*, not entry count: results
range from one aggregate row to a large join, so an LRU over counts
would let a handful of giant results squat.  The store is a
byte-budgeted :class:`~repro.utils.store.LRUStore`.  An entry larger
than the whole budget is not cached at all (``oversize_skips``).

**One record for both derivation paths.**  A :class:`CachedResult`
carries the optimized plan that produced its snapshot — the ingest
maintainer re-executes it over an append's delta — and, for a
subsumption-eligible statement, the reuse spec and plan shape the
containment matcher compares.  Eligible entries are also listed in a
**family index** (containment family -> keys, most recently stored
last) kept under the same lock and updated wherever an entry enters or
leaves the store — put, LRU eviction, stale sweep,
:meth:`ResultCache.advance_table_version`, :meth:`ResultCache.invalidate`
— so a subsumption probe examines exactly the resident variants of its
own statement shape, never a dead or evicted one.

Generation capture discipline: the key is built **before** execution
(at lookup time) and the same key is used for the post-execution
``put``.  An invalidation that lands mid-execution therefore leaves the
entry stored under the *pre*-invalidation generation, where it can
never match a later lookup — the same "captured before, aged out after"
pattern ``plan_for`` uses for mid-flight statistics bumps.  The cost is
one extra miss for the first statement that lazily creates a model's
arena (its pre-execution key carries the ``-1`` "no arena yet" sentinel
and is refused dead-on-arrival); the second execution stores under the
live generation and the third hits, analogous to the two-pass
statistics warm-up.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.obs.metrics import MetricsRegistry, hit_ratio
from repro.semantic.cache import RETIRED_GENERATIONS
from repro.storage.table import Table
from repro.utils.store import LRUStore

if TYPE_CHECKING:
    from repro.relational.logical import LogicalPlan
    from repro.reuse.analysis import PlanShape, ReuseSpec

#: Default byte budget for cached result snapshots (64 MiB).
DEFAULT_RESULT_CACHE_BYTES = 64 * 1024 * 1024


class ResultKey(NamedTuple):
    """Everything a statement's result is a pure function of."""

    #: Canonical-template digest (statement family).
    digest: str
    #: Concrete literal tuple, in template order.
    parameters: tuple[object, ...]
    #: Catalog version the statement was planned under.
    catalog_version: int
    #: Default model name the statement was bound with.
    model_name: str
    #: Sorted ``(model, EmbeddingCache.generation)`` per plan model;
    #: ``-1`` marks a model whose arena does not exist yet.
    arena_generations: tuple[tuple[str, int], ...]
    #: Sorted ``(table, Catalog.data_version)`` per table the plan
    #: scans.  Appends/upserts bump only this dimension — not the
    #: catalog version — so the ingest subsystem can invalidate (or
    #: delta-patch) exactly the entries that read the mutated table
    #: while everything else keeps serving.  Defaults to ``()`` for
    #: callers outside the ingest-aware key builder.
    table_versions: tuple[tuple[str, int], ...] = ()


def strip_columns(table: Table, names: tuple[str, ...]) -> Table:
    """``table`` without the ``names`` columns (arrays shared, not
    copied — callers copy when they need isolation)."""
    if not names:
        return table
    drop = set(names)
    from repro.storage.schema import Schema

    fields = [field_ for field_ in table.schema.fields
              if field_.name not in drop]
    return Table(Schema(fields),
                 {field_.name: table.columns[field_.name]
                  for field_ in fields})


@dataclass(frozen=True)
class CachedResult:
    """One cached result snapshot and the record both derivation paths
    read.

    ``plan`` is the optimized plan that produced ``table`` (on a
    generic serve, the bound template): the ingest maintainer
    re-executes it over an append's delta.  ``reuse`` and ``shape`` are
    set for a subsumption-eligible statement; ``table`` then embeds the
    spec's aux columns (per-row semantic scores / top-k ranks), which
    :meth:`ResultCache.get` strips from every exact hit, while the
    subsumption path reads the full snapshot.  ``partial`` is the
    per-group state an AVG aggregate is delta-maintained from (see
    :func:`repro.ingest.delta.merge_partial`); only the ingest
    maintainer sets or reads it.
    """

    table: Table          # private snapshot; never handed out directly
    plan: LogicalPlan | None = None
    reuse: ReuseSpec | None = None
    shape: PlanShape | None = None
    partial: Table | None = None

    @property
    def aux_names(self) -> tuple[str, ...]:
        return self.reuse.aux_columns if self.reuse is not None else ()


class ResultCache:
    """Byte-budgeted LRU of result snapshots keyed by :class:`ResultKey`.

    Thread-safe: one leaf mutex guards the store, the family index and
    the counters; snapshot copies happen outside the lock (a
    :class:`CachedResult` is immutable once stored, so a concurrent
    eviction only drops the dict reference, never the data a hit is
    copying).
    """

    def __init__(self, max_bytes: int = DEFAULT_RESULT_CACHE_BYTES,
                 registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self._store: LRUStore[ResultKey, CachedResult] = LRUStore(max_bytes)
        #: containment family -> its reuse-eligible resident entries,
        #: most recently stored last; holds exactly the store's
        #: eligible entries (see _index_locked / _unindex_locked)
        self._families: dict[str, dict[ResultKey, CachedResult]] = {}
        self._reuse_entries = 0
        registry = registry if registry is not None else MetricsRegistry()
        self._hits = registry.counter(
            "result_cache_hits_total", help="exact result-snapshot hits")
        self._misses = registry.counter(
            "result_cache_misses_total", help="exact result-snapshot misses")
        self._puts = registry.counter(
            "result_cache_puts_total", help="snapshots stored")
        self._evictions = registry.counter(
            "result_cache_evictions_total", help="byte-budget LRU evictions")
        self._stale_evictions = registry.counter(
            "result_cache_stale_evictions_total",
            help="version/generation-dead entries swept")
        self._invalidations = registry.counter(
            "result_cache_invalidations_total",
            help="entries dropped by explicit invalidate()")
        self._oversize_skips = registry.counter(
            "result_cache_oversize_skips_total",
            help="results larger than the whole byte budget, not cached")
        self._reuse_fetches = registry.counter(
            "result_cache_reuse_fetches_total",
            help="full-snapshot reads by the subsumption path")
        registry.gauge("result_cache_entries", fn=lambda: len(self._store),
                       help="cached result snapshots resident")
        registry.gauge("result_cache_bytes", fn=lambda: self._store.used,
                       help="estimated resident snapshot bytes")
        self._hit_ratio = registry.gauge(
            "result_cache_hit_ratio",
            fn=lambda: hit_ratio(self._hits.value, self._misses.value),
            help="exact hits / probes; 0.0 before any probe")
        self._newest_version = -1
        #: per-table data_version watermark (ingest bumps)
        self._newest_table_versions: dict[str, int] = {}
        # size of RETIRED_GENERATIONS at the last sweep: the set only
        # grows, so an unchanged size means no new retirements to scan
        self._retired_seen = 0

    @property
    def max_bytes(self) -> int:
        return self._store.budget

    # -- lookups --------------------------------------------------------
    def get(self, key: ResultKey) -> Table | None:
        """A fresh snapshot of the cached result for ``key``, or ``None``.

        Every hit returns its own copy: mutating it cannot poison the
        cache or any other caller's hit.  Reuse aux columns embedded in
        the stored snapshot are stripped — callers see exactly what
        unaugmented execution would have produced.
        """
        with self._lock:
            entry = self._store.get(key)
            if entry is None:
                self._misses.inc()
                return None
            self._hits.inc()
        return strip_columns(entry.table, entry.aux_names).copy()

    def get_full(self, key: ResultKey) -> Table | None:
        """The raw stored snapshot, aux columns included — the
        subsumption path's read of the candidate it proved containing.

        Counted separately from exact hits/misses (``reuse_fetches``)
        so hit-rate telemetry keeps meaning "exact repeats".  The
        returned table is the *internal* snapshot: it is immutable once
        stored, and the residual executor only builds fresh arrays from
        it, never mutates it.
        """
        with self._lock:
            entry = self._store.get(key)
            if entry is None:
                return None
            self._reuse_fetches.inc()
            return entry.table

    def reuse_candidates(self, family: str) -> list[
            tuple[ResultKey, CachedResult]]:
        """The family's resident reuse-eligible entries, most recently
        stored first (internal records; callers must not mutate their
        tables)."""
        with self._lock:
            bucket = self._families.get(family)
            return list(reversed(bucket.items())) if bucket else []

    # -- population -----------------------------------------------------
    def put(self, key: ResultKey, table: Table,
            plan: LogicalPlan | None = None,
            reuse: ReuseSpec | None = None, shape: PlanShape | None = None,
            owned: bool = False, partial: Table | None = None) -> bool:
        """Store a snapshot of ``table`` under ``key``, recording the
        ``plan`` that produced it and, for a subsumption-eligible
        statement, its ``reuse`` spec and plan ``shape``.  A ``partial``
        (delta-maintenance state) is stored beside it, and its bytes
        count toward the entry's size.

        Returns ``False`` (and caches nothing) when the key is already
        dead on arrival — below the observed version/generation
        watermark or carrying the ``-1`` sentinel, e.g. an invalidation
        landed while the query ran — so a never-matchable entry cannot
        evict live ones, or when the result alone exceeds the byte
        budget.  The gates run cheapest-first: the key-only refusal
        costs no table scan, and the byte estimate runs before the
        defensive copy, so no rejected put pays a memcpy.  Storing
        sweeps entries that can never match again, then evicts LRU
        entries until the budget holds.

        ``owned=True`` transfers ownership of ``table``'s arrays to the
        cache instead of snapshotting them — the residual executor's
        path, whose output shares storage with nothing, and the ingest
        maintainer's, whose patched table shares storage only with the
        entry the append's watermark just retired.  The caller must
        hand out no other reference.  The same holds for ``partial``.
        The entry's size is the tables' memoized
        :meth:`~repro.storage.table.Table.estimated_bytes`, which a
        table grown by ``Table.append`` carries forward.
        """
        with self._lock:
            self._sweep_stale_locked(key)
            if self._dead_on_arrival_locked(key):
                return False
        nbytes = table.estimated_bytes()
        if partial is not None:
            nbytes += partial.estimated_bytes()
        if nbytes > self.max_bytes:
            self._oversize_skips.inc()
            return False
        if not owned:
            table = table.copy()
            partial = None if partial is None else partial.copy()
        entry = CachedResult(table, plan, reuse, shape, partial)
        with self._lock:
            # re-check: the watermark may have advanced while copying
            if self._dead_on_arrival_locked(key):
                return False
            replaced = self._store.pop(key)
            if replaced is not None:
                self._unindex_locked(key, replaced)
            evicted = self._store.put(key, entry, nbytes)
            self._index_locked(key, entry)
            for old_key, old_entry in evicted:
                self._unindex_locked(old_key, old_entry)
            self._puts.inc()
            self._evictions.inc(len(evicted))
            return True

    # -- maintenance ----------------------------------------------------
    def advance_table_version(self, name: str, data_version: int) -> int:
        """Raise the per-table data_version watermark and sweep.

        The ingest subsystem's targeted invalidation: every entry whose
        key reads ``name`` at a version below ``data_version`` can never
        match again (probe keys now carry the new version) and is
        dropped immediately instead of squatting in the byte budget
        until the next lazy sweep.  Entries that never read ``name`` are
        untouched — the precision that blanket catalog-version bumps
        cannot offer.  Returns the number of entries dropped.
        """
        with self._lock:
            if data_version <= self._newest_table_versions.get(name, -1):
                return 0
            self._newest_table_versions[name] = data_version
            return self._drop_dead_locked()

    def entries_for_table(self, name: str) -> list[
            tuple[ResultKey, CachedResult]]:
        """Live entries whose key reads table ``name`` — the delta
        maintainer's scan.

        Returns the *internal* records (immutable once stored, like
        :meth:`get_full`'s snapshot); callers build fresh patched
        tables from them and must never mutate them.
        """
        with self._lock:
            return [(key, entry) for key, entry in self._store.items()
                    if any(table == name
                           for table, _ in key.table_versions)]

    def invalidate(self) -> int:
        """Drop every cached result; returns the number dropped."""
        with self._lock:
            dropped = self._store.clear()
            self._families.clear()
            self._reuse_entries = 0
            self._invalidations.inc(dropped)
            return dropped

    def stats(self) -> dict[str, float]:
        """Counters for ``server.metrics()["result_cache"]``, read from
        the registered instruments."""
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
            "hit_rate": self._hit_ratio.value,
            "puts": self._puts.value,
            "evictions": self._evictions.value,
            "stale_evictions": self._stale_evictions.value,
            "invalidations": self._invalidations.value,
            "oversize_skips": self._oversize_skips.value,
            "reuse_fetches": self._reuse_fetches.value,
            "entries": len(self._store),
            "bytes": self._store.used,
            "max_bytes": self.max_bytes,
        }

    @property
    def reuse_entries(self) -> int:
        """Reuse-eligible entries resident (the family index's size)."""
        return self._reuse_entries

    @property
    def reuse_families(self) -> int:
        """Distinct containment families among the resident entries."""
        return len(self._families)

    @property
    def bytes_used(self) -> int:
        return self._store.used

    def __len__(self) -> int:
        return len(self._store)

    # -- internals ------------------------------------------------------
    def _index_locked(self, key: ResultKey, entry: CachedResult) -> None:
        if entry.reuse is not None:
            self._families.setdefault(entry.reuse.family, {})[key] = entry
            self._reuse_entries += 1

    def _unindex_locked(self, key: ResultKey, entry: CachedResult) -> None:
        if entry.reuse is not None:
            bucket = self._families[entry.reuse.family]
            del bucket[key]
            self._reuse_entries -= 1
            if not bucket:
                del self._families[entry.reuse.family]

    def _dead_on_arrival_locked(self, key: ResultKey) -> bool:
        """True when ``key`` can never match a future lookup: it sits
        below the version/generation watermark (an invalidation landed
        while the query ran), references a retired arena, or carries the
        ``-1`` "no arena yet" sentinel (the arena was created during the
        very execution that produced this result, so every later lookup
        carries the real generation)."""
        return (key.catalog_version < self._newest_version
                or any(generation == -1 or generation in RETIRED_GENERATIONS
                       for _, generation in key.arena_generations)
                or any(version < self._newest_table_versions.get(name, -1)
                       for name, version in key.table_versions))

    def _sweep_stale_locked(self, key: ResultKey) -> None:
        """Drop entries that can never hit again.

        Catalog versions and table data versions are monotonic, so
        anything below the newest observed value is dead; an arena
        generation in :data:`RETIRED_GENERATIONS` (cleared or collected
        cache) is dead regardless of ordering.
        """
        advanced = False
        if key.catalog_version > self._newest_version:
            self._newest_version = key.catalog_version
            advanced = True
        for name, version in key.table_versions:
            if version > self._newest_table_versions.get(name, -1):
                self._newest_table_versions[name] = version
                advanced = True
        if len(RETIRED_GENERATIONS) != self._retired_seen:
            self._retired_seen = len(RETIRED_GENERATIONS)
            advanced = True
        if advanced:
            self._drop_dead_locked()

    def _drop_dead_locked(self) -> int:
        dead = [(key, entry) for key, entry in self._store.items()
                if self._dead_on_arrival_locked(key)]
        for key, entry in dead:
            self._store.pop(key)
            self._unindex_locked(key, entry)
        self._stale_evictions.inc(len(dead))
        return len(dead)
