"""Session-level vector index cache, keyed by arena row-id sets.

§V: model-side "index structures for expediting operations such as
similarity or top-k searches ... have to be included in the optimization
process equally as relational data indexes are."  Relational indexes are
*persistent* and amortized across queries; this cache gives semantic
operators the same property — an index built over a (model, row-id set)
pair is reused by every later query in the session, so the cost model can
amortize build cost exactly as it does for B-trees.

Identity is the **sorted set of arena row ids** backing the indexed
embeddings, digested with BLAKE2b.  Row ids come from the arena-backed
:class:`~repro.semantic.cache.EmbeddingCache`, where each distinct
normalized string has exactly one stable id, so:

- lookups never re-hash string values (fingerprinting is one ``np.unique``
  over ints plus one digest of the id bytes);
- duplicate multiplicity and value order cannot cause spurious misses
  (the id set is identical);
- distinct value sets cannot collide (distinct id sets produce distinct
  digests — unlike the earlier XOR-of-string-hashes scheme, where any
  value appearing an even number of times cancelled out of the
  fingerprint entirely, e.g. ``["a", "a"]`` and ``["b", "b"]`` collided).

The cache key also includes the arena's ``generation`` — a globally
unique id-space token — so ids from a cleared (re-interned) arena, or
from a *different* :class:`EmbeddingCache` instance of the same model
(whose row ids number an unrelated string set), never alias.

Index-internal ids refer to positions in the **sorted unique row-id
order** the index was built over.  Callers that need to map probe results
back to their own value positions use :meth:`IndexCache.get_for_values`,
which returns that mapping explicitly (see
:func:`repro.semantic.join.expand_index_matches`) — the previous contract
("ids refer to first-appearance dedup order, callers must dedup the same
way") silently mispaired rows whenever a caller passed duplicates.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from repro.obs.metrics import MetricsRegistry, hit_ratio
from repro.semantic.cache import RETIRED_GENERATIONS, EmbeddingCache
from repro.utils.store import DEFAULT_BYTE_BUDGET, LRUStore, SingleFlight
from repro.vector.bruteforce import BruteForceIndex
from repro.vector.hnsw import HNSWIndex
from repro.vector.index import VectorIndex
from repro.vector.ivf import IVFFlatIndex
from repro.vector.lsh import LSHIndex

#: Index kind -> constructor taking a seed; shared with
#: :func:`repro.semantic.join.join_index`.
INDEX_FACTORIES = {
    "brute": lambda seed: BruteForceIndex(),
    "lsh": lambda seed: LSHIndex(seed=seed),
    "ivf": lambda seed: IVFFlatIndex(seed=seed),
    "hnsw": lambda seed: HNSWIndex(seed=seed),
}


def _digest_ids(unique_ids: np.ndarray) -> bytes:
    """Collision-resistant digest of a sorted ``int64`` id array.

    Order-insensitive by construction (input is sorted) and free of the
    XOR pair-cancellation failure mode: BLAKE2b over the raw id bytes.
    """
    return hashlib.blake2b(unique_ids.tobytes(), digest_size=16).digest()


class IndexCache:
    """Caches built vector indexes keyed by (model, kind, row-id set).

    **Byte-budgeted LRU** (:class:`~repro.utils.store.LRUStore`): an
    entry is sized as its indexed matrix, ``len(unique_ids) × dim × 4``
    bytes, and a build that would push the resident total past
    ``max_bytes`` evicts least-recently-used indexes first (an index
    larger than the whole budget is used once and not kept).  Evicting
    an ingest predecessor only turns the next extension back into a
    full build over the same rows.

    Thread-safe with **single-flight builds**
    (:class:`~repro.utils.store.SingleFlight`): when N threads miss on
    the same key concurrently, exactly one builds the index while the
    other N-1 wait and then hit the finished entry (counted in
    ``single_flight_waits``, and as hits — they were served without
    building).  ``builds`` counts actual index constructions, so under
    any concurrency a duplicate build is a bug the stress tests assert
    against.  If a build fails, one waiter is promoted to builder and
    retries — an exception never wedges the key.
    """

    def __init__(self, seed: int = 0,
                 max_bytes: int = DEFAULT_BYTE_BUDGET) -> None:
        self._seed = seed
        #: Monotonic id-space token for consumers that cache *derived*
        #: artifacts (the cross-statement result cache keys on it):
        #: ``clear()`` bumps it, so anything computed against the dropped
        #: indexes lazily stops matching.
        self.generation = 0
        self._lock = threading.Lock()
        self._store: LRUStore[tuple, VectorIndex] = LRUStore(max_bytes)
        self._flight: SingleFlight[tuple, VectorIndex] = SingleFlight()
        #: (model, kind, arena generation) -> (key, unique_ids) of the most
        #: recently built index for that stream.  When a later miss's id set
        #: extends that one as a *sorted prefix* — exactly what an arena
        #: append produces, since new strings intern above the old max id —
        #: the new index is grown from the old one instead of rebuilt.
        self._latest: dict[tuple, tuple[tuple, np.ndarray]] = {}
        #: Plain ints behind the registry's callback gauges (``clear()``
        #: resets them in place).  ``builds`` counts every construction —
        #: an ``incremental_extends`` one included.
        self._counts = dict.fromkeys(
            ("hits", "misses", "builds", "incremental_extends",
             "single_flight_waits", "evictions"), 0)

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Expose the cache's counters as callback gauges."""
        counts = self._counts                  # clear() resets in place
        registry.gauge("index_cache_hits", fn=lambda: counts["hits"],
                       help="vector-index cache hits")
        registry.gauge("index_cache_misses", fn=lambda: counts["misses"],
                       help="vector-index cache misses")
        registry.gauge("index_cache_builds", fn=lambda: counts["builds"],
                       help="actual index constructions")
        registry.gauge("index_cache_incremental_extends",
                       fn=lambda: counts["incremental_extends"],
                       help="index builds served by extending a predecessor")
        registry.gauge("index_cache_single_flight_waits",
                       fn=lambda: counts["single_flight_waits"],
                       help="misses coalesced onto another thread's build")
        registry.gauge("index_cache_evictions",
                       fn=lambda: counts["evictions"],
                       help="indexes dropped to hold the byte budget")
        registry.gauge("index_cache_entries", fn=lambda: len(self._store),
                       help="built vector indexes resident")
        registry.gauge("index_cache_generation", fn=lambda: self.generation,
                       help="monotonic clear() token")
        registry.gauge(
            "index_cache_hit_ratio",
            fn=lambda: hit_ratio(counts["hits"], counts["misses"]),
            help="hits / (hits + misses); 0.0 before any probe")

    def get_for_ids(self, kind: str, row_ids: np.ndarray,
                    cache: EmbeddingCache
                    ) -> tuple[VectorIndex, np.ndarray]:
        """A built index of ``kind`` over the distinct arena rows in
        ``row_ids`` (duplicates welcome), plus the sorted unique id array
        the index rows correspond to.

        ``index`` position ``q`` holds the embedding of arena row
        ``unique_ids[q]``; probe results are mapped back to arena rows
        (and from there to caller positions) through ``unique_ids``.
        Fingerprinting is pure id arithmetic — no value string is ever
        re-hashed.
        """
        self._check_kind(kind)
        unique_ids = np.unique(np.asarray(row_ids, dtype=np.int64))
        key = (cache.model.name, kind, cache.generation,
               int(unique_ids.shape[0]), _digest_ids(unique_ids))
        index, _ = self._flight.fill(
            key, lambda: self._probe(key),
            lambda: self._build(key, unique_ids, cache),
            on_wait=self._count_wait)
        return index, unique_ids

    def _probe(self, key: tuple) -> VectorIndex | None:
        with self._lock:
            index = self._store.get(key)
            if index is not None:
                self._counts["hits"] += 1
            return index

    def _count_wait(self) -> None:
        with self._lock:
            self._counts["single_flight_waits"] += 1

    def _build(self, key: tuple, unique_ids: np.ndarray,
               cache: EmbeddingCache) -> VectorIndex:
        kind, stream = key[1], key[:3]
        with self._lock:
            self._counts["misses"] += 1
            # evict retired-generation entries: a cleared arena's ids can
            # never hit again.  Only *retired* tokens qualify — entries of
            # a live sibling arena (another cache instance of this model
            # sharing this IndexCache) stay cached.
            self._store.drop_if(
                lambda stored, _: stored[2] in RETIRED_GENERATIONS)
            for tracked in [tracked for tracked in self._latest
                            if tracked[2] in RETIRED_GENERATIONS]:
                del self._latest[tracked]
            predecessor = self._latest.get(stream)
            previous = (self._store.peek(predecessor[0])
                        if predecessor is not None else None)
        index: VectorIndex | None = None
        if (predecessor is not None and previous is not None
                and previous.supports_incremental):
            old_n = int(predecessor[1].shape[0])
            if (0 < old_n < unique_ids.shape[0]
                    and np.array_equal(predecessor[1], unique_ids[:old_n])):
                # arena append: the new id set extends the old one as a
                # sorted prefix, so only the tail is embedded and
                # inserted — the old rows are never touched.
                index = previous.extended(cache.rows_for(unique_ids[old_n:]))
        extended = index is not None
        if index is None:
            index = INDEX_FACTORIES[kind](self._seed)
            index.build(cache.rows_for(unique_ids))
        nbytes = int(unique_ids.shape[0]) * cache.model.dim * 4
        with self._lock:
            self._counts["incremental_extends"] += extended
            self._counts["builds"] += 1
            self._counts["evictions"] += len(
                self._store.put(key, index, nbytes))
            self._latest[stream] = (key, unique_ids)
        return index

    def get_for_values(self, kind: str, values: list[str],
                       cache: EmbeddingCache
                       ) -> tuple[VectorIndex, np.ndarray]:
        """Index over the embeddings of ``values`` plus the explicit
        value-position -> index-id mapping.

        Returns ``(index, positions)`` where ``positions[v]`` is the
        index-internal id holding the embedding of ``values[v]``.
        Duplicate values — and distinct values that normalize to the same
        token — share an index id; use
        :func:`repro.semantic.join.expand_index_matches` to scatter probe
        matches back onto value positions.
        """
        self._check_kind(kind)   # before embedding anything
        row_ids = cache.row_ids(values)
        index, unique_ids = self.get_for_ids(kind, row_ids, cache)
        return index, np.searchsorted(unique_ids, row_ids)

    def get(self, kind: str, values: list[str],
            cache: EmbeddingCache) -> VectorIndex:
        """A built index of ``kind`` over the embeddings of ``values``.

        Compatibility entry point: identical caching behaviour to
        :meth:`get_for_values` but discards the position mapping.  Only
        use it when probe ids are not mapped back to ``values`` positions
        (the index's ids refer to the sorted unique arena row-id order,
        *not* to first-appearance order of ``values``).
        """
        index, _ = self.get_for_values(kind, values, cache)
        return index

    def _check_kind(self, kind: str) -> None:
        if kind not in INDEX_FACTORIES:
            from repro.errors import IndexError_

            raise IndexError_(
                f"unknown index kind {kind!r}; available: "
                f"{sorted(INDEX_FACTORIES)}"
            )

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._latest.clear()
            self.generation += 1
            self._counts.update(dict.fromkeys(self._counts, 0))

    def stats(self) -> dict[str, int]:
        """Counters for metrics/profiling (one consistent snapshot)."""
        with self._lock:
            return {**self._counts, "entries": len(self._store),
                    "bytes": self._store.used}

    def __len__(self) -> int:
        return len(self._store)
