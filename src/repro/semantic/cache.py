"""Arena-backed embedding cache / prefetcher.

The paper's Figure-4 "prefetch" rung: "since fastText produces a hash table
of known words, we can further try to optimize the amount of data access by
prefetching necessary data".  The cache embeds each distinct string once
and serves repeat requests from memory, tracking hit/miss counts so
experiments can attribute the win.

Storage is a single contiguous ``(capacity, dim)`` float32 **arena** that
grows by doubling.  Each distinct (normalized) string is interned to a
stable integer **row id** — its row in the arena — so:

- ``matrix(texts)`` is one id-resolution pass plus one fancy-index gather
  (``arena[ids]``), never a Python-level row-by-row rebuild;
- operators can hold ``row_ids`` and work entirely in id-space (ints
  and gathers) instead of re-hashing strings;
- the whole store is SIMD/BLAS-friendly: any subset of cached embeddings
  materializes as one contiguous-destination gather.

Row ids are stable for the lifetime of the cache (doubling copies rows,
it never reorders them); ``clear()`` invalidates all ids.

Concurrency
-----------
The cache is thread-safe under the serving layer's share-everything
model.  Reads that hit (``matrix``/``row_ids``/``rows_for`` over interned
strings) take a shared read lock and run concurrently; any call that
must embed takes the write lock, so growth, interning, and the embed
itself are exclusive — N threads missing on the same strings coalesce
into one embed (single-flight by serialization).

**Snapshot semantics.**  Arena growth is *publish-safe*: new rows are
written into the grown buffer **before** ``self._arena`` is rebound, so
no reader — including one holding an :attr:`arena` snapshot across a
concurrent ``embed_batch`` — can observe a partially initialized row.
A snapshot returned by :attr:`arena` is a read-only view pinned to the
buffer that backed the arena at call time: rows already in it are never
rewritten (the arena is append-only), appends past its length are
invisible to it, and a growth that swaps buffers leaves it intact but
*stale* (it keeps the old buffer alive; re-call :attr:`arena` for the
current rows).  ``matrix``/``rows_for``/``vector`` return fresh copies
and are immune to staleness entirely.
"""

from __future__ import annotations

import itertools
import threading
import weakref

import numpy as np

from repro.embeddings.model import EmbeddingModel
from repro.obs.metrics import MetricsRegistry, hit_ratio
from repro.utils.locks import RWLock
from repro.utils.text import normalize_token

#: Initial arena capacity (rows); doubled whenever the store outgrows it.
INITIAL_CAPACITY = 256

#: Process-wide id-space token source: every cache instance — and every
#: ``clear()`` — draws a fresh token, so row ids from different arenas
#: (or different lifetimes of one arena) can never alias each other in
#: consumers that fingerprint on ids.
_GENERATIONS = itertools.count()

#: Generation tokens whose id-space is gone for good — ``clear()`` was
#: called, or the owning cache was garbage-collected.  Consumers keying
#: on generations (the result cache) may evict entries under these
#: tokens, and only these: a token absent from this set may belong to a live
#: sibling arena of the same model.  The set holds bare ints and grows
#: only with clear()/instance counts, so it stays negligible.
RETIRED_GENERATIONS: set[int] = set()


class EmbeddingCache:
    """Per-model arena of unit embeddings, interned by normalized string.

    Hit/miss accounting: a string's *first* embedding in the session is
    one miss; every later request for it (including later positions of
    the same ``matrix``/``row_ids`` call) is one hit.  ``prefetch`` is a
    pure warm-up: it records misses for new strings but no hits.
    """

    def __init__(self, model: EmbeddingModel,
                 initial_capacity: int = INITIAL_CAPACITY):
        self.model = model
        self._ids: dict[str, int] = {}
        self._arena = np.empty((max(1, initial_capacity), model.dim),
                               dtype=np.float32)
        self.hits = 0
        self.misses = 0
        #: Readers (all-hit resolves, gathers) share; embeds/growth/clear
        #: are exclusive.  See the module docstring for the full model.
        self._lock = RWLock()
        #: Leaf mutex for the hit/miss counters (readers on the shared
        #: path still mutate them; ``+=`` on attributes is not atomic).
        self._stats_lock = threading.Lock()
        #: Globally unique id-space token, refreshed by clear().
        #: Consumers that key on it (the result cache) never confuse a
        #: cleared arena — or a *different cache instance* of the same
        #: model, whose row ids number an unrelated string set — with
        #: this one.
        self.generation = next(_GENERATIONS)
        # retire the token when this cache is dropped without clear(),
        # so results keyed on it don't squat in the cache for the
        # process lifetime
        self._retire = weakref.finalize(self, RETIRED_GENERATIONS.add,
                                        self.generation)

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def rows(self) -> int:
        """Number of interned strings (== rows in use)."""
        return len(self._ids)

    @property
    def capacity(self) -> int:
        """Allocated arena rows."""
        return int(self._arena.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes of arena actually in use."""
        return self.rows * int(self._arena.shape[1]) * 4

    @property
    def hit_rate(self) -> float:
        return hit_ratio(self.hits, self.misses)

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Expose arena counters as per-model callback gauges.

        The counters stay plain ints (``clear()`` resets them; the
        prefetch experiments read them directly), so the registry
        observes them through read-time callbacks.  Idempotent: when a
        cache for the same model is rebuilt, registration re-binds the
        existing gauges to the new instance.
        """
        labels = {"model": self.model.name}
        registry.gauge("embedding_arena_hits", fn=lambda: self.hits,
                       labels=labels, help="embedding cache hits")
        registry.gauge("embedding_arena_misses", fn=lambda: self.misses,
                       labels=labels, help="embedding cache misses")
        registry.gauge("embedding_arena_rows", fn=lambda: self.rows,
                       labels=labels, help="interned strings (arena rows)")
        registry.gauge("embedding_arena_bytes", fn=lambda: self.nbytes,
                       labels=labels, help="arena bytes in use")
        registry.gauge(
            "embedding_arena_hit_ratio",
            fn=lambda: hit_ratio(self.hits, self.misses),
            labels=labels,
            help="hits / (hits + misses); 0.0 before any probe")

    # ------------------------------------------------------------------
    # Id-space API
    # ------------------------------------------------------------------
    def row_ids(self, texts) -> np.ndarray:
        """Arena row ids for ``texts``, embedding unseen strings once.

        The returned ``int64`` ids stay valid for the cache's lifetime;
        ``arena[ids]`` (or :meth:`rows_for`) gathers the vectors.
        """
        ids, new_count = self._resolve(texts)
        self._count(hits=int(ids.shape[0]) - new_count, misses=new_count)
        return ids

    def rows_for(self, ids: np.ndarray) -> np.ndarray:
        """Gather arena rows for previously resolved ids (one fancy index).

        Lock-free by design: the buffer reference is grabbed once, and
        publish-safe growth guarantees any published id's row is fully
        written in every buffer published at or after the id was handed
        out.  The gather returns a copy, never a live view.
        """
        return self._arena[ids]

    @property
    def arena(self) -> np.ndarray:
        """Read-only **snapshot** of the filled arena (row id == row index).

        The view is pinned to the buffer current at call time: it never
        mutates (rows are append-only and growth swaps to a new buffer),
        but it also never grows — concurrent ``embed_batch`` calls leave
        it stale, not torn.  Re-read the property for a fresh snapshot.
        """
        rows = self.rows
        view = self._arena[:rows]
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # String-space API (compatible with the seed cache)
    # ------------------------------------------------------------------
    def vector(self, text: str) -> np.ndarray:
        """Embedding of one string, cached.

        Returns a copy (like ``matrix``): handing out a live arena view
        would let callers corrupt cached rows, or see them change after
        ``clear()`` re-interns the row.
        """
        ids, new_count = self._resolve([text])
        self._count(hits=1 - new_count, misses=new_count)
        return self._arena[int(ids[0])].copy()

    def prefetch(self, texts) -> None:
        """Bulk-embed every distinct string not yet cached."""
        _, new_count = self._resolve(texts)
        self._count(hits=0, misses=new_count)

    def matrix(self, texts) -> np.ndarray:
        """Contiguous ``(n, dim)`` float32 matrix for ``texts``.

        Strings embedded by this very call count once, as misses — not as
        misses *and* hits, which would inflate the hit rate the Figure-4
        prefetch experiment reports.
        """
        ids, new_count = self._resolve(texts)
        self._count(hits=int(ids.shape[0]) - new_count, misses=new_count)
        return self._arena[ids]

    def stats(self) -> dict:
        """Arena statistics for metrics/profiling."""
        return {
            "rows": self.rows,
            "capacity": self.capacity,
            "bytes": self.nbytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> None:
        """Drop every cached row (invalidates previously returned ids)."""
        with self._lock.write():
            self._ids = {}
            # rebind a FRESH buffer: post-clear embeds restart at row 0,
            # and writing them into the old buffer would rewrite rows a
            # pre-clear snapshot/gather still aliases — the torn read
            # the publish-safety contract rules out
            self._arena = np.empty_like(self._arena)
            with self._stats_lock:
                self.hits = 0
                self.misses = 0
            RETIRED_GENERATIONS.add(self.generation)
            self._retire.detach()
            self.generation = next(_GENERATIONS)
            self._retire = weakref.finalize(self, RETIRED_GENERATIONS.add,
                                            self.generation)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _count(self, hits: int, misses: int) -> None:
        with self._stats_lock:
            self.hits += hits
            self.misses += misses

    def _resolve(self, texts) -> tuple[np.ndarray, int]:
        """Intern every text; returns (row ids, count of newly added).

        Fast path: if every token is already interned, the resolve runs
        under the shared read lock and embeds nothing, so concurrent
        hits never serialize.  Otherwise the write lock is taken and the
        resolve re-runs exclusively — tokens interned by a racing thread
        in the window between the two passes are simply hits on retry,
        which is what makes concurrent misses on the same strings embed
        once (single-flight by serialization).
        """
        if not hasattr(texts, "__len__"):
            texts = list(texts)   # accept generators, like the seed cache
        tokens = [normalize_token(text) for text in texts]
        with self._lock.read():
            known = self._ids
            ids = np.empty(len(tokens), dtype=np.int64)
            for position, token in enumerate(tokens):
                row = known.get(token)
                if row is None:
                    break
                ids[position] = row
            else:
                return ids, 0
        with self._lock.write():
            return self._resolve_exclusive(tokens)

    def _resolve_exclusive(self, tokens: list[str]) -> tuple[np.ndarray, int]:
        """The write-locked resolve: intern and embed whatever is missing.

        New tokens are committed to ``_ids`` only *after* their batch
        embed succeeds: if ``embed_batch`` raises (transient OOM, a user
        model's validation error) and the caller retries, the retry must
        re-embed — not "hit" interned ids pointing at uninitialized
        arena rows.
        """
        known = self._ids
        base = len(known)
        ids = np.empty(len(tokens), dtype=np.int64)
        new_tokens: list[str] = []
        new_ids: dict[str, int] = {}
        for position, token in enumerate(tokens):
            row = known.get(token)
            if row is None:
                row = new_ids.get(token)
                if row is None:
                    row = base + len(new_tokens)
                    new_ids[token] = row
                    new_tokens.append(token)
            ids[position] = row
        if new_tokens:
            self._append(new_tokens, base)
            known.update(new_ids)
        return ids, len(new_tokens)

    def _append(self, tokens: list[str], start: int) -> None:
        """Embed ``tokens`` in one batch into arena rows ``[start, ...)``.

        Embeds *before* touching the arena so a failure leaves the cache
        exactly as it was (growth alone would be harmless — it only
        raises capacity).

        Growth is **publish-safe**: the grown buffer is fully written —
        old rows copied, new rows stored — *before* ``self._arena`` is
        rebound, so a lock-free reader gathering through the attribute
        sees either the old buffer (complete for every published id) or
        the new one (also complete), never a half-initialized row.  The
        no-growth branch writes only rows ``>= start``, which no
        published id or snapshot can reference yet.
        """
        rows = self.model.embed_batch(tokens)
        needed = start + len(tokens)
        if needed > self._arena.shape[0]:
            capacity = int(self._arena.shape[0])
            while capacity < needed:
                capacity *= 2
            grown = np.empty((capacity, self._arena.shape[1]),
                             dtype=np.float32)
            grown[:start] = self._arena[:start]
            grown[start:needed] = rows
            self._arena = grown
        else:
            self._arena[start:needed] = rows
