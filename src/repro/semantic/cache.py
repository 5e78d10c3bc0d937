"""Arena-backed embedding cache / prefetcher.

The paper's Figure-4 "prefetch" rung: "since fastText produces a hash table
of known words, we can further try to optimize the amount of data access by
prefetching necessary data".  The cache embeds each distinct string once
and serves repeat requests from memory, tracking hit/miss counts so
experiments can attribute the win.

Storage is a single contiguous ``(capacity, dim)`` float32 **arena**.
Each distinct (normalized) string is interned to an integer **row id**
— its row in the arena — so ``matrix(texts)`` is one id-resolution pass
plus one fancy-index gather (``arena[ids]``), never a Python-level
row-by-row rebuild, and any subset of cached embeddings materializes as
one contiguous-destination gather.

Bounded by reuse
----------------
The arena keeps only strings that are asked for again.  When an embed
would overflow the buffer, the arena **compacts** instead of growing:
the rows hit since the last compaction, plus the rows the current call
needs, are copied (in row order) into a fresh buffer, the string index
is rebuilt from those survivors, and every other row is dropped.  The
fresh buffer keeps the old capacity, doubled while it cannot hold twice
the survivors plus the incoming strings: at least half of it is free
afterwards, so each compaction's copy is paid for by as many fresh
rows, as a doubling growth's is, and no size setting is needed.  A
workload whose strings never repeat (the cold similarity joins) so
holds at most one buffer's worth of strings instead of every string it
ever embedded, and touches the fresh buffer's pages only as it refills
them; one whose strings all repeat keeps them all and grows by
doubling.

An evicted string that comes back is embedded again, to the same bits —
the model embeds a token the same way in any batch — so eviction changes
what is cached, never an answer.

Row ids
-------
A row id indexes the buffer it was resolved against and is valid until
the next compaction or ``clear()``, which renumber the rows.  So ids do
not travel alone: :meth:`lookup` returns them with the buffer captured
under the same lock that resolved them, and ``matrix``/``vector`` gather
from that captured buffer.  :meth:`row_ids` returns bare ids for
inspection; ids from two calls name the same rows only when no
compaction ran in between.

:attr:`generation` names this arena's identity (one model, one
lifetime), not its row numbering: a compaction keeps it and only
``clear()`` draws a new one, so results keyed on it survive compaction
— their vectors are re-embedded bit-identically if evicted.

Concurrency
-----------
The cache is thread-safe under the serving layer's share-everything
model.  Resolves that hit take a shared read lock and run concurrently;
any call that must embed takes the write lock, so embedding, interning
and compaction are exclusive — N threads missing on the same strings
coalesce into one embed (single-flight by serialization).

**Publish safety.**  No buffer is ever written at a row a handed-out id
or snapshot can reference: an append writes only rows past every
published id, and a compaction (like ``clear()``) fills a *fresh* buffer
completely before rebinding ``self._arena``.  So a buffer captured with
its ids — by :meth:`lookup`, or the :attr:`arena` snapshot — stays
exact after the lock is released: a later compaction leaves it stale
(it keeps the old buffer alive) but never torn.  ``matrix``/``vector``
return fresh copies and are immune to staleness entirely.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import NamedTuple

import numpy as np

from repro.embeddings.model import EmbeddingModel
from repro.obs.metrics import MetricsRegistry, hit_ratio
from repro.utils.locks import RWLock
from repro.utils.text import normalize_token

#: Initial arena capacity (rows); compaction never shrinks it.
INITIAL_CAPACITY = 256

#: Process-wide arena-identity token source: every cache instance — and
#: every ``clear()`` — draws a fresh token, so results keyed on one
#: arena can never be confused with a sibling arena's (or a cleared
#: arena's later lifetime).
_GENERATIONS = itertools.count()

#: Generation tokens whose arena is gone for good — ``clear()`` was
#: called, or the owning cache was garbage-collected.  Consumers keying
#: on generations (the result cache) may evict entries under these
#: tokens, and only these: a token absent from this set may belong to a live
#: sibling arena of the same model.  The set holds bare ints and grows
#: only with clear()/instance counts, so it stays negligible.
RETIRED_GENERATIONS: set[int] = set()


class ArenaRows(NamedTuple):
    """Row ids and the read-only arena buffer they index, resolved under
    one lock: ``buffer[ids]`` stays exact however long the pair is held
    (see "Publish safety" in the module docstring)."""

    ids: np.ndarray
    buffer: np.ndarray


class EmbeddingCache:
    """Per-model arena of unit embeddings, interned by normalized string.

    Hit/miss accounting: a string's embedding is one miss (again after
    an eviction); every later request for it (including later positions
    of the same ``matrix``/``row_ids`` call) is one hit.  ``prefetch``
    is a pure warm-up: it records misses for new strings but no hits.
    """

    def __init__(self, model: EmbeddingModel,
                 initial_capacity: int = INITIAL_CAPACITY):
        self.model = model
        self._ids: dict[str, int] = {}
        #: row -> its token (``_ids`` inverted), so a compaction rebuilds
        #: the index from the survivors alone
        self._tokens: list[str] = []
        self._arena = np.empty((max(1, initial_capacity), model.dim),
                               dtype=np.float32)
        #: rows requested again since the last compaction: its survivors
        self._reused = np.zeros(self._arena.shape[0], dtype=bool)
        self.hits = 0
        self.misses = 0
        self.compactions = 0
        #: Readers (all-hit resolves) share; embeds/compaction/clear are
        #: exclusive.  See the module docstring for the full model.
        self._lock = RWLock()
        #: Leaf mutex for the hit/miss counters (readers on the shared
        #: path still mutate them; ``+=`` on attributes is not atomic).
        self._stats_lock = threading.Lock()
        #: Globally unique arena-identity token, refreshed by clear()
        #: and kept by compaction.  Consumers that key on it (the result
        #: cache) never confuse a cleared arena — or a *different cache
        #: instance* of the same model — with this one.
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
        registry.gauge("embedding_arena_compactions",
                       fn=lambda: self.compactions, labels=labels,
                       help="compactions that dropped unreused rows")
        registry.gauge(
            "embedding_arena_hit_ratio",
            fn=lambda: hit_ratio(self.hits, self.misses),
            labels=labels,
            help="hits / (hits + misses); 0.0 before any probe")

    # ------------------------------------------------------------------
    # Id-space API
    # ------------------------------------------------------------------
    def lookup(self, texts) -> ArenaRows:
        """Row ids for ``texts`` and the buffer they index, embedding
        unseen strings once; ``buffer[ids]`` gathers the vectors."""
        ids, new_count, arena = self._resolve(texts)
        self._count(hits=int(ids.shape[0]) - new_count, misses=new_count)
        buffer = arena.view()
        buffer.flags.writeable = False
        return ArenaRows(ids, buffer)

    def row_ids(self, texts) -> np.ndarray:
        """:meth:`lookup`'s ids alone: valid until the next compaction,
        so gather through :meth:`lookup` instead of holding these."""
        return self.lookup(texts).ids

    @property
    def arena(self) -> np.ndarray:
        """Read-only **snapshot** of the filled arena (row id == row index).

        The view is pinned to the buffer current at call time: it never
        mutates (appends write past it, and compaction swaps to a fresh
        buffer), but it also never follows later embeds or compactions —
        it goes stale, not torn.  Re-read the property for a fresh one.
        """
        with self._lock.read():
            view = self._arena[:len(self._tokens)]
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # String-space API (compatible with the seed cache)
    # ------------------------------------------------------------------
    def vector(self, text: str) -> np.ndarray:
        """Embedding of one string, cached.

        Returns a copy (like ``matrix``): handing out a live arena view
        would let callers corrupt cached rows.
        """
        ids, new_count, arena = self._resolve([text])
        self._count(hits=1 - new_count, misses=new_count)
        return arena[int(ids[0])].copy()

    def prefetch(self, texts) -> None:
        """Bulk-embed every distinct string not yet cached."""
        _, new_count, _ = self._resolve(texts)
        self._count(hits=0, misses=new_count)

    def matrix(self, texts) -> np.ndarray:
        """Contiguous ``(n, dim)`` float32 matrix for ``texts``.

        Strings embedded by this very call count once, as misses — not as
        misses *and* hits, which would inflate the hit rate the Figure-4
        prefetch experiment reports.
        """
        ids, new_count, arena = self._resolve(texts)
        self._count(hits=int(ids.shape[0]) - new_count, misses=new_count)
        return arena[ids]

    def stats(self) -> dict:
        """Arena statistics for metrics/profiling."""
        return {
            "rows": self.rows,
            "capacity": self.capacity,
            "bytes": self.nbytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "compactions": self.compactions,
        }

    def clear(self) -> None:
        """Drop every cached row (invalidates previously returned ids)."""
        with self._lock.write():
            self._ids = {}
            self._tokens = []
            # rebind a FRESH buffer: post-clear embeds restart at row 0,
            # and writing them into the old buffer would rewrite rows a
            # pre-clear snapshot/gather still aliases — the torn read
            # the publish-safety contract rules out
            self._arena = np.empty_like(self._arena)
            self._reused = np.zeros_like(self._reused)
            with self._stats_lock:
                self.hits = 0
                self.misses = 0
            self.compactions = 0
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

    def _resolve(self, texts) -> tuple[np.ndarray, int, np.ndarray]:
        """Intern every text: (row ids, count of newly embedded, the
        buffer those ids index — captured under the resolving lock).

        Raw texts are deduplicated first, so each distinct value is
        normalized once however often a column repeats it.  Fast path:
        if every token is already interned, the resolve runs under the
        shared read lock and embeds nothing, so concurrent hits never
        serialize.  Otherwise the write lock is taken and the resolve
        re-runs exclusively — tokens interned by a racing thread in the
        window between the two passes are simply hits on retry, which is
        what makes concurrent misses on the same strings embed once
        (single-flight by serialization).
        """
        if not hasattr(texts, "__len__"):
            texts = list(texts)   # accept generators, like the seed cache
        distinct = list(dict.fromkeys(texts))
        tokens = [normalize_token(text) for text in distinct]
        with self._lock.read():
            known = self._ids
            try:
                rows = np.array([known[token] for token in tokens],
                                dtype=np.int64)
            except KeyError:
                pass
            else:
                self._reused[rows] = True
                return _expand(texts, distinct, rows), 0, self._arena
        with self._lock.write():
            rows, new_count = self._resolve_exclusive(tokens)
            arena = self._arena
        return _expand(texts, distinct, rows), new_count, arena

    def _resolve_exclusive(self, tokens: list[str]
                           ) -> tuple[np.ndarray, int]:
        """The write-locked resolve of distinct ``tokens``: mark the
        known rows reused, embed and intern the rest.

        New tokens are committed to the index only *after* their batch
        embed succeeds: if the embed raises (transient OOM, a user
        model's validation error) and the caller retries, the retry must
        re-embed — not "hit" interned ids pointing at uninitialized
        arena rows.
        """
        known = self._ids
        found = [known.get(token) for token in tokens]
        missing = [token for token, row in zip(tokens, found) if row is None]
        self._reused[[row for row in found if row is not None]] = True
        if missing:
            self._append(missing)
            known = self._ids
        rows = np.array([known[token] for token in tokens], dtype=np.int64)
        return rows, len(missing)

    def _append(self, tokens: list[str]) -> None:
        """Embed distinct new ``tokens`` in one batch and intern them,
        compacting when they do not fit.

        Embeds *before* touching the arena so a failure leaves the cache
        exactly as it was.  The no-compaction branch writes only rows
        past every published id, which no reader can reference yet.
        """
        vectors = self.model.embed_tokens(tokens)
        start = len(self._tokens)
        end = start + len(tokens)
        if end > self._arena.shape[0]:
            self._compact(tokens, vectors)
            return
        self._arena[start:end] = vectors
        self._tokens.extend(tokens)
        self._ids.update(zip(tokens, range(start, end)))

    def _compact(self, tokens: list[str], vectors: np.ndarray) -> None:
        """Rebuild the arena from the rows reused since the last
        compaction plus ``tokens``, in a fresh buffer of the same
        capacity, doubled until it holds twice that many rows.

        Publish-safe: the fresh buffer is fully written before
        ``self._arena`` is rebound, and the old buffer is never written
        again, so readers holding it (with ids resolved against it) stay
        exact.
        """
        keep = np.flatnonzero(self._reused[:len(self._tokens)])
        survivors = [self._tokens[row] for row in keep.tolist()]
        survivors.extend(tokens)
        total = len(survivors)
        capacity = int(self._arena.shape[0])
        while capacity < 2 * total:
            capacity *= 2
        arena = np.empty((capacity, self._arena.shape[1]), dtype=np.float32)
        arena[:keep.shape[0]] = self._arena[keep]
        arena[keep.shape[0]:total] = vectors
        self._tokens = survivors
        self._ids = dict(zip(survivors, range(total)))
        self._reused = np.zeros(capacity, dtype=bool)
        self._arena = arena
        self.compactions += 1


def _expand(texts, distinct: list, rows: np.ndarray) -> np.ndarray:
    """Per-position row ids of ``texts`` from the rows of its
    ``distinct`` values (first-seen order)."""
    if len(distinct) == len(texts):
        return rows
    position = dict(zip(distinct, range(len(distinct))))
    return rows[np.fromiter(map(position.__getitem__, texts),
                            dtype=np.int64, count=len(texts))]
