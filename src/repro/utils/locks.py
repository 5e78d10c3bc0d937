"""Read-write locks for the engine's shared, read-mostly state.

The serving layer (``repro.server``) hands one set of embedding arenas,
result caches, and catalog entries to every client session, so the
structures that PR 1-2 made fast for a single thread now need a
concurrency discipline.  The access pattern is heavily read-skewed —
thousands of cache gathers per arena growth, thousands of plan-cache
lookups per ``register_table`` — which is exactly the shape a
reader-writer lock serves: readers share, writers drain readers and run
alone.

Two primitives live here (``repro.utils`` so that storage/semantic
modules can use them without importing the server package, which sits
*above* them in the layering):

- :class:`RWLock` — a writer-preferring read-write lock built on one
  mutex + condition variable.  Writer preference keeps ``register_table``
  from starving under a stream of overlapping readers.
- :class:`StripedRWLock` — a fixed array of :class:`RWLock` stripes
  addressed by hashed key (model name, table name), so independent hot
  keys never contend on one lock while the memory cost stays bounded.

Lock hierarchy (canonical declarations in
``repro/analysis/lock_levels.py``, enforced by ``python -m
repro.analysis``; prose in ``docs/serving.md``.  Always acquire
downward, never upward):

1. scheduler / plan-cache mutexes
2. per-model striped locks (held around build + execute)
3. catalog lock (taken *under* the stripes during physical lowering)
4. leaf mutexes (embedding/result caches, reuse registry, counters)
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager, contextmanager
from typing import Iterable, Iterator

#: Default stripe count: enough that a handful of hot models/tables
#: hash apart, small enough to be free to allocate eagerly.
DEFAULT_STRIPES = 16


class RWLock:
    """A writer-preferring reader-writer lock.

    Any number of readers may hold the lock together; a writer holds it
    alone.  A waiting writer blocks *new* readers (writer preference),
    so writers cannot starve behind a continuous reader stream.

    Reentrancy: not reentrant across modes — a thread holding the read
    lock must not request the write lock (classic upgrade deadlock).
    The engine's lock discipline (resolve reads fully, then retry under
    the write lock) avoids upgrades by construction.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._readers_done = threading.Condition(self._mutex)
        self._active_readers = 0
        self._active_writer = False
        self._waiting_writers = 0

    # -- reader side ---------------------------------------------------
    def acquire_read(self) -> None:
        with self._mutex:
            while self._active_writer or self._waiting_writers:
                self._readers_done.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        with self._mutex:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._readers_done.notify_all()

    # -- writer side ---------------------------------------------------
    def acquire_write(self) -> None:
        with self._mutex:
            self._waiting_writers += 1
            try:
                while self._active_writer or self._active_readers:
                    self._readers_done.wait()
            finally:
                self._waiting_writers -= 1
            self._active_writer = True

    def release_write(self) -> None:
        with self._mutex:
            self._active_writer = False
            self._readers_done.notify_all()

    # -- context managers ----------------------------------------------
    @contextmanager
    def read(self) -> Iterator[None]:
        """``with lock.read():`` — shared access."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        """``with lock.write():`` — exclusive access."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class StripedRWLock:
    """A fixed bank of :class:`RWLock` stripes addressed by key hash.

    ``stripe(key)`` always maps one key to the same stripe, so a key's
    readers and writers serialize correctly; distinct keys *usually*
    land on distinct stripes (false sharing is possible but only costs
    throughput, never correctness).
    """

    def __init__(self, stripes: int = DEFAULT_STRIPES) -> None:
        if stripes < 1:
            raise ValueError(f"stripe count must be positive, got {stripes}")
        self._stripes = tuple(RWLock() for _ in range(stripes))

    def __len__(self) -> int:
        return len(self._stripes)

    def stripe(self, key: str) -> RWLock:
        """The stripe lock guarding ``key``."""
        return self._stripes[hash(key) % len(self._stripes)]

    def read(self, key: str) -> AbstractContextManager[None]:
        """``with striped.read(key):`` — shared access to ``key``'s stripe."""
        return self.stripe(key).read()

    def write(self, key: str) -> AbstractContextManager[None]:
        """``with striped.write(key):`` — exclusive access to the stripe."""
        return self.stripe(key).write()

    def stripes_for(self, keys: Iterable[str]) -> list[RWLock]:
        """Deduped stripe locks for ``keys``, in **bank order**.

        This is the only sanctioned way to hold several stripes at
        once.  Deduplication matters because :class:`RWLock` is not
        reentrant: two keys hashing to one stripe must acquire it
        once, not twice (a second read acquire can deadlock behind a
        writer queued in between).  Bank order is a global total order,
        so any two multi-stripe acquirers lock in the same sequence
        and can never deadlock each other — sorting by *key* would not
        give that (key order and stripe order need not agree).
        """
        indices = sorted({hash(key) % len(self._stripes) for key in keys})
        return [self._stripes[index] for index in indices]
