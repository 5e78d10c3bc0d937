"""The two shapes every engine cache shares: a budgeted LRU map and a
single-flight fill.

The plan, result, index and reuse caches differ in what they
key on and when an entry dies — that stays with each owner.  What they
have in common lives here, once:

- :class:`LRUStore` — an ordered map under a budget.  Each entry has a
  size: ``1`` for a count budget, its estimated bytes for a byte
  budget.  ``get`` marks an entry most recently used; ``put`` evicts
  least-recently-used entries until the sizes fit and reports what it
  evicted.  It takes **no lock of its own**: an owner mutates it only
  under the owner's existing lock (the contract
  :class:`~repro.reuse.registry.FamilyDigestTracker` follows), so adopting
  it adds no lock and no ordering edge.
- :class:`SingleFlight` — concurrent misses on one key coalesce onto one
  build.  Its lock guards only the in-flight table and is never held
  while the owner's probe or build runs, so it is a leaf below
  everything the owner touches.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Default byte budget of the result cache and the index cache (64 MiB).
DEFAULT_BYTE_BUDGET = 64 * 1024 * 1024


class LRUStore(Generic[K, V]):
    """Budgeted LRU map; mutated only under its owner's lock."""

    def __init__(self, budget: int) -> None:
        if budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = budget
        self._entries: OrderedDict[K, tuple[V, int]] = OrderedDict()
        self._used = 0

    @property
    def used(self) -> int:
        """Sum of the resident entries' sizes; never above ``budget``."""
        return self._used

    def get(self, key: K) -> V | None:
        """The value under ``key``, now most recently used, or ``None``."""
        slot = self._entries.get(key)
        if slot is None:
            return None
        self._entries.move_to_end(key)
        return slot[0]

    def peek(self, key: K) -> V | None:
        """The value under ``key`` without touching the LRU order."""
        slot = self._entries.get(key)
        return None if slot is None else slot[0]

    def put(self, key: K, value: V, size: int = 1) -> list[tuple[K, V]]:
        """Store ``value`` as most recently used (replacing ``key``'s old
        value), then evict least-recently-used entries until the budget
        holds.  Returns the evicted pairs, oldest first.

        An entry larger than the whole budget is not admitted: it comes
        back as the only eviction and no other entry is disturbed.
        """
        self.pop(key)
        if size > self.budget:
            return [(key, value)]
        self._entries[key] = (value, size)
        self._used += size
        evicted: list[tuple[K, V]] = []
        while self._used > self.budget:
            old_key, (old_value, old_size) = self._entries.popitem(last=False)
            self._used -= old_size
            evicted.append((old_key, old_value))
        return evicted

    def pop(self, key: K) -> V | None:
        """Remove ``key``; its value, or ``None`` if it was absent."""
        slot = self._entries.pop(key, None)
        if slot is None:
            return None
        self._used -= slot[1]
        return slot[0]

    def drop_if(self, predicate: Callable[[K, V], bool]) -> int:
        """Remove every entry ``predicate(key, value)`` selects (the
        owners' version and generation sweeps); returns how many."""
        doomed = [key for key, (value, _) in self._entries.items()
                  if predicate(key, value)]
        for key in doomed:
            self.pop(key)
        return len(doomed)

    def clear(self) -> int:
        """Remove everything; returns how many entries were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._used = 0
        return dropped

    def items(self) -> list[tuple[K, V]]:
        """Snapshot of the entries, least recently used first."""
        return [(key, value) for key, (value, _) in self._entries.items()]

    def __len__(self) -> int:
        return len(self._entries)


class SingleFlight(Generic[K, V]):
    """At most one build per key at a time; racers wait, then re-probe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._building: dict[K, threading.Event] = {}

    def fill(self, key: K, probe: Callable[[], V | None],
             build: Callable[[], V],
             on_wait: Callable[[], None] = lambda: None) -> tuple[V, bool]:
        """``probe()``'s value, or on a miss ``build()``'s; returns
        ``(value, built)``.

        A thread that finds a build of ``key`` in flight runs
        ``on_wait`` once, waits for that build, and probes again.  If
        the build raised, the first waiter through claims the key and
        builds — a failure never wedges the key.  After claiming, the
        builder probes once more, so a build that finished between its
        probe and its claim is never repeated.  ``probe`` and ``build``
        take the owner's lock themselves; this lock is never held while
        they (or ``on_wait``) run.
        """
        waited = False
        while True:
            value = probe()
            if value is not None:
                return value, False
            with self._lock:
                pending = self._building.get(key)
                if pending is None:
                    event = self._building[key] = threading.Event()
                    break
            if not waited:
                waited = True
                on_wait()
            pending.wait()
        try:
            value = probe()
            if value is not None:
                return value, False
            return build(), True
        finally:
            with self._lock:
                del self._building[key]
            event.set()
