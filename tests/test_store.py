"""Contract tests for the shared cache store (``repro.utils.store``).

Every engine cache keeps its entries in an :class:`LRUStore` and the
kernel and index caches fill misses through one :class:`SingleFlight`;
these tests pin the two shapes once, independent of any owner:

- LRU order: ``get`` touches, ``peek`` does not, ``put`` replaces and
  evicts least recently used first;
- count budgets (size 1 per entry) and byte budgets (size = bytes), an
  entry larger than the whole budget, and ``drop_if``;
- the ``-m concurrency`` single-flight storm: N threads, exactly one
  build, the waiters counted; a builder that raises promotes a waiter
  and never wedges the key.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.utils.store import LRUStore, SingleFlight


def keys(store: LRUStore) -> list:
    return [key for key, _ in store.items()]


class TestLRUOrder:
    def test_put_appends_most_recent_last(self):
        store = LRUStore(3)
        for key in "abc":
            store.put(key, key.upper())
        assert keys(store) == ["a", "b", "c"]

    def test_get_touches_peek_does_not(self):
        store = LRUStore(3)
        for key in "abc":
            store.put(key, key.upper())
        assert store.peek("a") == "A"
        assert keys(store) == ["a", "b", "c"]
        assert store.get("a") == "A"
        assert keys(store) == ["b", "c", "a"]

    def test_miss_returns_none(self):
        store = LRUStore(1)
        assert store.get("absent") is None
        assert store.peek("absent") is None
        assert store.pop("absent") is None

    def test_put_replaces_and_moves_to_end(self):
        store = LRUStore(3)
        store.put("a", 1)
        store.put("b", 2)
        assert store.put("a", 3) == []
        assert keys(store) == ["b", "a"]
        assert store.peek("a") == 3
        assert len(store) == 2 and store.used == 2

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUStore(0)


class TestBudgets:
    def test_count_budget_evicts_oldest_first(self):
        store = LRUStore(2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.put("c", 3) == [("a", 1)]
        assert keys(store) == ["b", "c"]
        assert store.used == len(store) == 2

    def test_eviction_follows_use_not_insertion(self):
        store = LRUStore(2)
        store.put("a", 1)
        store.put("b", 2)
        store.get("a")
        assert store.put("c", 3) == [("b", 2)]

    def test_byte_budget_evicts_until_it_fits(self):
        store = LRUStore(100)
        store.put("a", "A", 40)
        store.put("b", "B", 40)
        store.put("c", "C", 10)
        assert store.used == 90
        # 90 + 70 > 100: both 40-byte entries must go, oldest first
        assert store.put("d", "D", 70) == [("a", "A"), ("b", "B")]
        assert keys(store) == ["c", "d"]
        assert store.used == 80 <= store.budget

    def test_replacement_does_not_double_count(self):
        store = LRUStore(100)
        store.put("a", "A", 60)
        assert store.put("a", "A2", 30) == []
        assert store.used == 30

    def test_entry_larger_than_whole_budget_is_not_admitted(self):
        store = LRUStore(100)
        store.put("a", "A", 40)
        assert store.put("huge", "H", 101) == [("huge", "H")]
        assert keys(store) == ["a"]
        assert store.used == 40

    def test_entry_exactly_the_budget_is_admitted(self):
        store = LRUStore(100)
        store.put("a", "A", 40)
        assert store.put("full", "F", 100) == [("a", "A")]
        assert keys(store) == ["full"] and store.used == 100


class TestDropIf:
    def test_drops_selected_entries_and_their_sizes(self):
        store = LRUStore(100)
        for version, key in enumerate("abcd"):
            store.put((key, version), key, 10)
        dropped = store.drop_if(lambda key, _: key[1] < 2)
        assert dropped == 2
        assert keys(store) == [("c", 2), ("d", 3)]
        assert store.used == 20

    def test_predicate_sees_values(self):
        store = LRUStore(10)
        store.put("a", 1)
        store.put("b", 2)
        assert store.drop_if(lambda _, value: value == 2) == 1
        assert keys(store) == ["a"]

    def test_nothing_selected(self):
        store = LRUStore(10)
        store.put("a", 1)
        assert store.drop_if(lambda key, value: False) == 0
        assert len(store) == 1

    def test_clear_reports_count(self):
        store = LRUStore(10)
        store.put("a", 1, 4)
        store.put("b", 2, 4)
        assert store.clear() == 2
        assert len(store) == 0 and store.used == 0


class TestSingleFlightSerial:
    def test_hit_never_builds(self):
        flight = SingleFlight()
        value, built = flight.fill("k", lambda: "cached",
                                   lambda: pytest.fail("built on a hit"))
        assert (value, built) == ("cached", False)

    def test_miss_builds(self):
        flight = SingleFlight()
        assert flight.fill("k", lambda: None, lambda: "fresh") == \
            ("fresh", True)

    def test_reprobes_after_claim(self):
        """A build that finished between a thread's probe and its claim
        is served, not repeated."""
        answers = iter([None, "finished meanwhile"])
        flight = SingleFlight()
        value, built = flight.fill("k", lambda: next(answers),
                                   lambda: pytest.fail("duplicate build"))
        assert (value, built) == ("finished meanwhile", False)

    def test_failed_build_releases_the_key(self):
        flight = SingleFlight()

        def boom():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError):
            flight.fill("k", lambda: None, boom)
        assert flight.fill("k", lambda: None, lambda: "retry") == \
            ("retry", True)


@pytest.mark.concurrency
class TestSingleFlightStorm:
    N_THREADS = 8

    @pytest.fixture(autouse=True)
    def _fast_switching(self):
        """Switch threads often so a claim/probe race shows up."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def _hold_until_all_wait(self, lock, waits):
        """Keep the build open until every other thread is waiting."""
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            with lock:
                if len(waits) == self.N_THREADS - 1:
                    return
            time.sleep(0.005)

    def _storm(self, flight, build, stored, lock, waits):
        """Run N threads through one key; returns per-thread outcomes."""
        barrier = threading.Barrier(self.N_THREADS)
        outcomes = [None] * self.N_THREADS

        def probe():
            with lock:
                return stored.get("k")

        def on_wait():
            with lock:
                waits.append(1)

        def work(index):
            barrier.wait(timeout=10)
            try:
                outcomes[index] = flight.fill("k", probe, build,
                                              on_wait=on_wait)
            except RuntimeError as error:
                outcomes[index] = error

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        return outcomes

    def test_one_build_and_every_waiter_counted(self):
        flight, stored, lock, waits = SingleFlight(), {}, threading.Lock(), []
        builds = []

        def build():
            builds.append(1)
            self._hold_until_all_wait(lock, waits)
            value = object()
            with lock:
                stored["k"] = value
            return value

        outcomes = self._storm(flight, build, stored, lock, waits)
        assert len(builds) == 1
        assert len(waits) == self.N_THREADS - 1
        assert len({id(value) for value, _ in outcomes}) == 1
        assert sum(built for _, built in outcomes) == 1

    def test_raising_builder_promotes_a_waiter(self):
        flight, stored, lock, waits = SingleFlight(), {}, threading.Lock(), []
        attempts = []

        def build():
            with lock:
                attempts.append(1)
                first = len(attempts) == 1
            if first:
                self._hold_until_all_wait(lock, waits)
                raise RuntimeError("first build failed")
            with lock:
                stored["k"] = "value"
            return "value"

        outcomes = self._storm(flight, build, stored, lock, waits)
        failures = [o for o in outcomes if isinstance(o, RuntimeError)]
        served = [o for o in outcomes if not isinstance(o, RuntimeError)]
        assert len(failures) == 1              # only the failed builder
        assert len(attempts) == 2              # one promoted waiter rebuilt
        assert all(value == "value" for value, _ in served)
        assert sum(built for _, built in served) == 1
        # the key is not wedged: a later fill is a plain hit
        assert flight.fill("k", lambda: stored.get("k"),
                           lambda: pytest.fail("rebuilt")) == ("value", False)
