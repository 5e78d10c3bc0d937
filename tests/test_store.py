"""Contract tests for the shared cache store (``repro.utils.store``).

Every engine cache keeps its entries in an :class:`LRUStore`; these
tests pin its shape once, independent of any owner:

- LRU order: ``get`` touches, ``put`` replaces and evicts least
  recently used first;
- count budgets (size 1 per entry) and byte budgets (size = bytes), an
  entry larger than the whole budget, and ``drop_if``.
"""

from __future__ import annotations

import pytest

from repro.utils.store import LRUStore


def keys(store: LRUStore) -> list:
    return [key for key, _ in store.items()]


class TestLRUOrder:
    def test_put_appends_most_recent_last(self):
        store = LRUStore(3)
        for key in "abc":
            store.put(key, key.upper())
        assert keys(store) == ["a", "b", "c"]

    def test_get_touches(self):
        store = LRUStore(3)
        for key in "abc":
            store.put(key, key.upper())
        assert keys(store) == ["a", "b", "c"]
        assert store.get("a") == "A"
        assert keys(store) == ["b", "c", "a"]

    def test_miss_returns_none(self):
        store = LRUStore(1)
        assert store.get("absent") is None
        assert store.pop("absent") is None

    def test_put_replaces_and_moves_to_end(self):
        store = LRUStore(3)
        store.put("a", 1)
        store.put("b", 2)
        assert store.put("a", 3) == []
        assert keys(store) == ["b", "a"]
        assert store.get("a") == 3
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
