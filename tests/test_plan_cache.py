"""Plan-cache behaviour: canonicalization, hits, versioned invalidation.

The invalidation edges the serving PR must not get wrong:

- ``register_table`` replacing an existing name bumps the catalog
  version, so plans bound against the old table stop matching;
- a statistics refresh bumps the version for the same reason (fresh
  stats change the optimizer's choices);
- two *textually different but canonically identical* statements share
  one cache entry;
- two statements that differ only in a literal share a canonical
  family (digest) but not a plan entry.
"""

from __future__ import annotations

import pytest

from repro.engine.session import Session
from repro.engine.sql.canonical import canonicalize
from repro.engine.sql.parser import parse_sql
from repro.engine.plan_cache import PlanCache
from repro.storage.table import Table


@pytest.fixture()
def session(model):
    session = Session(load_default_model=False)
    session.register_model(model, default=True)
    session.register_table("t", Table.from_dict({
        "a": [1, 2, 3, 4], "b": ["w", "x", "y", "z"]}))
    return session


def warm(session: Session, text: str) -> None:
    """Issue ``text`` until its plan is cached under a stable version
    (the first run may bump the version by computing statistics)."""
    session.sql(text)
    session.sql(text)


class TestCanonicalization:
    def test_whitespace_and_case_share_a_digest(self):
        a = canonicalize(parse_sql("SELECT a FROM t WHERE a > 1"))
        b = canonicalize(parse_sql("select   a\nFROM t  WHERE a > 1"))
        assert a.digest == b.digest
        assert a.parameters == b.parameters

    def test_literals_are_parameterized_into_one_family(self):
        a = canonicalize(parse_sql("SELECT a FROM t WHERE a > 1"))
        b = canonicalize(parse_sql("SELECT a FROM t WHERE a > 2"))
        assert a.digest == b.digest          # same family
        assert a.parameters != b.parameters  # different statement key
        assert a.key != b.key

    def test_literal_types_split_families(self):
        integer = canonicalize(parse_sql("SELECT a FROM t WHERE a > 1"))
        floating = canonicalize(parse_sql("SELECT a FROM t WHERE a > 1.5"))
        assert integer.digest != floating.digest

    def test_semantic_predicate_probe_is_parameterized(self):
        a = canonicalize(parse_sql("SELECT * FROM t WHERE b ~ 'shoes'"))
        b = canonicalize(parse_sql("SELECT * FROM t WHERE b ~ 'cars'"))
        assert a.digest == b.digest
        assert a.parameters != b.parameters

    def test_different_statements_do_not_collide(self):
        a = canonicalize(parse_sql("SELECT a FROM t"))
        b = canonicalize(parse_sql("SELECT b FROM t"))
        assert a.digest != b.digest


class TestPlanCacheHits:
    def test_repeat_statement_hits(self, session):
        warm(session, "SELECT a FROM t WHERE a > 1")
        session.sql("SELECT a FROM t WHERE a > 1")
        assert session.last_profile.plan_cache_hit is True

    def test_canonically_identical_spellings_share_one_entry(self, session):
        warm(session, "SELECT a FROM t WHERE a > 1")
        before = len(session.state.plan_cache)
        session.sql("select   a from t  where a > 1")
        assert session.last_profile.plan_cache_hit is True
        assert len(session.state.plan_cache) == before

    def test_different_literal_misses_but_shares_family(self, session):
        warm(session, "SELECT a FROM t WHERE a > 1")
        session.sql("SELECT a FROM t WHERE a > 2")
        assert session.last_profile.plan_cache_hit is False
        stats = session.state.plan_cache.stats()
        assert stats["entries"] == 2
        assert stats["families"] == 1

    def test_unoptimized_path_bypasses_cache(self, session):
        warm(session, "SELECT a FROM t WHERE a > 1")
        hits_before = session.state.plan_cache.stats()["hits"]
        session.sql("SELECT a FROM t WHERE a > 1", optimize=False)
        assert session.state.plan_cache.stats()["hits"] == hits_before


class TestInvalidation:
    def test_register_replacing_existing_name_invalidates(self, session):
        warm(session, "SELECT a FROM t WHERE a > 1")
        replacement = Table.from_dict({
            "a": [10, 20], "b": ["p", "q"]})
        session.register_table("t", replacement, replace=True)
        result = session.sql("SELECT a FROM t WHERE a > 1")
        assert session.last_profile.plan_cache_hit is False
        assert sorted(result.column("a").tolist()) == [10, 20]

    def test_registering_new_table_invalidates_too(self, session):
        # any version bump retires old entries: conservative but simple
        warm(session, "SELECT a FROM t WHERE a > 1")
        session.register_table("u", Table.from_dict({"c": [1]}))
        session.sql("SELECT a FROM t WHERE a > 1")
        assert session.last_profile.plan_cache_hit is False

    def test_stats_refresh_bumps_version_and_invalidates(self, session):
        warm(session, "SELECT a FROM t WHERE a > 1")
        version = session.catalog.version
        session.catalog.refresh_stats("t")
        assert session.catalog.version > version
        session.sql("SELECT a FROM t WHERE a > 1")
        assert session.last_profile.plan_cache_hit is False

    def test_lazy_stats_computation_bumps_version_once(self, session):
        version = session.catalog.version
        session.catalog.stats("t")
        bumped = session.catalog.version
        assert bumped == version + 1
        session.catalog.stats("t")          # cached: no further bump
        assert session.catalog.version == bumped

    def test_stale_entries_are_swept_not_leaked(self, session):
        warm(session, "SELECT a FROM t WHERE a > 1")
        for value in (10, 20, 30):
            session.register_table(
                "t", Table.from_dict({"a": [value], "b": ["x"]}),
                replace=True)
            warm(session, "SELECT a FROM t WHERE a > 1")
        stats = session.state.plan_cache.stats()
        assert stats["entries"] == 1
        assert stats["stale_evictions"] >= 3


class TestLRU:
    def test_capacity_evicts_oldest(self, session):
        # generics off: three distinct literals of one family would
        # otherwise promote it, and the evicted statement would then
        # (correctly) hit the generic tier instead of missing
        cache = PlanCache(capacity=2, enable_generic=False)
        session.state.plan_cache = cache
        warm(session, "SELECT a FROM t WHERE a > 1")
        warm(session, "SELECT a FROM t WHERE a > 2")
        warm(session, "SELECT a FROM t WHERE a > 3")
        assert len(cache) == 2
        assert cache.stats()["evictions"] >= 1
        # oldest statement was evicted: re-running it misses
        session.sql("SELECT a FROM t WHERE a > 1")
        assert session.last_profile.plan_cache_hit is False

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)
