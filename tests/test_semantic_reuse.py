"""Semantic-subsumption reuse: containment, residuals, bit-identity.

Three layers of coverage:

- **unit**: spec extraction / family digests, the containment matcher's
  refusal axes, and the residual executor's tie guards, driven directly
  with synthetic specs and snapshots;
- **end-to-end**: every subsumption axis (threshold refinement, top-k
  truncation, predicate extension, projection subset, chained
  refinement) answered residually and compared **bit-identically** —
  schema, dtypes, values, row order — against a reuse-disabled session;
  plus every documented fallback (loosened threshold, aggregates,
  biting LIMIT, approximate-index plans, invalidation);
- **property** (hypothesis): threshold-refinement and k-truncation
  residuals equal fresh execution across random corpora and thresholds;
- **concurrency** (``-m concurrency``): a refinement storm resolves
  without any new scheduler admissions, and probes racing catalog
  invalidation never serve stale rows.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.session import Session
from repro.engine.sql.parser import parse_sql
from repro.engine.sql.binder import Binder
from repro.optimizer.optimizer import OptimizerConfig
from repro.reuse.analysis import (
    PlanShape,
    analyze_and_augment,
    describe_plan,
    plan_containment,
)
from repro.server import EngineServer
from repro.storage.table import Table

WORDS = ["sneakers", "boots", "sandals", "loafers", "parka", "jacket",
         "coat", "blazer", "sedan", "truck", "bicycle", "kitten",
         "puppy", "apple", "banana", "bread", "shoes", "clothes",
         "vehicle", "animal", "fruit", "food", "dress", "shirt",
         "sweater", "van", "scooter", "hamster", "pear", "cake"]


def products_table(values=None, seed=3, size=20):
    # default size stays under the DIP probe/build ratio against the
    # 6-row kb table, so semantic-join plans remain dip_free (the DIP
    # refusal has its own dedicated test)
    rng = np.random.default_rng(seed)
    values = values if values is not None else list(
        rng.choice(WORDS, size=size))
    n = len(values)
    return Table.from_dict({
        "pid": list(range(n)),
        "ptype": [str(v) for v in values],
        "price": [float(p) for p in rng.integers(1, 200, size=n)],
        "brand": [["acme", "globex", "initech"][i % 3] for i in range(n)],
    })


def kb_table():
    return Table.from_dict({
        "subject": ["shoes", "jacket", "clothes", "dog", "car", "fruit"],
        "object": ["footwear", "outerwear", "apparel", "pet", "vehicle",
                   "food"],
    })


def build_session(model, reuse=True, products=None, config=None):
    session = Session(load_default_model=False, semantic_reuse=reuse,
                      optimizer_config=config)
    session.register_model(model, default=True)
    session.register_table("products", products if products is not None
                           else products_table())
    session.register_table("kb", kb_table())
    return session


def warm(session, *statements, rounds=2):
    """Stabilize lazy statistics + arena generations, then cache."""
    for _ in range(rounds):
        for statement in statements:
            session.sql(statement)


def assert_identical(a: Table, b: Table):
    """Bit-identical: names, dtypes, values, and row order."""
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        left, right = a.columns[name], b.columns[name]
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


def bound_plan(session, text):
    return Binder(session.catalog, session.default_model_name).bind(
        parse_sql(text))


FILTER_BASE = ("SELECT ptype, price FROM products "
               "WHERE ptype ~ 'shoes' THRESHOLD 0.5 ORDER BY ptype, price")
FILTER_REFINED = ("SELECT ptype, price FROM products "
                  "WHERE ptype ~ 'shoes' THRESHOLD 0.8 "
                  "ORDER BY ptype, price")
JOIN_BASE = ("SELECT p.ptype, k.subject FROM products AS p "
             "SEMANTIC JOIN kb AS k ON p.ptype ~ k.subject "
             "THRESHOLD 0.2 TOP 5 ORDER BY p.ptype, k.subject")
JOIN_REFINED = ("SELECT p.ptype, k.subject FROM products AS p "
                "SEMANTIC JOIN kb AS k ON p.ptype ~ k.subject "
                "THRESHOLD 0.4 TOP 2 ORDER BY p.ptype, k.subject")


# ---------------------------------------------------------------------------
# unit: analysis
# ---------------------------------------------------------------------------
class TestAnalysis:
    def test_threshold_literal_shares_family(self, model):
        session = build_session(model)
        spec_a, _ = analyze_and_augment(bound_plan(session, FILTER_BASE))
        spec_b, _ = analyze_and_augment(bound_plan(session,
                                                   FILTER_REFINED))
        assert spec_a.eligible and spec_b.eligible
        assert spec_a.family == spec_b.family
        assert spec_a.slots[0].threshold == 0.5
        assert spec_b.slots[0].threshold == 0.8

    def test_probe_splits_family(self, model):
        session = build_session(model)
        spec_a, _ = analyze_and_augment(bound_plan(session, FILTER_BASE))
        spec_b, _ = analyze_and_augment(bound_plan(
            session, FILTER_BASE.replace("'shoes'", "'fruit'")))
        assert spec_a.family != spec_b.family

    def test_conjuncts_not_in_family(self, model):
        session = build_session(model)
        spec_a, _ = analyze_and_augment(bound_plan(
            session, "SELECT * FROM products WHERE ptype ~ 'shoes' "
                     "THRESHOLD 0.5"))
        spec_b, _ = analyze_and_augment(bound_plan(
            session, "SELECT * FROM products WHERE ptype ~ 'shoes' "
                     "THRESHOLD 0.5 AND price > 10"))
        assert spec_a.family == spec_b.family
        assert spec_a.conjunct_ids == ()
        assert len(spec_b.conjunct_ids) == 1

    def test_aggregates_ineligible(self, model):
        session = build_session(model)
        spec, plan = analyze_and_augment(bound_plan(
            session, "SELECT brand, COUNT(*) AS n FROM products "
                     "WHERE ptype ~ 'shoes' THRESHOLD 0.5 GROUP BY brand"))
        assert not spec.eligible
        assert "Aggregate" in spec.reason

    def test_reserved_alias_ineligible_but_executes(self, model):
        """A user alias colliding with the aux-column namespace makes
        the statement ineligible — it must run unaugmented, not crash
        on a duplicate column in the augmented projection."""
        session = build_session(model)
        text = ("SELECT ptype AS __reuse_f0 FROM products "
                "WHERE ptype ~ 'shoes' THRESHOLD 0.1 ORDER BY ptype")
        spec, _ = analyze_and_augment(bound_plan(session, text))
        assert not spec.eligible
        result = session.sql(text)
        fresh = build_session(model, reuse=False)
        assert_identical(result, fresh.sql(text))

    def test_semantic_group_by_ineligible(self, model):
        session = build_session(model)
        spec, _ = analyze_and_augment(bound_plan(
            session, "SELECT * FROM products SEMANTIC GROUP BY ptype "
                     "THRESHOLD 0.7"))
        assert not spec.eligible

    def test_augmented_plan_carries_aux_columns(self, model):
        session = build_session(model)
        spec, plan = analyze_and_augment(bound_plan(session, FILTER_BASE))
        assert spec.aux_columns == ("__reuse_f0",)
        assert "__reuse_f0" in plan.schema.names

    def test_topk_join_aux_columns(self, model):
        session = build_session(model)
        spec, plan = analyze_and_augment(bound_plan(session, JOIN_BASE))
        join_slot = spec.slots[0]
        assert join_slot.kind == "join" and join_slot.top_k == 5
        for name in ("__reuse_j0_score", "__reuse_j0_group",
                     "__reuse_j0_rank"):
            assert name in plan.schema.names
            assert name in spec.aux_columns

    def test_star_join_score_is_visible_not_aux(self, model):
        session = build_session(model)
        spec, plan = analyze_and_augment(bound_plan(
            session, "SELECT * FROM products AS p SEMANTIC JOIN kb AS k "
                     "ON p.ptype ~ k.subject THRESHOLD 0.3"))
        assert spec.slots[0].score_column == "similarity"
        assert "similarity" not in spec.aux_columns


# ---------------------------------------------------------------------------
# unit: containment matcher
# ---------------------------------------------------------------------------
def specs_for(session, base, probe):
    """Specs + shapes for matcher unit tests.

    DIP is disabled so the shapes stay ``dip_free`` — the matcher's DIP
    refusal has its own dedicated test below.
    """
    from repro.optimizer.optimizer import Optimizer

    config = OptimizerConfig(enable_dip=False)
    optimizer = Optimizer(session.catalog, session.models, config=config,
                          execution_context=session.context)
    spec_a, plan_a = analyze_and_augment(bound_plan(session, base))
    spec_b, plan_b = analyze_and_augment(bound_plan(session, probe))
    shape_a = describe_plan(optimizer.optimize(plan_a))
    shape_b = describe_plan(optimizer.optimize(plan_b))
    return spec_a, shape_a, spec_b, shape_b


class TestMatcher:
    def test_threshold_tighten_subsumes(self, model):
        session = build_session(model)
        spec_a, shape_a, spec_b, shape_b = specs_for(
            session, FILTER_BASE, FILTER_REFINED)
        columns = ("ptype", "price", "__reuse_f0")
        assert plan_containment(spec_a, shape_a, 10, columns,
                                spec_b, shape_b) is not None

    def test_threshold_loosen_refused(self, model):
        session = build_session(model)
        spec_a, shape_a, spec_b, shape_b = specs_for(
            session, FILTER_REFINED, FILTER_BASE)
        columns = ("ptype", "price", "__reuse_f0")
        assert plan_containment(spec_a, shape_a, 10, columns,
                                spec_b, shape_b) is None

    def test_topk_grow_refused(self, model):
        session = build_session(model)
        spec_a, shape_a, spec_b, shape_b = specs_for(
            session, JOIN_REFINED, JOIN_BASE)
        assert plan_containment(spec_a, shape_a, 10,
                                tuple(spec_a.aux_columns),
                                spec_b, shape_b) is None

    def test_topk_with_extra_predicate_refused(self, model):
        session = build_session(model)
        probe = JOIN_BASE.replace("ORDER BY",
                                  "WHERE p.price > 10 ORDER BY")
        spec_a, shape_a, spec_b, shape_b = specs_for(
            session, JOIN_BASE, probe)
        columns = ("p.ptype", "k.subject", "p.price",
                   *spec_a.aux_columns)
        assert plan_containment(spec_a, shape_a, 10, columns,
                                spec_b, shape_b) is None

    def test_fingerprint_mismatch_refused(self, model):
        session = build_session(model)
        spec_a, shape_a, spec_b, shape_b = specs_for(
            session, FILTER_BASE, FILTER_REFINED)
        diverged = PlanShape(fingerprint="deadbeef", dip_free=True)
        assert plan_containment(spec_a, diverged, 10,
                                ("ptype", "price", "__reuse_f0"),
                                spec_b, shape_b) is None

    def test_dip_rewrite_refused(self, model):
        session = build_session(model)
        spec_a, shape_a, spec_b, shape_b = specs_for(
            session, FILTER_BASE, FILTER_REFINED)
        dip = PlanShape(fingerprint=shape_a.fingerprint, dip_free=False)
        assert plan_containment(spec_a, dip, 10,
                                ("ptype", "price", "__reuse_f0"),
                                spec_b, shape_b) is None

    def test_extra_predicate_needs_faithful_snapshot_columns(self, model):
        session = build_session(model)
        base = "SELECT ptype FROM products WHERE ptype ~ 'shoes' " \
               "THRESHOLD 0.5"
        probe = "SELECT ptype FROM products WHERE ptype ~ 'shoes' " \
                "THRESHOLD 0.5 AND price > 10"
        spec_a, shape_a, spec_b, shape_b = specs_for(session, base, probe)
        # price was projected away: not derivable from the snapshot —
        # even a same-named column in the raw name list is not trusted
        # unless the cached projection faithfully passed it through
        assert plan_containment(spec_a, shape_a, 10,
                                ("ptype", "__reuse_f0"),
                                spec_b, shape_b) is None
        assert plan_containment(spec_a, shape_a, 10,
                                ("ptype", "price", "__reuse_f0"),
                                spec_b, shape_b) is None
        # a cached statement that projects price itself does match
        wide = "SELECT ptype, price FROM products WHERE ptype ~ " \
               "'shoes' THRESHOLD 0.5"
        spec_w, shape_w, spec_b, shape_b = specs_for(session, wide, probe)
        assert plan_containment(spec_w, shape_w, 10,
                                ("ptype", "price", "__reuse_f0"),
                                spec_b, shape_b) is not None

    def test_biting_limit_refused(self, model):
        session = build_session(model)
        base = FILTER_BASE + " LIMIT 5"
        probe = FILTER_REFINED + " LIMIT 3"
        spec_a, shape_a, spec_b, shape_b = specs_for(session, base, probe)
        columns = ("ptype", "price", "__reuse_f0")
        # stored rows == limit: the refinement may need rows LIMIT cut
        assert plan_containment(spec_a, shape_a, 5, columns,
                                spec_b, shape_b) is None
        # stored rows < limit: the limit never bit, refinement is safe
        assert plan_containment(spec_a, shape_a, 4, columns,
                                spec_b, shape_b) is not None


# ---------------------------------------------------------------------------
# end-to-end: Session
# ---------------------------------------------------------------------------
class TestSessionReuse:
    def refined_matches_fresh(self, model, base, refined, expect=True,
                              products=None, config=None):
        session = build_session(model, reuse=True, products=products,
                                config=config)
        fresh = build_session(model, reuse=False, products=products,
                              config=config)
        warm(session, base)
        result = session.sql(refined)
        assert bool(session.last_profile.reuse_hit) is expect
        assert_identical(result, fresh.sql(refined))
        return session

    def test_filter_threshold_refinement(self, model):
        session = self.refined_matches_fresh(model, FILTER_BASE,
                                             FILTER_REFINED)
        assert session.state.reuse_registry.stats()["hits"] == 1

    def test_contains_mode_refinement(self, model):
        base = ("SELECT ptype FROM products WHERE ptype ~* 'shoes' "
                "THRESHOLD 0.4 ORDER BY ptype")
        self.refined_matches_fresh(model, base,
                                   base.replace("0.4", "0.7"))

    def test_topk_refinement(self, model):
        self.refined_matches_fresh(model, JOIN_BASE, JOIN_REFINED)

    def test_threshold_join_refinement(self, model):
        base = ("SELECT p.ptype, k.subject FROM products AS p "
                "SEMANTIC JOIN kb AS k ON p.ptype ~ k.subject "
                "THRESHOLD 0.3 ORDER BY p.ptype, k.subject")
        self.refined_matches_fresh(model, base,
                                   base.replace("0.3", "0.6"))

    def test_predicate_extension(self, model):
        base = "SELECT * FROM products WHERE ptype ~ 'shoes' THRESHOLD 0.5"
        self.refined_matches_fresh(
            model, base, base + " AND price > 40")

    def test_projection_subset_from_star(self, model):
        base = "SELECT * FROM products WHERE ptype ~ 'shoes' THRESHOLD 0.5"
        self.refined_matches_fresh(
            model, base,
            "SELECT ptype FROM products WHERE ptype ~ 'shoes' "
            "THRESHOLD 0.5")

    def test_loosened_threshold_executes_fresh(self, model):
        self.refined_matches_fresh(model, FILTER_REFINED, FILTER_BASE,
                                   expect=False)

    def test_aggregate_refinement_executes_fresh(self, model):
        base = ("SELECT brand, COUNT(*) AS n FROM products "
                "WHERE ptype ~ 'shoes' THRESHOLD 0.5 GROUP BY brand "
                "ORDER BY brand")
        self.refined_matches_fresh(model, base,
                                   base.replace("0.5", "0.8"),
                                   expect=False)

    def test_limit_bite_executes_fresh(self, model):
        # every product matches at threshold 0: LIMIT 3 certainly bites
        base = ("SELECT ptype FROM products WHERE ptype ~ 'shoes' "
                "THRESHOLD 0.0 ORDER BY ptype LIMIT 3")
        self.refined_matches_fresh(model, base,
                                   base.replace("0.0", "0.9"),
                                   expect=False)

    def test_pure_limit_shrink_reuses(self, model):
        base = ("SELECT ptype FROM products WHERE ptype ~ 'shoes' "
                "THRESHOLD 0.0 ORDER BY ptype LIMIT 3")
        self.refined_matches_fresh(model, base,
                                   base.replace("LIMIT 3", "LIMIT 2"))

    def test_dip_rewritten_plans_fall_back(self, model):
        # 64 products vs the 6-row kb crosses DIP's probe/build ratio:
        # the optimized plan carries a semantic semi-filter, whose
        # pruning GEMM is not provably bit-consistent with the join's,
        # so subsumption refuses and the refinement executes fresh
        big = products_table(size=64)
        session = self.refined_matches_fresh(
            model, JOIN_BASE, JOIN_REFINED, expect=False, products=big)
        assert session.state.reuse_registry.stats()["hits"] == 0

    def test_chained_refinement(self, model):
        session = build_session(model, reuse=True)
        fresh = build_session(model, reuse=False)
        warm(session, FILTER_BASE)
        session.sql(FILTER_REFINED)
        assert session.last_profile.reuse_hit
        third = FILTER_REFINED.replace("0.8", "0.9")
        result = session.sql(third)
        assert session.last_profile.reuse_hit
        assert_identical(result, fresh.sql(third))

    def test_refined_repeat_is_exact_hit(self, model):
        session = build_session(model, reuse=True)
        warm(session, FILTER_BASE)
        session.sql(FILTER_REFINED)
        assert session.last_profile.reuse_hit
        session.sql(FILTER_REFINED)
        assert session.last_profile.result_cache_hit

    def test_register_table_invalidates(self, model):
        session = build_session(model, reuse=True)
        warm(session, FILTER_BASE)
        replacement = products_table(seed=11)
        session.register_table("products", replacement, replace=True)
        fresh = build_session(model, reuse=False, products=replacement)
        result = session.sql(FILTER_REFINED)
        assert not session.last_profile.reuse_hit
        assert_identical(result, fresh.sql(FILTER_REFINED))

    def test_shadowing_alias_never_feeds_extra_predicate(self, model):
        """`cost AS price` must not let `AND price > x` bind the cost
        values: resolution is restricted to faithful passthroughs, so
        the refinement executes fresh (and matches a fresh session)."""
        session = build_session(model, reuse=True)
        fresh = build_session(model, reuse=False)
        base = ("SELECT ptype, pid AS price FROM products "
                "WHERE ptype ~ 'shoes' THRESHOLD 0.4 ORDER BY ptype")
        refined = base.replace(" ORDER BY", " AND price > 100 ORDER BY")
        warm(session, base)
        result = session.sql(refined)
        assert not session.last_profile.reuse_hit
        assert_identical(result, fresh.sql(refined))

    def test_shadowing_alias_never_feeds_projection(self, model):
        """A probe selecting `price` must not be served the cached
        statement's `pid AS price` column."""
        session = build_session(model, reuse=True)
        fresh = build_session(model, reuse=False)
        base = ("SELECT ptype, pid AS price FROM products "
                "WHERE ptype ~ 'shoes' THRESHOLD 0.4 ORDER BY ptype")
        probe = ("SELECT price FROM products "
                 "WHERE ptype ~ 'shoes' THRESHOLD 0.4 ORDER BY ptype")
        warm(session, base)
        result = session.sql(probe)
        assert not session.last_profile.reuse_hit
        assert_identical(result, fresh.sql(probe))

    def test_faithful_passthrough_still_reuses(self, model):
        """Unaliased projections remain eligible for both axes."""
        session = build_session(model, reuse=True)
        fresh = build_session(model, reuse=False)
        base = ("SELECT ptype, price FROM products "
                "WHERE ptype ~ 'shoes' THRESHOLD 0.4 ORDER BY ptype")
        refined = base.replace(" ORDER BY", " AND price > 100 ORDER BY")
        warm(session, base)
        result = session.sql(refined)
        assert session.last_profile.reuse_hit
        assert_identical(result, fresh.sql(refined))

    def test_results_are_isolated_copies(self, model):
        session = build_session(model, reuse=True)
        warm(session, FILTER_BASE)
        first = session.sql(FILTER_REFINED)
        if first.num_rows:
            first.columns["price"][:] = -1.0
        again = session.sql(FILTER_REFINED)
        assert not (again.column("price") == -1.0).any()


# ---------------------------------------------------------------------------
# end-to-end: server
# ---------------------------------------------------------------------------
class TestFamilyIndexFollowsTheCache:
    """The reuse ``entries``/``families`` are read from the result
    cache's own family index, so they equal the eligible entries the
    cache holds after every kind of removal."""

    STATEMENTS = [
        f"SELECT ptype, price FROM products WHERE ptype ~ '{probe}' "
        f"THRESHOLD {threshold} ORDER BY ptype, price"
        for probe in ("shoes", "fruit", "car", "dog")
        for threshold in (0.3, 0.6)
    ] + ["SELECT brand, COUNT(*) AS n FROM products "
         "WHERE ptype ~ 'shoes' THRESHOLD 0.5 GROUP BY brand"]

    def test_reuse_counts_equal_the_eligible_entries_held(self, model):
        session = Session(load_default_model=False,
                          result_cache_bytes=1200)
        session.register_model(model, default=True)
        session.register_table("products", products_table())
        state = session.state
        family_of: dict[tuple, str] = {}

        def serve(text):
            session.sql(text)
            planned = session.plan_for(text)
            if planned.reuse is not None and planned.reuse.eligible:
                family_of[planned.canonical.digest,
                          planned.canonical.parameters] = \
                    planned.reuse.family

        def check():
            held = [family_of[key.digest, key.parameters] for key, *_
                    in state.result_cache.entries_for_table("products")
                    if (key.digest, key.parameters) in family_of]
            stats = state.reuse_registry.stats()
            assert (stats["entries"], stats["families"]) \
                == (len(held), len(set(held)))
            return held

        for _ in range(2):                     # puts + LRU evictions
            for text in self.STATEMENTS:
                serve(text)
                check()
        assert state.result_cache.stats()["evictions"] > 0
        session.register_table("kb", kb_table())   # catalog version
        sweeps = state.result_cache.stats()["stale_evictions"]
        serve(self.STATEMENTS[0])
        assert state.result_cache.stats()["stale_evictions"] > sweeps
        assert check()
        session.append("products", [{"pid": 99, "ptype": "boots",
                                     "price": 5.0, "brand": "acme"}])
        check()                                # advance_table_version
        serve(self.STATEMENTS[2])
        assert check()
        state.result_cache.invalidate()
        assert check() == []


class TestServerReuse:
    def test_submit_accounts_reuse_noop(self, model):
        with EngineServer(load_default_model=False) as server:
            server.register_model(model, default=True)
            server.register_table("products", products_table())
            server.register_table("kb", kb_table())
            for _ in range(2):
                server.sql(FILTER_BASE, tenant="alice")
            admitted_before = server.scheduler.stats()["admitted"]
            result = server.sql(FILTER_REFINED, tenant="alice")
            metrics = server.metrics()
            assert metrics["scheduler"]["reuse_noops"] == 1
            assert metrics["scheduler"]["tenants"]["alice"][
                "reuse_hits"] == 1
            assert metrics["reuse"]["hits"] == 1
            # the residual never entered a queue or took a worker
            assert server.scheduler.stats()["admitted"] == admitted_before
            fresh = Session(load_default_model=False,
                            semantic_reuse=False)
            fresh.register_model(model, default=True)
            fresh.register_table("products", products_table())
            fresh.register_table("kb", kb_table())
            assert_identical(result, fresh.sql(FILTER_REFINED))

    def test_client_session_profile_flags(self, model):
        with EngineServer(load_default_model=False) as server:
            server.register_model(model, default=True)
            server.register_table("products", products_table())
            server.register_table("kb", kb_table())
            client = server.session(tenant="bob")
            for _ in range(2):
                client.sql(FILTER_BASE)
            client.sql(FILTER_REFINED)
            assert client.last_profile.reuse_hit
            assert client.last_profile.lane == "interactive"
            assert client.last_profile.result_cache_hit is False


# ---------------------------------------------------------------------------
# property tests: residuals are always bit-identical to fresh execution
# ---------------------------------------------------------------------------
@st.composite
def corpus_and_thresholds(draw):
    values = draw(st.lists(st.sampled_from(WORDS), min_size=4,
                           max_size=20))
    low = draw(st.floats(min_value=0.0, max_value=0.9,
                         allow_nan=False))
    high = draw(st.floats(min_value=float(low), max_value=1.0,
                          allow_nan=False))
    return values, float(low), float(high)


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(data=corpus_and_thresholds())
    def test_threshold_refinement_bit_identical(self, model, data):
        values, low, high = data
        products = products_table(values=values)
        session = build_session(model, reuse=True, products=products)
        fresh = build_session(model, reuse=False, products=products)
        # fixed-point rendering: the SQL lexer takes no exponents (the
        # two sessions see identical literals either way)
        base = (f"SELECT ptype, price FROM products WHERE ptype ~ 'shoes'"
                f" THRESHOLD {low:.6f} ORDER BY ptype, price")
        refined = (f"SELECT ptype, price FROM products WHERE ptype ~ "
                   f"'shoes' THRESHOLD {high:.6f} ORDER BY ptype, price")
        warm(session, base)
        assert_identical(session.sql(refined), fresh.sql(refined))

    @settings(max_examples=20, deadline=None)
    @given(values=st.lists(st.sampled_from(WORDS), min_size=4,
                           max_size=20),
           k_large=st.integers(min_value=2, max_value=8),
           k_delta=st.integers(min_value=0, max_value=6),
           threshold=st.sampled_from([0.0, 0.2, 0.35, 0.5]))
    def test_k_truncation_bit_identical(self, model, values, k_large,
                                        k_delta, threshold):
        k_small = max(1, k_large - k_delta)
        products = products_table(values=values)
        session = build_session(model, reuse=True, products=products)
        fresh = build_session(model, reuse=False, products=products)
        base = (f"SELECT p.ptype, k.subject FROM products AS p "
                f"SEMANTIC JOIN kb AS k ON p.ptype ~ k.subject "
                f"THRESHOLD {threshold} TOP {k_large} "
                f"ORDER BY p.ptype, k.subject")
        refined = base.replace(f"TOP {k_large}", f"TOP {k_small}")
        warm(session, base)
        assert_identical(session.sql(refined), fresh.sql(refined))


# ---------------------------------------------------------------------------
# concurrency lane
# ---------------------------------------------------------------------------
@pytest.mark.concurrency
class TestReuseRaces:
    def test_refinement_storm_resolves_without_admissions(self, model):
        """Eight clients refining a warmed base statement: every answer
        is bit-identical and none of them occupies a scheduler worker —
        the base executed once (plus warmup), the storm is all no-ops."""
        with EngineServer(load_default_model=False) as server:
            server.register_model(model, default=True)
            server.register_table("products", products_table())
            server.register_table("kb", kb_table())
            for _ in range(2):
                server.sql(FILTER_BASE)
            admitted_before = server.scheduler.stats()["admitted"]
            fresh = Session(load_default_model=False,
                            semantic_reuse=False)
            fresh.register_model(model, default=True)
            fresh.register_table("products", products_table())
            fresh.register_table("kb", kb_table())
            reference = fresh.sql(FILTER_REFINED)
            results: list = [None] * 8
            errors: list = []

            def refine(slot):
                try:
                    client = server.session(tenant=f"t{slot}")
                    results[slot] = client.sql(FILTER_REFINED)
                except Exception as error:    # noqa: BLE001
                    errors.append(error)

            threads = [threading.Thread(target=refine, args=(slot,))
                       for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            for result in results:
                assert_identical(result, reference)
            # no refinement entered a queue or took a worker
            assert server.scheduler.stats()["admitted"] == admitted_before
            stats = server.metrics()
            noops = (stats["scheduler"]["reuse_noops"]
                     + stats["result_cache"]["hits"])
            assert noops >= 8

    def test_probe_racing_invalidation_never_stale(self, model):
        """Refinements racing ``register_table`` must answer from one of
        the two catalog states, never a mix, and settle on the new one."""
        old = products_table(seed=3)
        new = products_table(seed=11)
        fresh_old = Session(load_default_model=False,
                            semantic_reuse=False)
        fresh_old.register_model(model, default=True)
        fresh_old.register_table("products", old)
        fresh_old.register_table("kb", kb_table())
        reference_old = fresh_old.sql(FILTER_REFINED)
        fresh_new = Session(load_default_model=False,
                            semantic_reuse=False)
        fresh_new.register_model(model, default=True)
        fresh_new.register_table("products", new)
        fresh_new.register_table("kb", kb_table())
        reference_new = fresh_new.sql(FILTER_REFINED)

        with EngineServer(load_default_model=False) as server:
            server.register_model(model, default=True)
            server.register_table("products", old)
            server.register_table("kb", kb_table())
            for _ in range(2):
                server.sql(FILTER_BASE)
            stop = threading.Event()
            errors: list = []

            def refine():
                client = server.session(tenant="prober")
                while not stop.is_set():
                    result = client.sql(FILTER_REFINED)
                    rows = [tuple(r.items()) for r in result.to_rows()]
                    ok_old = rows == [tuple(r.items()) for r
                                      in reference_old.to_rows()]
                    ok_new = rows == [tuple(r.items()) for r
                                      in reference_new.to_rows()]
                    if not (ok_old or ok_new):
                        errors.append(rows)
                        return

            threads = [threading.Thread(target=refine) for _ in range(4)]
            for thread in threads:
                thread.start()
            for _ in range(5):
                server.register_table("products", new, replace=True)
                server.sql(FILTER_BASE)
                server.register_table("products", old, replace=True)
                server.sql(FILTER_BASE)
            server.register_table("products", new, replace=True)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            # settled: the post-invalidation answer is the new state's
            final = server.sql(FILTER_REFINED)
            assert_identical(final, fresh_new.sql(FILTER_REFINED))
