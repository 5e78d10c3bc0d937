"""Generic plans for every promotable family.

- **DATE families** promote: a DATE literal's canonical parameter is
  the day number the binder puts at its plan site, so the site mapping
  is provable and the fourth distinct literal is served generic.
- **A generic serve equals a full serve**: for reuse-augmented
  families (semantic threshold filter and join) and an eligible
  non-augmented one (top-k), the served ``PlannedStatement`` carries
  the plan, reuse spec and aux columns the full path would, later
  refinements are answered by reuse, and results are bit-identical to
  a generic-disabled session.
- **Refusals are counted by reason** on
  ``plan_cache_promotion_refusals_total{reason}``.
"""

from __future__ import annotations

import datetime

import numpy as np
import pytest

from repro.engine.plan_cache import (
    GENERIC_PROMOTION_THRESHOLD,
    PROMOTION_REFUSAL_REASONS,
)
from repro.engine.session import Session
from repro.engine.sql.canonical import canonicalize
from repro.engine.sql.parser import parse_sql
from repro.optimizer.optimizer import OptimizerConfig
from repro.reuse.analysis import AUX_PREFIX
from repro.storage.table import Table
from repro.storage.types import date_to_int

WORDS = ["sneakers", "boots", "sandals", "parka", "jacket", "coat",
         "blazer", "sedan", "truck", "kitten", "puppy", "apple", "shoes",
         "clothes", "dress", "shirt", "van", "pear", "cake", "bread"]


def products_table(size: int = 20, seed: int = 3) -> Table:
    rng = np.random.default_rng(seed)
    start = datetime.date(2022, 1, 1)
    return Table.from_dict({
        "pid": list(range(size)),
        "ptype": [str(v) for v in rng.choice(WORDS, size=size)],
        "price": [float(p) for p in rng.integers(1, 200, size=size)],
        "added": [start + datetime.timedelta(days=int(d))
                  for d in rng.integers(0, 365, size=size)],
    })


def kb_table() -> Table:
    return Table.from_dict({
        "subject": ["shoes", "jacket", "clothes", "dog", "car", "fruit"],
        "object": ["footwear", "outerwear", "apparel", "pet", "vehicle",
                   "food"],
    })


def build_session(model, generic: bool = True, size: int = 20,
                  config: OptimizerConfig | None = None) -> Session:
    session = Session(load_default_model=False, generic_plans=generic,
                      optimizer_config=config)
    session.register_model(model, default=True)
    session.register_table("products", products_table(size))
    session.register_table("kb", kb_table())
    # statistics up front: their lazy computation bumps the catalog
    # version, which would retire the first exemplar's evidence
    for name in ("products", "kb"):
        session.catalog.stats(name)
    return session


def assert_identical(a: Table, b: Table) -> None:
    """Bit-identical: names, dtypes, values, and row order."""
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        left, right = a.columns[name], b.columns[name]
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


def refusals(session: Session) -> dict[str, float]:
    registry = session.state.metrics_registry
    counts = {}
    for reason in PROMOTION_REFUSAL_REASONS:
        counter = registry.get("plan_cache_promotion_refusals_total",
                               {"reason": reason})
        assert counter is not None
        counts[reason] = counter.value
    return counts


def promote(session: Session, statements: list[str]) -> None:
    """Serve the family's exemplars; the family must then be promoted."""
    for text in statements:
        session.sql(text)
    assert session.state.plan_cache.stats()["promotions"] == 1


# ---------------------------------------------------------------------------
# DATE literals
# ---------------------------------------------------------------------------
DATE_FAMILY = ("SELECT pid, price FROM products WHERE added > DATE '{}' "
               "AND price > {} ORDER BY pid")


class TestDateFamilies:
    def test_date_parameter_is_the_bound_day_number(self):
        canonical = canonicalize(parse_sql(
            "SELECT * FROM t WHERE d > DATE '2022-06-01'"))
        assert canonical.parameters == (date_to_int("2022-06-01"),)
        assert "?date" in canonical.template

    def test_unparseable_date_keeps_its_text(self):
        canonical = canonicalize(parse_sql(
            "SELECT * FROM t WHERE d > DATE '2022-13-45'"))
        assert canonical.parameters == ("2022-13-45",)

    def test_date_family_promotes_and_serves_generic(self, model):
        session = build_session(model)
        control = build_session(model, generic=False)
        texts = [DATE_FAMILY.format(day, price) for day, price in (
            ("2022-03-01", 10.5), ("2022-05-17", 20.5),
            ("2022-08-09", 30.5), ("2022-10-30", 40.5))]
        promote(session, texts[:GENERIC_PROMOTION_THRESHOLD])
        before = session.state.plan_cache.stats()["generic_hits"]
        result = session.sql(texts[3])
        assert session.state.plan_cache.stats()["generic_hits"] == before + 1
        assert session.last_profile.plan_cache_hit
        assert_identical(result, control.sql(texts[3]))
        assert refusals(session)["unmappable_sites"] == 0


# ---------------------------------------------------------------------------
# a generic serve equals a full serve
# ---------------------------------------------------------------------------
FILTER_FAMILY = ("SELECT ptype, price FROM products WHERE ptype ~ 'shoes' "
                 "THRESHOLD {} AND price > {} ORDER BY ptype, price")
JOIN_FAMILY = ("SELECT p.ptype, k.subject FROM products AS p "
               "SEMANTIC JOIN kb AS k ON p.ptype ~ k.subject THRESHOLD {} "
               "WHERE p.price > {} ORDER BY p.ptype, k.subject")
TOPK_FAMILY = ("SELECT pid, price FROM products WHERE price < {} "
               "ORDER BY price DESC, pid LIMIT {}")

#: family -> (template, exemplar literals, served literals, refined
#: literals or None when the family has no threshold to tighten)
FAMILIES = {
    "sem_filter": (FILTER_FAMILY,
                   [(0.30, 5.5), (0.35, 6.5), (0.40, 7.5)], (0.25, 3.5),
                   (0.70, 3.5)),
    "sem_join": (JOIN_FAMILY,
                 [(0.30, 5.5), (0.35, 6.5), (0.40, 7.5)], (0.25, 3.5),
                 (0.60, 3.5)),
    "topk": (TOPK_FAMILY, [(150.5, 5), (160.5, 6), (170.5, 7)],
             (180.5, 8), None),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestGenericServeEqualsFullServe:
    def served(self, model, family):
        template, exemplars, literals, _ = FAMILIES[family]
        session = build_session(model)
        control = build_session(model, generic=False)
        promote(session, [template.format(*args) for args in exemplars])
        return session, control, template.format(*literals)

    def test_planned_statement_matches_full_path(self, model, family):
        session, control, text = self.served(model, family)
        hits = session.state.plan_cache.stats()["generic_hits"]
        generic = session.plan_for(text)
        assert session.state.plan_cache.stats()["generic_hits"] == hits + 1
        full = control.plan_for(text)
        assert generic.cache_hit and not full.cache_hit
        assert generic.plan.pretty() == full.plan.pretty()
        assert generic.reuse is not None and full.reuse is not None
        for name in ("family", "slots", "conjunct_ids", "aux_columns",
                     "eligible"):
            assert getattr(generic.reuse, name) == getattr(full.reuse, name)
        assert generic.reuse.eligible

    def test_results_match_and_hide_aux_columns(self, model, family):
        session, control, text = self.served(model, family)
        result = session.sql(text)
        assert session.last_profile.plan_cache_hit
        assert not any(name.startswith(AUX_PREFIX)
                       for name in result.schema.names)
        assert_identical(result, control.sql(text))

    def test_generic_serve_registers_for_reuse(self, model, family):
        session, control, text = self.served(model, family)
        reuse = session.state.reuse_registry
        registered = reuse.stats()["registered"]
        session.sql(text)
        assert reuse.stats()["registered"] == registered + 1
        refined = FAMILIES[family][3]
        if refined is None:
            return
        tightened = FAMILIES[family][0].format(*refined)
        result = session.sql(tightened)
        assert session.last_profile.reuse_hit
        assert_identical(result, control.sql(tightened))


# ---------------------------------------------------------------------------
# refusals by reason
# ---------------------------------------------------------------------------
class TestPromotionRefusals:
    def test_duplicate_literals_are_unmappable(self, model):
        session = build_session(model)
        for value in (5, 6, 7, 8):
            session.sql(f"SELECT pid FROM products WHERE pid > {value} "
                        f"AND price > {value}")
        assert refusals(session)["unmappable_sites"] == 4
        assert session.state.plan_cache.stats()["promotions"] == 0

    def test_data_induced_plans_are_refused_once(self, model):
        # 64 products vs the 6-row kb crosses DIP's probe/build ratio
        session = build_session(model, size=64)
        for threshold in (0.30, 0.35, 0.40, 0.45):
            session.sql(JOIN_FAMILY.format(threshold, 0.5))
        counts = refusals(session)
        assert counts["data_induced"] == 1     # the family is demoted
        assert session.state.plan_cache.stats()["promotions"] == 0

    def test_approximate_access_paths_are_refused(self, model):
        # the pin rejects an approximate path, and every path it accepts
        # is exact, so a pinned join family promotes like any other
        with pytest.raises(ValueError, match="index:lsh"):
            OptimizerConfig(semantic_join_methods=("index:lsh",))
        config = OptimizerConfig(semantic_join_methods=("index:brute",),
                                 enable_dip=False)
        session = build_session(model, config=config)
        for threshold in (0.30, 0.35, 0.40):
            session.sql(JOIN_FAMILY.format(threshold, 5.5))
        assert not any(refusals(session).values())
        assert session.state.plan_cache.stats()["promotions"] == 1

    def test_literal_steered_plans_are_fingerprint_mismatches(self, model):
        # the price literal decides whether DIP prunes the probe side
        # of the equi-join: two exemplars, two plan shapes
        session = Session(load_default_model=False)
        session.register_table("items", Table.from_dict({
            "id": list(range(400)),
            "price": [i * 1.5 for i in range(400)]}))
        session.register_table("orders", Table.from_dict({
            "item_id": [i % 400 for i in range(4000)],
            "total": [float(i % 97) for i in range(4000)]}))
        for name in ("items", "orders"):
            session.catalog.stats(name)
        family = ("SELECT o.total FROM orders o JOIN items i "
                  "ON o.item_id = i.id WHERE i.price > {}")
        session.sql(family.format(1.5))
        session.sql(family.format(590.5))
        assert refusals(session)["fingerprint_mismatch"] == 1
