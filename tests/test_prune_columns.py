"""Generic column pruning against its per-node-type oracle.

``PruneColumns`` asks each node what it reads (``LogicalPlan.reads``,
derived from its ``column_fields`` and expressions) instead of spelling
that out per node type.  ``ReferencePruneColumns``
(``tests/reference_operators.py``) is the per-type ladder it replaced.

- **differential** — over the plan strategy of
  ``test_rewrite_equivalence`` (raw, and after the phased rewrite
  suite), bare and under a narrowing projection, both print the same
  plan, and the pruned plan answers like the unpruned one;
- **pinned shapes** — where the two differ, the generic rule keeps
  columns the oracle drops, never the other way round.

The one shape the oracle builds and the generic rule does not is a
narrowing projection between a projection and its scan: the projection
above narrows the scan already, so the differential drops those from
the oracle's plan (``_without_narrowing_under_projections``).
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_operators import ReferencePruneColumns
from repro.engine.session import Session
from repro.errors import SchemaError
from repro.optimizer.rules import (
    DEFAULT_PHASES,
    PruneColumns,
    RuleContext,
    rewrite_phases,
)
from repro.relational.expressions import col
from repro.relational.logical import JoinNode, JoinType, ProjectNode, ScanNode
from repro.relational.physical import ExecutionContext, execute_plan
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from test_rewrite_equivalence import SETTINGS, plans


def _rows(plan, context) -> list[str]:
    return sorted(map(str, execute_plan(plan, context).to_rows()))


def _without_narrowing_under_projections(pruned, root):
    """The oracle's ``pruned`` plan for ``root`` without the narrowing
    projections it inserted directly beneath a projection (the oracle
    inserts nodes only above scans, so ``pruned`` mirrors ``root``
    elsewhere)."""
    children = []
    for pruned_child, root_child in zip(pruned.children, root.children):
        if isinstance(pruned, ProjectNode) \
                and isinstance(root_child, ScanNode) \
                and isinstance(pruned_child, ProjectNode):
            children.append(pruned_child.child)
        else:
            children.append(_without_narrowing_under_projections(
                pruned_child, root_child))
    return pruned.with_children(tuple(children)) if children else pruned


class TestMatchesOracle:
    @given(data=st.data())
    @SETTINGS
    def test_same_plan_as_oracle(self, data, catalog, context):
        plan = data.draw(plans(catalog))
        for candidate in (plan, rewrite_phases(plan, DEFAULT_PHASES,
                                               RuleContext())):
            kept = data.draw(st.lists(st.sampled_from(
                candidate.schema.names), min_size=1, unique=True))
            narrowed = ProjectNode(candidate, [(col(n), n) for n in kept])
            for root in (candidate, narrowed):
                pruned = PruneColumns().run(root)
                oracle = _without_narrowing_under_projections(
                    ReferencePruneColumns().run(root), root)
                assert pruned.pretty() == oracle.pretty()
                assert _rows(pruned, context) == _rows(root, context)


class TestGenericKeepsMore:
    def _join(self, left_qualifier: str | None, right_qualifier: str,
              **join):
        items = Table.from_dict({"id": [1, 2, 3],
                                 "price": [5.0, 50.0, 500.0]})
        tags = Table.from_dict({"id": [10, 11, 12, 13],
                                "item": [1, 2, 3, 3],
                                "tag": ["a", "b", "c", "d"],
                                "note": ["w", "x", "y", "z"]})
        catalog = Catalog()
        catalog.register("items", items)
        catalog.register("tags", tags)
        plan = JoinNode(ScanNode("items", items.schema, left_qualifier),
                        ScanNode("tags", tags.schema, right_qualifier),
                        **join)
        return plan, ExecutionContext(catalog=catalog)

    def test_suffix_spelled_join_predicate_column(self):
        # the oracle kept only extra-predicate columns spelled exactly as
        # a child spells them: "price" (for "i.price") was pruned away
        # below the join, and the pruned plan failed to evaluate it
        plan, context = self._join(
            "i", "t", join_type=JoinType.INNER, left_keys=["i.id"],
            right_keys=["t.item"], extra_predicate=col("price") > 20)
        plan = ProjectNode(plan, [(col("t.tag"), "tag")])
        generic = PruneColumns().run(plan)
        oracle = ReferencePruneColumns().run(plan)
        assert generic.pretty().splitlines()[2] == "    Scan(items AS i)"
        assert oracle.pretty().splitlines()[2:4] == [
            "    Project[col(i.id) AS i.id]", "      Scan(items AS i)"]
        with pytest.raises(SchemaError, match="'price'"):
            _rows(oracle, context)
        assert _rows(generic, context) == _rows(plan, context) == [
            "{'tag': 'b'}", "{'tag': 'c'}", "{'tag': 'd'}"]

    def test_unqualified_name_resolving_on_both_sides(self):
        # the left key "id" is spelled exactly as the unqualified left
        # scan spells it, and also resolves on the right (as "t.id"):
        # the generic rule keeps that right column too
        plan, context = self._join(
            None, "t", join_type=JoinType.INNER, left_keys=["id"],
            right_keys=["t.item"])
        plan = ProjectNode(plan, [(col("t.tag"), "tag")])
        generic = PruneColumns().run(plan)
        oracle = ReferencePruneColumns().run(plan)
        assert generic.pretty().splitlines()[4] == (
            "    Project[col(t.id) AS t.id, col(t.item) AS t.item, "
            "col(t.tag) AS t.tag]")
        assert oracle.pretty().splitlines()[4] == (
            "    Project[col(t.item) AS t.item, col(t.tag) AS t.tag]")
        assert _rows(generic, context) == _rows(oracle, context) \
            == _rows(plan, context)


class TestProjectionNarrowsItsScan:
    def test_named_group_key_plans_one_projection(self):
        session = Session()
        session.register_table("t", Table.from_dict(
            {"a": [1, 2, 2], "b": ["x", "y", "z"]}))
        statement = "SELECT a AS k, COUNT(*) AS n FROM t GROUP BY a"
        assert session.explain(statement).count("Project[") == 1
        assert sorted(map(str, session.sql(statement).to_rows())) == [
            "{'k': 1, 'n': 1}", "{'k': 2, 'n': 2}"]

    def test_no_narrowing_projection_under_a_projection(self):
        table = Table.from_dict({"a": [1, 2], "b": ["x", "y"]})
        plan = ProjectNode(ScanNode("t", table.schema),
                           [(col("a"), "k")])
        pruned = PruneColumns().run(plan)
        assert pruned.pretty().splitlines() == [
            "Project[col(a) AS k]", "  Scan(t)"]
