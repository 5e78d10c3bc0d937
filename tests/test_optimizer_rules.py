"""Tests for rewrite rules: each rule, fixpoint, semantics preservation."""

import pytest

from repro.optimizer.rules import (
    DEFAULT_PHASES,
    DEFAULT_RULES,
    BreakupSelections,
    MergeFilters,
    OrderFilterChain,
    NormalizePredicate,
    PruneColumns,
    PushFilterBelowSemanticFilter,
    PushFilterIntoJoin,
    PushFilterThroughAggregate,
    PushFilterThroughProject,
    PushFilterThroughSemanticJoin,
    RemoveTrivialProject,
    RuleContext,
    normalize_predicate,
    rewrite_fixpoint,
    rewrite_phases,
    substitute,
)
from repro.relational.expressions import (
    AggExpr,
    AggFunc,
    ColumnRef,
    Compare,
    Not,
    Or,
    col,
    lit,
)
from repro.relational.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    JoinType,
    ProjectNode,
    ScanNode,
    SemanticFilterNode,
    SemanticJoinNode,
)
from repro.relational.physical import execute_plan


@pytest.fixture()
def scan_p(products_table):
    return ScanNode("products", products_table.schema, qualifier="p")


@pytest.fixture()
def scan_k(kb_table):
    return ScanNode("kb", kb_table.schema, qualifier="k")


def _rows(plan, context):
    return sorted(map(str, execute_plan(plan, context).to_rows()))


class TestMergeFilters:
    def test_merges(self, scan_p):
        plan = FilterNode(FilterNode(scan_p, col("p.price") > 1),
                          col("p.price") < 100)
        merged = MergeFilters().apply(plan, RuleContext())
        assert isinstance(merged, FilterNode)
        assert isinstance(merged.child, ScanNode)

    def test_no_match(self, scan_p):
        assert MergeFilters().apply(scan_p, RuleContext()) is None


class TestPushThroughProject:
    def test_substitutes_alias(self, scan_p, context):
        project = ProjectNode(scan_p, [(col("p.price") * 2, "double"),
                                       (col("p.pid"), "pid")])
        plan = FilterNode(project, col("double") > 100)
        rewritten = PushFilterThroughProject().apply(plan, RuleContext())
        assert isinstance(rewritten, ProjectNode)
        assert isinstance(rewritten.child, FilterNode)
        assert _rows(plan, context) == _rows(rewritten, context)

    def test_substitute_helper(self):
        mapping = {"alias": col("real") + lit(1)}
        rewritten = substitute(col("alias") > 5, mapping)
        assert rewritten.columns() == {"real"}

    def test_substitute_missing_alias(self):
        with pytest.raises(KeyError):
            substitute(col("ghost") > 5, {})


class TestPushIntoJoin:
    def test_splits_by_side(self, scan_p, scan_k, context):
        join = JoinNode(scan_p, scan_k, JoinType.CROSS)
        plan = FilterNode(join, (col("p.price") > 100)
                          & (col("k.category") == "clothes"))
        rewritten = PushFilterIntoJoin().apply(plan, RuleContext())
        assert isinstance(rewritten, JoinNode)
        assert isinstance(rewritten.left, FilterNode)
        assert isinstance(rewritten.right, FilterNode)
        assert _rows(plan, context) == _rows(rewritten, context)

    def test_residual_predicate_stays(self, scan_p, scan_k):
        join = JoinNode(scan_p, scan_k, JoinType.CROSS)
        plan = FilterNode(join, (col("p.ptype") == col("k.label"))
                          & (col("p.price") > 1))
        rewritten = PushFilterIntoJoin().apply(plan, RuleContext())
        assert isinstance(rewritten, FilterNode)  # cross-side part remains
        assert isinstance(rewritten.child, JoinNode)

    def test_left_join_not_rewritten(self, scan_p, scan_k):
        join = JoinNode(scan_p, scan_k, JoinType.LEFT,
                        ["p.ptype"], ["k.label"])
        plan = FilterNode(join, col("k.category") == "clothes")
        assert PushFilterIntoJoin().apply(plan, RuleContext()) is None


class TestPushThroughSemanticJoin:
    def test_pushes_both_sides(self, scan_p, scan_k, context):
        join = SemanticJoinNode(scan_p, scan_k, "p.ptype", "k.label",
                                "wiki-ft-100", 0.9)
        plan = FilterNode(join, (col("p.price") > 20)
                          & (col("k.category") == "clothes"))
        rewritten = PushFilterThroughSemanticJoin().apply(plan,
                                                          RuleContext())
        assert isinstance(rewritten, SemanticJoinNode)
        assert isinstance(rewritten.left, FilterNode)
        assert isinstance(rewritten.right, FilterNode)
        assert _rows(plan, context) == _rows(rewritten, context)

    def test_score_predicate_not_pushed(self, scan_p, scan_k):
        join = SemanticJoinNode(scan_p, scan_k, "p.ptype", "k.label",
                                "wiki-ft-100", 0.9,
                                score_alias="similarity")
        plan = FilterNode(join, col("similarity") > 0.95)
        assert PushFilterThroughSemanticJoin().apply(
            plan, RuleContext()) is None


class TestPushBelowSemanticFilter:
    def test_relational_filter_sinks(self, scan_p, context):
        semantic = SemanticFilterNode(scan_p, "p.ptype", "clothes",
                                      "wiki-ft-100", 0.7)
        plan = FilterNode(semantic, col("p.price") > 20)
        rewritten = PushFilterBelowSemanticFilter().apply(plan,
                                                          RuleContext())
        assert isinstance(rewritten, SemanticFilterNode)
        assert isinstance(rewritten.child, FilterNode)
        assert _rows(plan, context) == _rows(rewritten, context)

    def test_score_reference_blocks(self, scan_p):
        semantic = SemanticFilterNode(scan_p, "p.ptype", "clothes",
                                      "wiki-ft-100", 0.7,
                                      score_alias="score")
        plan = FilterNode(semantic, col("score") > 0.8)
        assert PushFilterBelowSemanticFilter().apply(
            plan, RuleContext()) is None


class TestPushThroughAggregate:
    def test_key_predicate_pushes(self, scan_p, context):
        aggregate = AggregateNode(scan_p, ["p.brand"],
                                  [AggExpr(AggFunc.COUNT, None, "n")])
        plan = FilterNode(aggregate, col("p.brand") == "acme")
        rewritten = PushFilterThroughAggregate().apply(plan, RuleContext())
        assert isinstance(rewritten, AggregateNode)
        assert isinstance(rewritten.child, FilterNode)
        assert _rows(plan, context) == _rows(rewritten, context)

    def test_agg_output_predicate_stays(self, scan_p):
        aggregate = AggregateNode(scan_p, ["p.brand"],
                                  [AggExpr(AggFunc.COUNT, None, "n")])
        plan = FilterNode(aggregate, col("n") > 1)
        assert PushFilterThroughAggregate().apply(plan,
                                                  RuleContext()) is None


class TestRemoveTrivialProject:
    def test_removes_identity(self, scan_p):
        identity = ProjectNode(scan_p, [
            (ColumnRef(n), n) for n in scan_p.schema.names])
        assert RemoveTrivialProject().apply(identity,
                                            RuleContext()) is scan_p

    def test_keeps_non_identity(self, scan_p):
        project = ProjectNode(scan_p, [(col("p.pid"), "pid")])
        assert RemoveTrivialProject().apply(project, RuleContext()) is None


class TestPruneColumns:
    def test_inserts_projection_over_scan(self, scan_p, scan_k, context):
        join = SemanticJoinNode(scan_p, scan_k, "p.ptype", "k.label",
                                "wiki-ft-100", 0.9)
        plan = ProjectNode(join, [(col("p.pid"), "pid")])
        pruned = PruneColumns().run(plan)
        scans_with_project = [
            node for node in pruned.walk()
            if isinstance(node, ProjectNode)
            and node.children and isinstance(node.child, ScanNode)
        ]
        assert scans_with_project  # at least one scan now pruned
        assert _rows(plan, context) == _rows(pruned, context)

    def test_keeps_filter_columns(self, scan_p, context):
        plan = ProjectNode(FilterNode(scan_p, col("p.price") > 20),
                           [(col("p.pid"), "pid")])
        pruned = PruneColumns().run(plan)
        assert _rows(plan, context) == _rows(pruned, context)


class TestFixpoint:
    def test_filter_reaches_scans_through_stack(self, scan_p, scan_k,
                                                context):
        join = SemanticJoinNode(scan_p, scan_k, "p.ptype", "k.label",
                                "wiki-ft-100", 0.9)
        plan = FilterNode(FilterNode(join, col("p.price") > 20),
                          col("k.category") == "clothes")
        ctx = RuleContext()
        rewritten = rewrite_fixpoint(plan, DEFAULT_RULES, ctx)
        assert isinstance(rewritten, SemanticJoinNode)
        assert ctx.applied  # rules fired
        assert _rows(plan, context) == _rows(rewritten, context)

    def test_fixpoint_idempotent(self, scan_p):
        plan = FilterNode(scan_p, col("p.price") > 20)
        once = rewrite_fixpoint(plan, DEFAULT_RULES)
        twice = rewrite_fixpoint(once, DEFAULT_RULES)
        assert once.pretty() == twice.pretty()


@pytest.fixture()
def scan_q(products_table):
    """A second scan of products (qualifier q): every column name is
    then present on both sides of a self-join, so unqualified suffixes
    are ambiguous between the inputs."""
    return ScanNode("products", products_table.schema, qualifier="q")


class TestSplitBySideAmbiguity:
    """Regression: a column resolving in *both* join inputs used to be
    silently pushed to the left side, changing results."""

    def test_ambiguous_column_stays_residual(self, scan_p, scan_q):
        join = JoinNode(scan_p, scan_q, JoinType.INNER,
                        ["p.pid"], ["q.pid"])
        plan = FilterNode(join, col("price") > 20)  # p.price or q.price?
        assert PushFilterIntoJoin().apply(plan, RuleContext()) is None

    def test_qualified_column_still_pushes(self, scan_p, scan_q, context):
        join = JoinNode(scan_p, scan_q, JoinType.INNER,
                        ["p.pid"], ["q.pid"])
        plan = FilterNode(join, col("p.price") > 20)
        rewritten = PushFilterIntoJoin().apply(plan, RuleContext())
        assert isinstance(rewritten, JoinNode)
        assert isinstance(rewritten.left, FilterNode)
        assert not isinstance(rewritten.right, FilterNode)
        assert _rows(plan, context) == _rows(rewritten, context)

    def test_mixed_conjunct_splits_only_unambiguous(self, scan_p, scan_q,
                                                    context):
        join = JoinNode(scan_p, scan_q, JoinType.INNER,
                        ["p.pid"], ["q.pid"])
        plan = FilterNode(join, (col("p.price") > 2) & (col("brand")
                                                        == "acme"))
        rewritten = PushFilterIntoJoin().apply(plan, RuleContext())
        # the qualified part sank left; the ambiguous part is residual
        assert isinstance(rewritten, FilterNode)
        assert rewritten.predicate.columns() == {"brand"}
        assert isinstance(rewritten.child, JoinNode)
        assert isinstance(rewritten.child.left, FilterNode)

    def test_ambiguous_column_semantic_join(self, scan_p, scan_q):
        join = SemanticJoinNode(scan_p, scan_q, "p.ptype", "q.ptype",
                                "wiki-ft-100", 0.9)
        plan = FilterNode(join, col("brand") == "acme")
        assert PushFilterThroughSemanticJoin().apply(
            plan, RuleContext()) is None

    def test_qualified_column_semantic_join_pushes(self, scan_p, scan_q):
        join = SemanticJoinNode(scan_p, scan_q, "p.ptype", "q.ptype",
                                "wiki-ft-100", 0.9)
        plan = FilterNode(join, col("q.brand") == "acme")
        rewritten = PushFilterThroughSemanticJoin().apply(
            plan, RuleContext())
        assert isinstance(rewritten, SemanticJoinNode)
        assert isinstance(rewritten.right, FilterNode)
        assert not isinstance(rewritten.left, FilterNode)


class TestAggregateKeySubstitution:
    """Regression: pushed group-key predicates must be substituted back
    to the child's canonical column names, not copied verbatim."""

    def test_suffix_spelling_pushes_substituted(self, scan_p, context):
        # group key spelled "brand"; child's canonical name is
        # "p.brand", and so is the aggregate's output field
        aggregate = AggregateNode(scan_p, ["brand"],
                                  [AggExpr(AggFunc.COUNT, None, "n")])
        plan = FilterNode(aggregate, col("p.brand") == "acme")
        rewritten = PushFilterThroughAggregate().apply(plan, RuleContext())
        assert isinstance(rewritten, AggregateNode)
        assert isinstance(rewritten.child, FilterNode)
        assert rewritten.child.predicate.columns() == {"p.brand"}
        assert _rows(plan, context) == _rows(rewritten, context)

    def test_substitution_disambiguates_child_columns(self, scan_p,
                                                      scan_q, context):
        # the aggregate's child is a self-join: pushing the predicate's
        # "brand" spelling verbatim would be ambiguous in the child;
        # substitution rewrites it to the key's canonical "p.brand"
        join = JoinNode(scan_p, scan_q, JoinType.INNER,
                        ["p.pid"], ["q.pid"])
        aggregate = AggregateNode(join, ["p.brand"],
                                  [AggExpr(AggFunc.COUNT, None, "n")])
        plan = FilterNode(aggregate, col("brand") == "acme")
        rewritten = PushFilterThroughAggregate().apply(plan, RuleContext())
        assert isinstance(rewritten, AggregateNode)
        assert rewritten.child.predicate.columns() == {"p.brand"}
        assert _rows(plan, context) == _rows(rewritten, context)

    def test_non_key_reference_refused(self, scan_p):
        aggregate = AggregateNode(scan_p, ["brand"],
                                  [AggExpr(AggFunc.COUNT, None, "n")])
        plan = FilterNode(aggregate, (col("p.brand") == "acme")
                          & (col("n") > 1))
        rewritten = PushFilterThroughAggregate().apply(plan, RuleContext())
        # key part sinks, aggregate-result part stays residual
        assert isinstance(rewritten, FilterNode)
        assert rewritten.predicate.columns() == {"n"}
        assert isinstance(rewritten.child, AggregateNode)


class TestNormalizePredicate:
    def test_double_negation(self):
        expr = Not(Not(col("p.price") > 3))
        assert normalize_predicate(expr).same_as(col("p.price") > 3)

    def test_de_morgan_not_or(self):
        expr = Not(Or(col("p.brand") == "acme", col("p.price") > 100))
        normalized = normalize_predicate(expr)
        expected = (col("p.brand") != "acme") & Not(col("p.price") > 100)
        assert normalized.same_as(expected)

    def test_inequalities_not_flipped(self):
        # NOT(a < b) is NOT a >= b under NaN semantics: keep the Not
        normalized = normalize_predicate(Not(col("p.price") < 3))
        assert isinstance(normalized, Not)

    def test_equality_flips(self):
        normalized = normalize_predicate(Not(col("p.brand") == "acme"))
        assert isinstance(normalized, Compare)
        assert normalized.op == "!="

    def test_idempotent(self):
        expr = Not(Or(Not(col("p.brand") == "x"), col("p.price") > 1))
        once = normalize_predicate(expr)
        assert normalize_predicate(once).same_as(once)

    def test_rule_preserves_semantics(self, scan_p, context):
        plan = FilterNode(scan_p, Not(Or(col("p.brand") == "acme",
                                         col("p.price") > 100)))
        rewritten = NormalizePredicate().apply(plan, RuleContext())
        assert rewritten is not None
        assert _rows(plan, context) == _rows(rewritten, context)

    def test_unmasks_conjuncts_for_join_pushdown(self, scan_p, scan_k,
                                                 context):
        # NOT(p-pred OR k-pred) hides two single-side conjuncts; the
        # phased suite normalizes, then sinks each below the join
        join = JoinNode(scan_p, scan_k, JoinType.CROSS)
        plan = FilterNode(join, Not(Or(col("p.brand") == "acme",
                                       col("k.category") == "clothes")))
        rewritten = rewrite_phases(plan, ctx=RuleContext())
        assert isinstance(rewritten, JoinNode)
        assert isinstance(rewritten.left, FilterNode)
        assert isinstance(rewritten.right, FilterNode)
        assert _rows(plan, context) == _rows(rewritten, context)


class TestBreakupSelections:
    def test_splits_conjunction_into_chain(self, scan_p, context):
        plan = FilterNode(scan_p, (col("p.price") > 2)
                          & (col("p.brand") == "acme"))
        rewritten = BreakupSelections().apply(plan, RuleContext())
        assert isinstance(rewritten, FilterNode)
        assert isinstance(rewritten.child, FilterNode)
        assert isinstance(rewritten.child.child, ScanNode)
        assert _rows(plan, context) == _rows(rewritten, context)

    def test_single_conjunct_untouched(self, scan_p):
        plan = FilterNode(scan_p, col("p.price") > 2)
        assert BreakupSelections().apply(plan, RuleContext()) is None

    def test_not_in_merge_fixpoint(self):
        # MergeFilters and BreakupSelections must never share a
        # fixpoint: the pair ping-pongs forever
        merge_names = {rule.name for rule in DEFAULT_RULES}
        assert "breakup_selections" not in merge_names
        for phase in DEFAULT_PHASES:
            names = {rule.name for rule in phase}
            assert not ({"merge_filters", "breakup_selections"} <= names)

    def test_phases_end_in_filter_chain(self, scan_p, context):
        plan = FilterNode(scan_p, (col("p.price") > 2)
                          & (col("p.brand") == "acme"))
        ctx = RuleContext()
        rewritten = rewrite_phases(plan, ctx=ctx)
        assert ctx.converged
        assert isinstance(rewritten, FilterNode)
        assert isinstance(rewritten.child, FilterNode)
        assert _rows(plan, context) == _rows(rewritten, context)


class TestPartialProjectPushdown:
    def test_unmapped_alias_stays_residual(self, scan_p, context):
        project = ProjectNode(scan_p, [(col("p.price"), "p.price"),
                                       (col("p.brand"), "brand")])
        plan = FilterNode(project, (col("brand") == "acme")
                          & (col("price") > 3))
        rewritten = PushFilterThroughProject().apply(plan, RuleContext())
        # "brand" maps through the projection and sinks; "price" is not
        # a projection alias (only "p.price" is) and stays residual
        assert isinstance(rewritten, FilterNode)
        assert rewritten.predicate.columns() == {"price"}
        assert isinstance(rewritten.child, ProjectNode)
        assert isinstance(rewritten.child.child, FilterNode)
        assert rewritten.child.child.predicate.columns() == {"p.brand"}
        assert _rows(plan, context) == _rows(rewritten, context)


class TestNonConvergence:
    def test_pingpong_pair_flagged(self, scan_p):
        plan = FilterNode(scan_p, (col("p.price") > 2)
                          & (col("p.brand") == "acme"))
        ctx = RuleContext()
        rewrite_fixpoint(plan, [MergeFilters(), BreakupSelections()],
                         ctx, max_passes=6)
        assert ctx.converged is False
        assert ctx.passes == 6

    def test_convergent_suite_not_flagged(self, scan_p):
        plan = FilterNode(scan_p, (col("p.price") > 2)
                          & (col("p.brand") == "acme"))
        ctx = RuleContext()
        rewrite_phases(plan, ctx=ctx)
        assert ctx.converged is True
        assert ctx.passes >= 2

    def test_optimizer_reports_and_counts(self, catalog):
        from repro.optimizer.optimizer import Optimizer, OptimizerConfig

        config = OptimizerConfig(
            rules=[MergeFilters(), BreakupSelections()],
            enable_prune=False, enable_join_order=False,
            enable_dip=False, enable_physical=False,
            compiled_pipelines="off")
        optimizer = Optimizer(catalog, config=config)
        scan = ScanNode("products", catalog.get("products").schema,
                        qualifier="p")
        plan = FilterNode(scan, (col("p.price") > 2)
                          & (col("p.brand") == "acme"))
        optimizer.optimize(plan)
        report = optimizer.last_report
        assert report.rewrite_converged is False
        assert optimizer._nonconvergence.value >= 1


# ----------------------------------------------------------------------
# radb-style rule table: build a plan, apply ONE rule once at the root,
# compare the printed algebra.  One row per rule in optimizer/rules.py,
# plus the two must-not-push shapes (a column resolving on both join
# sides keeps its conjunct above the join — unchanged plan).
# ----------------------------------------------------------------------
_M = "wiki-ft-100"


def _p(schema):
    return ScanNode("products", schema, qualifier="p")


def _q(schema):
    return ScanNode("products", schema, qualifier="q")


def _k(schema):
    return ScanNode("kb", schema, qualifier="k")


def _once(rule):
    def apply(plan, ctx):
        rewritten = rule.apply(plan, ctx)
        return plan if rewritten is None else rewritten
    return apply


RULE_CASES = [
    ("merge_filters",
     lambda p, k: FilterNode(FilterNode(_p(p), col("p.price") > 1),
                             col("p.price") < 100),
     _once(MergeFilters()),
     """\
Filter[((col(p.price) < lit(100)) AND (col(p.price) > lit(1)))]
  Scan(products AS p)"""),
    ("normalize_predicate",
     lambda p, k: FilterNode(_p(p), Not(Or(col("p.price") > 20,
                                           col("p.brand") == "acme"))),
     _once(NormalizePredicate()),
     """\
Filter[((NOT (col(p.price) > lit(20))) AND (col(p.brand) != lit('acme')))]
  Scan(products AS p)"""),
    ("breakup_selections",
     lambda p, k: FilterNode(_p(p), (col("p.price") > 20)
                             & (col("p.brand") == "acme")),
     _once(BreakupSelections()),
     """\
Filter[(col(p.price) > lit(20))]
  Filter[(col(p.brand) = lit('acme'))]
    Scan(products AS p)"""),
    ("push_filter_through_project",
     lambda p, k: FilterNode(
         ProjectNode(_p(p), [(col("p.price") * 2, "double"),
                             (col("p.pid"), "pid")]),
         col("double") > 100),
     _once(PushFilterThroughProject()),
     """\
Project[(col(p.price) * lit(2)) AS double, col(p.pid) AS pid]
  Filter[((col(p.price) * lit(2)) > lit(100))]
    Scan(products AS p)"""),
    ("push_filter_into_join",
     lambda p, k: FilterNode(
         JoinNode(_p(p), _k(k), JoinType.INNER, ["p.ptype"], ["k.label"]),
         (col("p.price") > 20) & (col("k.category") == "clothes")),
     _once(PushFilterIntoJoin()),
     """\
Join[inner: p.ptype=k.label]
  Filter[(col(p.price) > lit(20))]
    Scan(products AS p)
  Filter[(col(k.category) = lit('clothes'))]
    Scan(kb AS k)"""),
    ("push_filter_into_join: column on both sides stays",
     lambda p, k: FilterNode(
         JoinNode(_p(p), _q(p), JoinType.INNER, ["p.pid"], ["q.pid"]),
         col("price") > 20),
     _once(PushFilterIntoJoin()),
     """\
Filter[(col(price) > lit(20))]
  Join[inner: p.pid=q.pid]
    Scan(products AS p)
    Scan(products AS q)"""),
    ("push_filter_through_semantic_join",
     lambda p, k: FilterNode(
         SemanticJoinNode(_p(p), _k(k), "p.ptype", "k.label", _M, 0.8),
         col("k.category") == "clothes"),
     _once(PushFilterThroughSemanticJoin()),
     """\
SemanticJoin[p.ptype ~ k.label model=wiki-ft-100 >= 0.8 method=auto]
  Scan(products AS p)
  Filter[(col(k.category) = lit('clothes'))]
    Scan(kb AS k)"""),
    ("push_filter_through_semantic_join: column on both sides stays",
     lambda p, k: FilterNode(
         SemanticJoinNode(_p(p), _q(p), "p.ptype", "q.ptype", _M, 0.9),
         col("brand") == "acme"),
     _once(PushFilterThroughSemanticJoin()),
     """\
Filter[(col(brand) = lit('acme'))]
  SemanticJoin[p.ptype ~ q.ptype model=wiki-ft-100 >= 0.9 method=auto]
    Scan(products AS p)
    Scan(products AS q)"""),
    ("push_filter_below_semantic_filter",
     lambda p, k: FilterNode(
         SemanticFilterNode(_p(p), "p.ptype", "clothes", _M, 0.7),
         col("p.price") > 20),
     _once(PushFilterBelowSemanticFilter()),
     """\
SemanticFilter[p.ptype ~ 'clothes' model=wiki-ft-100 >= 0.7]
  Filter[(col(p.price) > lit(20))]
    Scan(products AS p)"""),
    ("push_filter_through_aggregate",
     lambda p, k: FilterNode(
         AggregateNode(_p(p), ["p.brand"],
                       [AggExpr(AggFunc.COUNT, None, "n")]),
         (col("brand") == "acme") & (col("n") > 1)),
     _once(PushFilterThroughAggregate()),
     """\
Filter[(col(n) > lit(1))]
  Aggregate[keys=['p.brand']; count(*) AS n]
    Filter[(col(p.brand) = lit('acme'))]
      Scan(products AS p)"""),
    ("order_filter_chain",
     lambda p, k: SemanticFilterNode(
         SemanticFilterNode(_p(p), "p.ptype", "clothes", _M, 0.7),
         "p.ptype", "sneakers", _M, 0.95),
     _once(OrderFilterChain()),
     # the more selective (sneakers @ 0.95) filter sinks to run first
     """\
SemanticFilter[p.ptype ~ 'clothes' model=wiki-ft-100 >= 0.7]
  SemanticFilter[p.ptype ~ 'sneakers' model=wiki-ft-100 >= 0.95]
    Scan(products AS p)"""),
    ("remove_trivial_project",
     lambda p, k: ProjectNode(_k(k), [(col("k.label"), "k.label"),
                                      (col("k.category"), "k.category")]),
     _once(RemoveTrivialProject()),
     """\
Scan(kb AS k)"""),
    ("prune_columns",
     lambda p, k: ProjectNode(
         FilterNode(_p(p), col("p.price") > 20), [(col("p.pid"), "pid")]),
     lambda plan, ctx: PruneColumns().run(plan),
     """\
Project[col(p.pid) AS pid]
  Filter[(col(p.price) > lit(20))]
    Project[col(p.pid) AS p.pid, col(p.price) AS p.price]
      Scan(products AS p)"""),
]


@pytest.mark.parametrize("name,build,apply,expected", RULE_CASES,
                         ids=[case[0] for case in RULE_CASES])
def test_rule_prints_expected_algebra(name, build, apply, expected,
                                      products_table, kb_table, catalog,
                                      registry):
    from repro.optimizer.cardinality import CardinalityEstimator

    plan = build(products_table.schema, kb_table.schema)
    ctx = RuleContext(estimator=CardinalityEstimator(catalog, registry))
    assert apply(plan, ctx).pretty() == expected
