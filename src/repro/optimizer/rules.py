"""Rule-based logical rewrites.

Each rule is a local transformation tried at every node; the engine runs
the rule set bottom-up to fixpoint.  The rules encode the "decades of
database community research" the paper wants applied to context-rich
plans: filter pushdown through (semantic) joins, predicate reordering
around expensive model operators, projection pruning.

The optimizer runs the suite in three **phases** (see
:data:`DEFAULT_PHASES` and ``docs/optimizer.md``), each to its own
fixpoint:

1. *normalize* — Not/Or normalization exposes conjuncts hidden under
   negations so the pushdown phase can sink them independently;
2. *pushdown* — filter merging plus every pushdown rule (each splits
   conjunctions internally, so parts sink independently and the
   unpushable residue stays put);
3. *breakup* — remaining conjunctive filters are broken into chains
   (``And`` -> stacked single-predicate filters) so costing, EXPLAIN,
   and predicate ordering see one predicate per operator.

:data:`DEFAULT_RULES` remains the flat one-phase suite (what ablation
configs and direct ``rewrite_fixpoint`` callers use); it excludes
:class:`BreakupSelections`, which would ping-pong with
:class:`MergeFilters` inside a single fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.relational.expressions import (
    And,
    ColumnRef,
    Compare,
    Expr,
    Not,
    Or,
    combine_conjuncts,
    split_conjuncts,
)
from repro.relational.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    JoinType,
    LogicalPlan,
    ProjectNode,
    ScanNode,
    SemanticFilterNode,
    SemanticJoinNode,
    SemanticSemiFilterNode,
)
from repro.storage.schema import Schema


@dataclass
class RuleContext:
    """Shared services available to rules."""

    estimator: object | None = None   # CardinalityEstimator
    cost_model: object | None = None  # CostModel
    applied: dict[str, int] = field(default_factory=dict)
    #: Total bottom-up passes executed across every fixpoint this
    #: context was threaded through.
    passes: int = 0
    #: False when any fixpoint ran out of ``max_passes`` while rules
    #: were still firing — the optimizer surfaces this on its report
    #: and the ``optimizer_rewrite_nonconvergence_total`` counter.
    converged: bool = True

    def record(self, rule_name: str) -> None:
        self.applied[rule_name] = self.applied.get(rule_name, 0) + 1


class RewriteRule:
    """Base rewrite rule: return a replacement node, or None."""

    name = "rewrite"

    def apply(self, node: LogicalPlan,
              ctx: RuleContext) -> LogicalPlan | None:
        raise NotImplementedError


def _resolves_in(columns: set[str], schema: Schema) -> bool:
    """True when every referenced column can be resolved in ``schema``."""
    return all(_resolves_one(name, schema) for name in columns)


def _resolves_one(name: str, schema: Schema) -> bool:
    try:
        schema.index_of(name)
    except Exception:
        return False
    return True


#: How a comparison operator flips under NOT.  Only equality flips:
#: ``NOT (a < b)`` is *not* ``a >= b`` for float columns containing
#: NaN (both orderings evaluate False on NaN rows, so the negation and
#: the flipped comparison disagree), while ``=``/``!=`` negate cleanly
#: (``NaN = x`` is False and ``NaN != x`` is True under either spelling).
_NEGATED_COMPARE = {"=": "!=", "!=": "="}


def normalize_predicate(expr: Expr) -> Expr:
    """Not/Or-aware normalization: push negations inward (De Morgan),
    eliminate double negation, and flip negated equalities, so the
    conjuncts hidden under ``NOT (a OR b)`` become visible to
    ``split_conjuncts`` and can sink independently.

    Idempotent by construction: the result contains no ``Not`` above an
    ``And``/``Or``/``Not``/equality, so a second application is the
    identity — which is what makes :class:`NormalizePredicate`
    convergent inside a fixpoint.
    """
    if isinstance(expr, And):
        return And(normalize_predicate(expr.left),
                   normalize_predicate(expr.right))
    if isinstance(expr, Or):
        return Or(normalize_predicate(expr.left),
                  normalize_predicate(expr.right))
    if isinstance(expr, Not):
        inner = expr.operand
        if isinstance(inner, Not):
            return normalize_predicate(inner.operand)
        if isinstance(inner, And):
            return Or(normalize_predicate(Not(inner.left)),
                      normalize_predicate(Not(inner.right)))
        if isinstance(inner, Or):
            return And(normalize_predicate(Not(inner.left)),
                       normalize_predicate(Not(inner.right)))
        if isinstance(inner, Compare) and inner.op in _NEGATED_COMPARE:
            return Compare(_NEGATED_COMPARE[inner.op], inner.left,
                           inner.right)
        return Not(inner)
    # leaves (ColumnRef/Literal/Compare/Arith/InList/Func) are already
    # normal: negations cannot hide conjuncts below them
    return expr


class MergeFilters(RewriteRule):
    """``Filter(Filter(x, p2), p1) -> Filter(x, p1 AND p2)``."""

    name = "merge_filters"

    def apply(self, node, ctx):
        if isinstance(node, FilterNode) and isinstance(node.child, FilterNode):
            merged = And(node.predicate, node.child.predicate)
            return FilterNode(node.child.child, merged)
        return None


class NormalizePredicate(RewriteRule):
    """Rewrite filter predicates to negation normal form.

    ``NOT (a OR b)`` hides two conjuncts the pushdown rules could sink
    to different inputs; after normalization they are ordinary
    ``split_conjuncts`` parts.  See :func:`normalize_predicate` for the
    NaN caveat that keeps inequality flips out of the normalization.
    """

    name = "normalize_predicate"

    def apply(self, node, ctx):
        if not isinstance(node, FilterNode):
            return None
        normalized = normalize_predicate(node.predicate)
        if normalized.same_as(node.predicate):
            return None
        return FilterNode(node.child, normalized)


class BreakupSelections(RewriteRule):
    """``Filter(x, a AND b) -> Filter(Filter(x, b), a)`` (selection
    breakup: one predicate per filter operator).

    Runs in its own phase (:data:`DEFAULT_PHASES`), never in the same
    fixpoint as :class:`MergeFilters` — the pair would ping-pong and
    trip the non-convergence guard.
    """

    name = "breakup_selections"

    def apply(self, node, ctx):
        if not isinstance(node, FilterNode):
            return None
        parts = split_conjuncts(node.predicate)
        if len(parts) < 2:
            return None
        plan = node.child
        for part in reversed(parts):
            plan = FilterNode(plan, part)
        return plan


class PushFilterThroughProject(RewriteRule):
    """Move a filter below a projection, substituting aliases.

    Rename-aware and *partial*: each conjunct is substituted through the
    projection's alias mapping independently, so the parts a renaming
    projection can absorb sink below it while the rest (aliases without
    a child-resolvable substitution, references to computed columns the
    child cannot provide) stay above as the residual filter.
    """

    name = "push_filter_through_project"

    def apply(self, node, ctx):
        if not (isinstance(node, FilterNode)
                and isinstance(node.child, ProjectNode)):
            return None
        project = node.child
        mapping = {alias: expr for expr, alias in project.exprs}
        pushable, residual = [], []
        for part in split_conjuncts(node.predicate):
            try:
                rewritten = substitute(part, mapping)
            except KeyError:
                residual.append(part)
                continue
            if _resolves_in(rewritten.columns(), project.child.schema):
                pushable.append(rewritten)
            else:
                residual.append(part)
        if not pushable:
            return None
        rewritten_plan = ProjectNode(
            FilterNode(project.child, combine_conjuncts(pushable)),
            project.exprs)
        if residual:
            return FilterNode(rewritten_plan, combine_conjuncts(residual))
        return rewritten_plan


class PushFilterIntoJoin(RewriteRule):
    """Split a conjunctive filter above a join and push single-side parts."""

    name = "push_filter_into_join"

    def apply(self, node, ctx):
        if not (isinstance(node, FilterNode)
                and isinstance(node.child, JoinNode)):
            return None
        join = node.child
        if join.join_type not in (JoinType.INNER, JoinType.CROSS):
            return None
        left_parts, right_parts, residual = _split_by_side(
            node.predicate, join.left.schema, join.right.schema)
        if not left_parts and not right_parts:
            return None
        left = join.left
        right = join.right
        if left_parts:
            left = FilterNode(left, combine_conjuncts(left_parts))
        if right_parts:
            right = FilterNode(right, combine_conjuncts(right_parts))
        new_join = join.with_children((left, right))
        if residual:
            return FilterNode(new_join, combine_conjuncts(residual))
        return new_join


class PushFilterThroughSemanticJoin(RewriteRule):
    """The Figure-4 headline rule: single-side predicates sink below a
    semantic join (matching is per-pair, so this is semantics-preserving)."""

    name = "push_filter_through_semantic_join"

    def apply(self, node, ctx):
        if not (isinstance(node, FilterNode)
                and isinstance(node.child, SemanticJoinNode)):
            return None
        join = node.child
        referenced_score = any(
            join.score_alias in part.columns()
            for part in split_conjuncts(node.predicate)
        )
        left_parts, right_parts, residual = _split_by_side(
            node.predicate, join.left.schema, join.right.schema)
        if referenced_score or (not left_parts and not right_parts):
            return None
        left = join.left
        right = join.right
        if left_parts:
            left = FilterNode(left, combine_conjuncts(left_parts))
        if right_parts:
            right = FilterNode(right, combine_conjuncts(right_parts))
        new_join = join.with_children((left, right))
        if residual:
            return FilterNode(new_join, combine_conjuncts(residual))
        return new_join


class PushFilterBelowSemanticFilter(RewriteRule):
    """Run cheap relational filters before expensive model filters."""

    name = "push_filter_below_semantic_filter"

    def apply(self, node, ctx):
        if not (isinstance(node, FilterNode) and isinstance(
                node.child, (SemanticFilterNode, SemanticSemiFilterNode))):
            return None
        semantic = node.child
        score_alias = getattr(semantic, "score_alias", None)
        if score_alias and score_alias in node.predicate.columns():
            return None
        pushed = FilterNode(semantic.child, node.predicate)
        return semantic.with_children((pushed,))


class PushFilterThroughAggregate(RewriteRule):
    """Push group-key-only predicates below an aggregate.

    A conjunct is pushable only when every column it references resolves
    in the aggregate's *output* schema to a group-key position; it is
    then substituted through the key mapping back to the child's
    canonical column names before it sinks.  The old string-set check
    (predicate columns vs. output key names) pushed output spellings
    into the child unsubstituted — sound only while output key names
    happen to equal child column names, and wrong the moment a key is
    renamed (qualified child fields referenced by an unqualified
    spelling, or a group key flowing through a renaming projection).
    The mapping refuses anything that is not a plain ``ColumnRef``
    target, so future expression-valued keys stay above the aggregate.
    """

    name = "push_filter_through_aggregate"

    def apply(self, node, ctx):
        if not (isinstance(node, FilterNode)
                and isinstance(node.child, AggregateNode)):
            return None
        aggregate = node.child
        if not aggregate.group_keys:
            return None
        pushable, residual = [], []
        for part in split_conjuncts(node.predicate):
            mapping = self._key_mapping(part, aggregate)
            if mapping is None:
                residual.append(part)
                continue
            try:
                pushable.append(substitute(part, mapping))
            except KeyError:
                residual.append(part)
        if not pushable:
            return None
        pushed = FilterNode(aggregate.child, combine_conjuncts(pushable))
        new_aggregate = aggregate.with_children((pushed,))
        if residual:
            return FilterNode(new_aggregate, combine_conjuncts(residual))
        return new_aggregate

    @staticmethod
    def _key_mapping(part, aggregate) -> dict[str, Expr] | None:
        """Referenced column -> child key column, or ``None`` when any
        reference lands outside the group keys (aggregate results,
        unresolvable names, ambiguous spellings)."""
        child_schema = aggregate.child.schema
        mapping: dict[str, Expr] = {}
        for name in part.columns():
            try:
                index = aggregate.schema.index_of(name)
            except Exception:
                return None
            if index >= len(aggregate.group_keys):
                return None  # references an aggregate result
            target = _group_key_expr(aggregate.group_keys[index],
                                     child_schema)
            if not isinstance(target, ColumnRef):
                return None  # expression-valued keys never sink
            mapping[name] = target
        return mapping


class OrderFilterChain(RewriteRule):
    """Cost-based ordering of adjacent semantic filters.

    For ``SF_a(SF_b(x))``, runs the filter with the better
    rank = cost / (1 - selectivity) first (classic predicate ordering).
    """

    name = "order_filter_chain"

    def apply(self, node, ctx):
        if not (isinstance(node, (SemanticFilterNode, SemanticSemiFilterNode))
                and isinstance(node.children[0],
                               (SemanticFilterNode, SemanticSemiFilterNode))):
            return None
        if ctx.estimator is None:
            return None
        inner = node.children[0]
        outer_rank = self._rank(node, ctx)
        inner_rank = self._rank(inner, ctx)
        # Want the lower rank *below* (executed first). Swap when the outer
        # operator should run first.
        if outer_rank >= inner_rank:
            return None
        swapped_outer = node.with_children((inner.children[0],))
        return inner.with_children((swapped_outer,))

    @staticmethod
    def _rank(node, ctx) -> float:
        estimator = ctx.estimator
        if isinstance(node, SemanticFilterNode):
            selectivity = estimator.semantic_filter_selectivity(node)
            cost = 1.0
        else:
            selectivity = min(1.0, 0.1 * len(node.probes))
            cost = float(len(node.probes))
        benefit = max(1.0 - selectivity, 1e-6)
        return cost / benefit


class RemoveTrivialProject(RewriteRule):
    """Drop projections that re-emit the child schema unchanged."""

    name = "remove_trivial_project"

    def apply(self, node, ctx):
        if not isinstance(node, ProjectNode):
            return None
        child_names = node.child.schema.names
        if len(node.exprs) != len(child_names):
            return None
        for (expr, alias), name in zip(node.exprs, child_names):
            if not (isinstance(expr, ColumnRef) and expr.name == name
                    and alias == name):
                return None
        return node.child


DEFAULT_RULES: list[RewriteRule] = [
    MergeFilters(),
    NormalizePredicate(),
    PushFilterThroughProject(),
    PushFilterIntoJoin(),
    PushFilterThroughSemanticJoin(),
    PushFilterBelowSemanticFilter(),
    PushFilterThroughAggregate(),
    OrderFilterChain(),
    RemoveTrivialProject(),
]

#: The optimizer's phased suite: normalize, then merge + push down,
#: then break remaining conjunctions into filter chains.  Each phase is
#: individually convergent; ``BreakupSelections`` and ``MergeFilters``
#: never share a fixpoint.
DEFAULT_PHASES: list[list[RewriteRule]] = [
    [NormalizePredicate()],
    DEFAULT_RULES,
    [BreakupSelections(), OrderFilterChain(), RemoveTrivialProject()],
]


def rewrite_fixpoint(plan: LogicalPlan, rules: list[RewriteRule],
                     ctx: RuleContext | None = None,
                     max_passes: int = 10) -> LogicalPlan:
    """Apply ``rules`` bottom-up repeatedly until no rule fires.

    When ``max_passes`` bottom-up passes are exhausted while rules are
    still firing (a runaway rule pair), ``ctx.converged`` flips to
    False instead of the old silent exit — the optimizer reports it and
    bumps ``optimizer_rewrite_nonconvergence_total``.
    """
    ctx = ctx or RuleContext()
    changed = True
    for _ in range(max_passes):
        plan, changed = _rewrite_once(plan, rules, ctx)
        ctx.passes += 1
        if not changed:
            break
    if changed:
        ctx.converged = False
    return plan


def rewrite_phases(plan: LogicalPlan,
                   phases: list[list[RewriteRule]] | None = None,
                   ctx: RuleContext | None = None,
                   max_passes: int = 10) -> LogicalPlan:
    """Run each phase of ``phases`` (default :data:`DEFAULT_PHASES`) to
    its own fixpoint, in order, sharing one :class:`RuleContext`."""
    ctx = ctx or RuleContext()
    for rules in (phases if phases is not None else DEFAULT_PHASES):
        plan = rewrite_fixpoint(plan, rules, ctx, max_passes=max_passes)
    return plan


def _rewrite_once(plan: LogicalPlan, rules: list[RewriteRule],
                  ctx: RuleContext) -> tuple[LogicalPlan, bool]:
    changed = False
    new_children = []
    for child in plan.children:
        new_child, child_changed = _rewrite_once(child, rules, ctx)
        new_children.append(new_child)
        changed = changed or child_changed
    if changed:
        plan = plan.with_children(tuple(new_children))
    for rule in rules:
        replacement = rule.apply(plan, ctx)
        if replacement is not None:
            ctx.record(rule.name)
            return replacement, True
    return plan, changed


def _split_by_side(predicate: Expr, left_schema: Schema,
                   right_schema: Schema):
    """Partition conjuncts by which join input they reference.

    A conjunct sinks to a side only when *every* column it references
    resolves on that side and *none* resolves on the other: a name
    present in both inputs (``brand`` against ``p.brand``/``k.brand``)
    is ambiguous, and pushing it to whichever side happened to be
    checked first silently picks one meaning and changes results.
    Ambiguous conjuncts stay in the residual, exactly like conjuncts
    spanning both sides.
    """
    left_parts: list[Expr] = []
    right_parts: list[Expr] = []
    residual: list[Expr] = []
    for part in split_conjuncts(predicate):
        columns = part.columns()
        sides = set()
        for name in columns:
            on_left = _resolves_one(name, left_schema)
            on_right = _resolves_one(name, right_schema)
            if on_left and on_right:
                sides.add("ambiguous")
            elif on_left:
                sides.add("left")
            elif on_right:
                sides.add("right")
            else:
                sides.add("unresolved")
        if sides == {"left"}:
            left_parts.append(part)
        elif sides == {"right"}:
            right_parts.append(part)
        else:
            residual.append(part)
    return left_parts, right_parts, residual


def _group_key_expr(key: str, child_schema: Schema) -> Expr:
    """The child-side expression a group key stands for.

    Today group keys are plain column names, so this resolves ``key``
    to its canonical child spelling; when aggregate keys grow
    expression support this is the single place that changes, and
    ``PushFilterThroughAggregate`` already refuses non-``ColumnRef``
    results.
    """
    return ColumnRef(child_schema.names[child_schema.index_of(key)])


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace column references per ``mapping`` (alias -> expression).

    Raises ``KeyError`` when a referenced alias is missing from the
    mapping, signalling the caller that the rewrite is not applicable.
    """
    if isinstance(expr, ColumnRef):
        if expr.name in mapping:
            return mapping[expr.name]
        raise KeyError(expr.name)
    return expr.map_terms(lambda child: substitute(child, mapping))


# ----------------------------------------------------------------------
# Projection pruning (one-shot top-down pass, not a local rule)
# ----------------------------------------------------------------------
class PruneColumns:
    """Insert projections above scans so only required columns flow up.

    Only the nodes that rewrite themselves or define their whole output
    are handled by type: a scan gains the narrowing projection, a
    projection drops the items nobody requires, an aggregate passes none
    of its parent's names through.  Every other node — including node
    types added later — requires from each child the names asked of it
    that the child's schema holds, plus the columns it reads itself
    (:meth:`~repro.relational.fields.Fielded.reads`) that resolve there.
    """

    name = "prune_columns"

    def run(self, plan: LogicalPlan) -> LogicalPlan:
        required = set(plan.schema.names)
        return self._rewrite(plan, required)

    def _rewrite(self, node: LogicalPlan, required: set[str]) -> LogicalPlan:
        required = _canonical(required, node.schema)
        if isinstance(node, ScanNode):
            names = [n for n in node.schema.names if n in required]
            if len(names) == len(node.schema.names) or not names:
                return node
            return ProjectNode(node, [(ColumnRef(n), n) for n in names])
        if isinstance(node, ProjectNode):
            kept = [(e, a) for e, a in node.exprs if a in required]
            node = ProjectNode(node.child, kept or node.exprs)
            required = set()
        elif isinstance(node, AggregateNode):
            required = set()
        reads = node.reads()
        return node.with_children(tuple(
            self._rewrite(child, {n for n in required if n in child.schema}
                          | _canonical(reads, child.schema))
            for child in node.children))


def _canonical(names: set[str], schema: Schema) -> set[str]:
    """The ``names`` that resolve in ``schema``, spelled as it spells
    them."""
    return {schema.field(name).name for name in names
            if _resolves_one(name, schema)}
