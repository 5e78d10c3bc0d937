"""Reuse analysis: spec extraction, plan augmentation, containment proof.

Three jobs, all over the same statement structure:

1. :func:`analyze_and_augment` inspects a freshly **bound** (not yet
   optimized) plan and produces a :class:`ReuseSpec` — the statement's
   containment *family* plus everything the matcher compares: semantic
   thresholds / top-k values per slot, relational conjuncts, projection
   items, the limit.  When the statement is structurally eligible it also
   rebuilds the plan so execution carries the reuse **aux columns**
   (per-row semantic-filter scores, per-pair join ranks/groups) through
   to the final result, where the result cache snapshots them.

2. :func:`describe_plan` fingerprints an **optimized** plan: node shape
   with literals masked, per-join physical method, and whether
   data-induced predicates were applied.  Two statements are only
   comparable when their optimized shapes agree — a diverged join order
   or access path changes row order and score arithmetic, which breaks
   the bit-identity contract.

3. :func:`plan_containment` proves (or refuses) that a cached entry
   subsumes a probe statement and, on success, returns the residual
   actions (:class:`ResidualPlan`) the executor applies to the snapshot.

The *family* groups statements that can possibly subsume one another:
same scans, joins, semantic operators (column/probe/model/mode — with
threshold and top-k values masked out), sort keys, and limit-presence.
Relational WHERE conjuncts and the projection are deliberately **not**
part of the family — they are the axes along which a refined statement
may differ — and are compared explicitly by the matcher instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.relational.expressions import And, ColumnRef, Expr
from repro.relational.logical import (
    FilterNode,
    JoinNode,
    JoinType,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
    SemanticFilterNode,
    SemanticJoinNode,
    SemanticSemiFilterNode,
    SortNode,
)
from repro.relational.pipeline import PipelineNode

#: Physical semantic-join methods whose per-pair scores are a pure,
#: execution-config-independent function of the inputs.  ``parallel``
#: is excluded — its GEMM chunking follows the query's *leased* worker
#: share, which varies under load, and BLAS results are only
#: reproducible for a fixed blocking; ``quantized`` regenerates its
#: candidate set per threshold; the ANN indexes (lsh/ivf/hnsw) are
#: approximate, so a cached candidate set is not provably a superset of
#: a refined query's.
REUSE_SAFE_METHODS = frozenset({
    "blocked", "rowkernel", "nested_loop", "prefetched", "index:brute",
})

#: Prefix of every reuse-internal auxiliary column.  Statements whose
#: own schema uses the prefix are ineligible rather than ambiguous.
AUX_PREFIX = "__reuse_"


@dataclass(frozen=True)
class SemanticSlot:
    """One semantic operator's refinable knobs and stored aux columns."""

    kind: str                    # "filter" | "join"
    threshold: float
    top_k: int | None            # joins only; None = threshold join
    #: Column of the stored snapshot holding this slot's per-row scores
    #: (float32 values, possibly widened to float64 — the residual
    #: executor narrows back before comparing, which is exact).
    score_column: str
    #: Top-k joins only: per-row left-distinct group id and pair rank.
    group_column: str | None = None
    rank_column: str | None = None
    #: Joins only: identity used to align this slot with the optimized
    #: plan's method decision — (left_column, right_column, model).
    slot_key: tuple | None = None


@dataclass(frozen=True)
class ProjectionItem:
    """One SELECT item: structural identity, output alias, and — when the
    expression is a plain column reference — its source column name."""

    identity: str                # repr() of the bound expression
    alias: str
    column: str | None           # set for plain ColumnRef items


@dataclass(frozen=True)
class ReuseSpec:
    """Everything the containment matcher needs about one statement."""

    #: Containment-family digest (structure with thresholds/k masked).
    family: str
    slots: tuple[SemanticSlot, ...] = ()
    #: Relational WHERE conjuncts: repr identity -> bound expression.
    #: (Stored as parallel tuples to stay hashable/frozen.)
    conjunct_ids: tuple[str, ...] = ()
    conjunct_exprs: tuple[Expr, ...] = ()
    #: ``None`` for ``SELECT *`` (no projection node).
    projection: tuple[ProjectionItem, ...] | None = None
    limit: int | None = None
    #: Aux columns the augmented plan appends (stripped before results
    #: reach callers; retained inside result-cache snapshots).
    aux_columns: tuple[str, ...] = ()
    #: False when extra-predicate subsumption is unsound for this shape
    #: (top-k joins or outer joins present — a pushed-down predicate
    #: would change the top-k candidate set / null-padding).
    extras_allowed: bool = True
    has_top_k: bool = False
    eligible: bool = False
    reason: str = ""


@dataclass(frozen=True)
class PlanShape:
    """Optimized-plan shape summary for cross-statement comparability."""

    fingerprint: str
    #: (left_column, right_column, model) -> physical method, for every
    #: semantic join.  ``None`` when two joins share a key (ambiguous).
    methods: tuple | None
    #: False when DIP inserted a semantic semi-filter: its pruning mask
    #: is computed in a different GEMM shape than the join's scores, so
    #: boundary rows are not provably identical across thresholds.
    dip_free: bool


@dataclass(frozen=True)
class ResidualPlan:
    """Actions deriving the probe's result from the cached snapshot."""

    #: (cached slot, probe threshold, probe top_k) — only slots whose
    #: knobs actually tightened.
    refinements: tuple[tuple[SemanticSlot, float, int | None], ...]
    #: Probe conjuncts absent from the cached statement.
    extra_conjuncts: tuple[Expr, ...]
    #: (source column in snapshot, output alias) in output order, or
    #: ``None`` to keep the cached visible columns as-is.  Aux-column
    #: renames are not listed here: the residual executor derives them
    #: from the cached/probe slot pairs directly.
    projection: tuple[tuple[str, str], ...] | None
    limit: int | None


# ---------------------------------------------------------------------------
# pass 1+2: analyze a bound plan and augment it with aux columns
# ---------------------------------------------------------------------------
@dataclass
class _Walk:
    """Mutable state shared by the analysis/augmentation traversals."""

    parts: list = field(default_factory=list)          # family text parts
    filters: list = field(default_factory=list)        # SemanticFilterNode
    joins: list = field(default_factory=list)          # SemanticJoinNode
    conjunct_ids: list = field(default_factory=list)
    conjunct_exprs: list = field(default_factory=list)
    projection: list | None = None
    limit: int | None = None
    has_outer: bool = False
    reason: str = ""

    def refuse(self, reason: str) -> None:
        if not self.reason:
            self.reason = reason


def _split_conjuncts(expr: Expr, out: list[Expr]) -> None:
    if isinstance(expr, And):
        _split_conjuncts(expr.left, out)
        _split_conjuncts(expr.right, out)
        return
    out.append(expr)


def _analyze(node: LogicalPlan, walk: _Walk, is_root: bool) -> None:
    """Post-order analysis: children first, so slot indexes match the
    order operators *apply* (innermost filter = slot 0)."""
    for child in node.children:
        _analyze(child, walk, False)
    if isinstance(node, ScanNode):
        walk.parts.append(f"scan {node.table_name} as {node.qualifier}")
        if any(name.startswith(AUX_PREFIX) for name in node.schema.names):
            walk.refuse("reserved __reuse_ column in source schema")
    elif isinstance(node, FilterNode):
        conjuncts: list[Expr] = []
        _split_conjuncts(node.predicate, conjuncts)
        for conjunct in conjuncts:
            walk.conjunct_ids.append(repr(conjunct))
            walk.conjunct_exprs.append(conjunct)
    elif isinstance(node, ProjectNode):
        if not is_root:
            walk.refuse("projection below the plan root")
        if any(alias.startswith(AUX_PREFIX) for _, alias in node.exprs):
            walk.refuse("reserved __reuse_ projection alias")
        walk.projection = [(repr(expr), alias, expr) for expr, alias
                           in node.exprs]
    elif isinstance(node, JoinNode):
        keys = ",".join(f"{l}={r}" for l, r
                        in zip(node.left_keys, node.right_keys))
        walk.parts.append(f"join {node.join_type.value} [{keys}]")
        if node.extra_predicate is not None:
            walk.refuse("join with residual theta predicate")
        if node.join_type not in (JoinType.INNER, JoinType.CROSS):
            walk.has_outer = True
    elif isinstance(node, SemanticFilterNode):
        if node.score_alias:
            walk.refuse("semantic filter already aliases its score")
        walk.parts.append(
            f"semfilter {node.column} ~[{node.mode}] {node.probe!r} "
            f"model {node.model_name} threshold ?")
        walk.filters.append(node)
    elif isinstance(node, SemanticJoinNode):
        if node.score_alias.startswith(AUX_PREFIX) \
                or node.aux_alias is not None:
            walk.refuse("semantic join already carries reuse aliases")
        walk.parts.append(
            f"semjoin {node.left_column} ~ {node.right_column} "
            f"model {node.model_name} threshold ? "
            f"top {'?' if node.top_k is not None else 'none'} "
            f"score={node.score_alias}")
        walk.joins.append(node)
    elif isinstance(node, SortNode):
        keys = ",".join(f"{name}:{'a' if asc else 'd'}"
                        for name, asc in node.keys)
        walk.parts.append(f"sort [{keys}]")
    elif isinstance(node, LimitNode):
        walk.parts.append("limit ?")
        walk.limit = node.count
    else:
        walk.refuse(f"{type(node).__name__} is not subsumption-eligible")


def _blank(value: object) -> str:
    """Literal format of shape fingerprints: the numeric knobs a
    refinement may move (threshold, k, limit) show presence only; a
    probe string is part of the statement's identity."""
    return repr(value) if isinstance(value, str) else "?"


def _slot_names(index: int, kind: str) -> str:
    return f"{AUX_PREFIX}{kind}{index}"


def _rebuild(node: LogicalPlan, counters: dict) -> LogicalPlan:
    """Rebuild the plan bottom-up with aux aliases set (fresh nodes, so
    cached schemas are recomputed with the extra columns)."""
    children = tuple(_rebuild(child, counters) for child in node.children)
    if isinstance(node, SemanticFilterNode):
        index = counters["f"]
        counters["f"] += 1
        return node.with_children(children,
                                  score_alias=_slot_names(index, "f"))
    if isinstance(node, SemanticJoinNode):
        index = counters["j"]
        counters["j"] += 1
        if node.top_k is not None:
            return node.with_children(children,
                                      aux_alias=_slot_names(index, "j"))
    return node.with_children(children)


def analyze_and_augment(
        plan: LogicalPlan) -> tuple[ReuseSpec, LogicalPlan]:
    """The statement's :class:`ReuseSpec` plus its augmented plan.

    Ineligible statements return ``(spec(eligible=False), plan)`` with
    the plan untouched — they execute exactly as before and are simply
    invisible to the reuse registry.
    """
    walk = _Walk()
    _analyze(plan, walk, True)
    if walk.reason:
        return ReuseSpec(family="", eligible=False,
                         reason=walk.reason), plan

    slots: list[SemanticSlot] = []
    aux_columns: list[str] = []
    has_project = walk.projection is not None
    for index, node in enumerate(walk.filters):
        name = _slot_names(index, "f")
        slots.append(SemanticSlot(kind="filter", threshold=node.threshold,
                                  top_k=None, score_column=name))
        aux_columns.append(name)
    join_keys_seen = set()
    ambiguous = False
    for index, node in enumerate(walk.joins):
        prefix = _slot_names(index, "j")
        score_column = (f"{prefix}_score" if has_project
                        else node.score_alias)
        group = rank = None
        if node.top_k is not None:
            group, rank = f"{prefix}_group", f"{prefix}_rank"
            aux_columns.extend([group, rank])
        if has_project:
            aux_columns.append(score_column)
        slot_key = (node.left_column, node.right_column, node.model_name)
        if slot_key in join_keys_seen:
            ambiguous = True
        join_keys_seen.add(slot_key)
        slots.append(SemanticSlot(kind="join", threshold=node.threshold,
                                  top_k=node.top_k,
                                  score_column=score_column,
                                  group_column=group, rank_column=rank,
                                  slot_key=slot_key))
    if ambiguous:
        return ReuseSpec(family="", eligible=False,
                         reason="duplicate semantic-join signature"), plan

    family = hashlib.blake2b("\n".join(walk.parts).encode("utf-8"),
                             digest_size=16).hexdigest()
    projection = None
    if walk.projection is not None:
        projection = tuple(
            ProjectionItem(identity=identity, alias=alias,
                           column=expr.name
                           if isinstance(expr, ColumnRef) else None)
            for identity, alias, expr in walk.projection)
    has_top_k = any(slot.top_k is not None for slot in slots)
    spec = ReuseSpec(
        family=family, slots=tuple(slots),
        conjunct_ids=tuple(walk.conjunct_ids),
        conjunct_exprs=tuple(walk.conjunct_exprs),
        projection=projection, limit=walk.limit,
        aux_columns=tuple(aux_columns),
        extras_allowed=not has_top_k and not walk.has_outer,
        has_top_k=has_top_k, eligible=True)

    augmented = _rebuild(plan, {"f": 0, "j": 0})
    if isinstance(augmented, ProjectNode) and aux_columns:
        exprs = list(augmented.exprs)
        for index, node in enumerate(walk.filters):
            name = _slot_names(index, "f")
            exprs.append((ColumnRef(name), name))
        for index, node in enumerate(walk.joins):
            prefix = _slot_names(index, "j")
            exprs.append((ColumnRef(node.score_alias), f"{prefix}_score"))
            if node.top_k is not None:
                exprs.append((ColumnRef(f"{prefix}_group"),
                              f"{prefix}_group"))
                exprs.append((ColumnRef(f"{prefix}_rank"),
                              f"{prefix}_rank"))
        augmented = ProjectNode(augmented.child, exprs)
    return spec, augmented


# ---------------------------------------------------------------------------
# optimized-plan shape
# ---------------------------------------------------------------------------
def describe_plan(plan: LogicalPlan) -> PlanShape:
    """Shape fingerprint + per-join methods of an optimized plan.

    Filter and Project nodes are excluded from the fingerprint: their
    placement legitimately varies with pushdown, and (for eligible
    shapes) commutes with the row sets the residual executor reasons
    about.  Every other node contributes its literal-blanked rendering,
    so join order, join algorithms, semantic access paths, sort keys,
    and limit presence must all agree exactly.
    """
    parts: list[str] = []
    methods: dict = {}
    ambiguous = False
    dip_free = True
    # the fusion-aware walk visits a pipeline's stages where the unfused
    # chain's nodes would have been, and the pipeline node itself is
    # skipped: a fused plan must fingerprint exactly like its unfused
    # twin, or cost-model flips between a base statement and its
    # refinement would silently break subsumption matching
    for node in plan.walk():
        if isinstance(node, SemanticSemiFilterNode):
            dip_free = False
        elif isinstance(node, SemanticJoinNode):
            key = (node.left_column, node.right_column, node.model_name)
            ambiguous = ambiguous or key in methods
            methods[key] = node.hints.get("method", "blocked")
        if not isinstance(node, (FilterNode, ProjectNode, PipelineNode,
                                 SemanticSemiFilterNode)):
            # ``method`` is part of a semantic join's rendering
            parts.append(f"{node.render(_blank)} "
                         f"algo={node.hints.get('algorithm')}")
    fingerprint = hashlib.blake2b("\n".join(parts).encode("utf-8"),
                                  digest_size=16).hexdigest()
    return PlanShape(fingerprint=fingerprint,
                     methods=None if ambiguous
                     else tuple(sorted(methods.items())),
                     dip_free=dip_free)


# ---------------------------------------------------------------------------
# containment proof
# ---------------------------------------------------------------------------
def _method_for(shape: PlanShape, slot_key: tuple) -> str | None:
    if shape.methods is None:
        return None
    for key, method in shape.methods:
        if key == slot_key:
            return method
    return None


def _faithful_columns(spec: ReuseSpec,
                      columns: tuple[str, ...]) -> set[str]:
    """Snapshot column names that faithfully hold the *source* column
    of the same name.

    Binding extra predicates (or plain-column projection items) against
    the snapshot resolves purely by name, so a projection alias that
    shadows a source column (``cost AS price``) would silently bind the
    wrong data.  A ``SELECT *`` snapshot carries the raw pre-projection
    columns; a projected snapshot is faithful only where an item is an
    unaliased passthrough (``item.column == item.alias``).
    """
    if spec.projection is None:
        return set(columns)
    return {item.alias for item in spec.projection
            if item.column is not None and item.column == item.alias}


def plan_containment(cached_spec: ReuseSpec, cached_shape: PlanShape,
                     cached_rows: int, cached_columns: tuple[str, ...],
                     probe_spec: ReuseSpec, probe_shape: PlanShape,
                     ) -> ResidualPlan | None:
    """Prove that the cached statement subsumes the probe; ``None``
    refuses (the caller executes normally).

    ``cached_rows``/``cached_columns`` describe the stored snapshot (its
    row count decides whether a LIMIT bit; its column names decide
    whether extra predicates and projections can be evaluated on it).
    """
    if not (cached_spec.eligible and probe_spec.eligible):
        return None
    if cached_spec.family != probe_spec.family:
        return None
    if len(cached_spec.slots) != len(probe_spec.slots):
        return None
    # plan-shape comparability: same join order / algorithms / access
    # paths, no DIP rewrites on either side
    if not (cached_shape.dip_free and probe_shape.dip_free):
        return None
    if cached_shape.fingerprint != probe_shape.fingerprint:
        return None

    # -- semantic slots: thresholds may only tighten, k only shrink ----
    refinements: list[tuple[SemanticSlot, float, int | None]] = []
    refined = False
    for cached_slot, probe_slot in zip(cached_spec.slots,
                                       probe_spec.slots):
        if cached_slot.kind != probe_slot.kind:
            return None
        if probe_slot.threshold < cached_slot.threshold:
            return None
        if (cached_slot.top_k is None) != (probe_slot.top_k is None):
            return None
        if (cached_slot.top_k is not None
                and probe_slot.top_k > cached_slot.top_k):
            return None
        if cached_slot.kind == "join":
            method = _method_for(cached_shape, cached_slot.slot_key)
            if method is None or method not in REUSE_SAFE_METHODS:
                return None
            # fingerprint equality already forces probe method == cached
        if (probe_slot.threshold > cached_slot.threshold
                or cached_slot.top_k != probe_slot.top_k):
            refinements.append((cached_slot, probe_slot.threshold,
                                probe_slot.top_k))
            refined = True

    # -- with a top-k join present, only that join's own knobs may
    # differ: any other refinement (or extra predicate) changes the
    # join's inputs once the optimizer pushes it down, which changes
    # the selected candidates themselves
    if cached_spec.has_top_k:
        for cached_slot, threshold, top_k in refinements:
            if cached_slot.kind != "join" or cached_slot.top_k is None:
                return None

    # -- relational conjuncts: cached must be a subset of probe --------
    cached_ids = set(cached_spec.conjunct_ids)
    probe_ids = set(probe_spec.conjunct_ids)
    if not cached_ids <= probe_ids:
        return None
    extras = tuple(expr for identity, expr
                   in zip(probe_spec.conjunct_ids,
                          probe_spec.conjunct_exprs)
                   if identity not in cached_ids)
    faithful = _faithful_columns(cached_spec, cached_columns)
    if extras:
        if not (cached_spec.extras_allowed and probe_spec.extras_allowed):
            return None
        for expr in extras:
            # exact-name resolution against *faithful* columns only:
            # suffix matching, or a projection alias shadowing a source
            # column, would bind different data than the fresh plan's
            # pre-projection evaluation did
            if not expr.columns() <= faithful:
                return None
        refined = True

    # -- projection: probe items must be derivable from the snapshot --
    projection: tuple[tuple[str, str], ...] | None = None
    if probe_spec.projection is None:
        # a SELECT * probe needs every source column: only a SELECT *
        # cached entry has them all
        if cached_spec.projection is not None:
            return None
    elif probe_spec.projection != cached_spec.projection:
        # probe items resolve either to the cached statement's identical
        # computed item (same expression ⇒ same values under any output
        # name) or, for plain column references, to a *faithful*
        # snapshot column — never to a shadowing projection alias
        cached_by_identity = {item.identity: item.alias
                              for item in (cached_spec.projection or ())}
        column_set = set(cached_columns)
        mapping = []
        for item in probe_spec.projection:
            source = cached_by_identity.get(item.identity)
            if source is None and item.column is not None \
                    and item.column in faithful:
                source = item.column
            if source is None or source not in column_set:
                return None
            mapping.append((source, item.alias))
        projection = tuple(mapping)

    # -- limit ---------------------------------------------------------
    limit = None
    if (cached_spec.limit is None) != (probe_spec.limit is None):
        return None
    if probe_spec.limit is not None:
        if probe_spec.limit > cached_spec.limit:
            return None
        if cached_rows >= cached_spec.limit and refined:
            # the cached LIMIT may have cut rows the refined statement
            # would have surfaced — only a pure prefix shrink is safe
            return None
        limit = probe_spec.limit

    return ResidualPlan(refinements=tuple(refinements),
                        extra_conjuncts=extras,
                        projection=projection, limit=limit)
