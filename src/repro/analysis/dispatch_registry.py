"""Dispatcher registry: every place the engine's *behaviour* branches
on node type.

Structure — children, literal slots, printing, fingerprints, the
tables/models a plan reads — is not dispatched at all: nodes declare
their fields (:mod:`repro.relational.fields`) and the walkers are
generic.  What remains here are the dispatchers whose arms do
different *work* per node (cost, cardinality, physical build, column
pruning, fusability, reuse eligibility, NNF, dtype inference, JIT
support/emit, SQL binding).  The dispatch-exhaustiveness verifier
(:mod:`repro.analysis.dispatch`) enumerates the node families by
walking base-class subtrees and checks each dispatcher declared here
handles every member or rejects it explicitly.  To add a
plan/expression node type: subclass the family base and declare its
fields, run ``python -m repro.analysis`` and add an arm (or an explicit
rejection) to every dispatcher it reports — the verifier finds them
all, so nothing silently falls through to a default.

Default kinds:

- ``reject`` — the dispatcher's tail raises for anything unhandled;
  the verifier checks the tail actually raises (DX002 otherwise).
- ``refuse`` — the tail's else-branch calls an explicit refusal hook
  (``walk.refuse`` in the reuse analyzer) instead of raising.
- ``declared`` — a fall-through default exists *on purpose*; the
  registry entry must say why (the justification is rendered in
  ``docs/static-analysis.md``-style audits), and ``must_handle`` pins
  the members that may never take that default.
"""

from __future__ import annotations

from repro.analysis.dispatch import DispatchModel, DispatcherSpec, Family

PKG = "repro"

FAMILIES: tuple[Family, ...] = (
    Family(name="plan", base=f"{PKG}.relational.logical.LogicalPlan"),
    Family(name="expr", base=f"{PKG}.relational.expressions.Expr"),
    Family(name="sql", base=f"{PKG}.engine.sql.ast.SqlExpr"),
)

SPECS: tuple[DispatcherSpec, ...] = (
    # -- logical plan dispatchers --------------------------------------
    DispatcherSpec(
        function=f"{PKG}.relational.physical.build_physical",
        family="plan", default="reject"),
    DispatcherSpec(
        function=f"{PKG}.semantic.lowering.build_semantic_physical",
        family="plan", default="reject",
        must_handle=("SemanticFilterNode", "SemanticSemiFilterNode",
                     "SemanticJoinNode", "SemanticGroupByNode")),
    DispatcherSpec(
        function=f"{PKG}.optimizer.cost.CostModel.node_cost",
        family="plan", default="reject"),
    DispatcherSpec(
        function=f"{PKG}.optimizer.cardinality.CardinalityEstimator"
                 ".estimate",
        family="plan", default="declared",
        justification="an unknown node estimates as its first child's "
                      "rows (conservative passthrough); every concrete "
                      "node still needs an explicit arm"),
    DispatcherSpec(
        function=f"{PKG}.optimizer.rules.PruneColumns._rewrite",
        family="plan", default="declared",
        exclude=("PipelineNode",),
        justification="pruning runs before fusion, so PipelineNode "
                      "cannot occur; the verbatim-return default is the "
                      "explicit no-prune choice"),
    DispatcherSpec(
        function=f"{PKG}.optimizer.fusion._stage_supported",
        family="plan", default="declared",
        must_handle=("FilterNode", "ProjectNode", "LimitNode"),
        justification="barrier classification is closed-world: anything "
                      "that is not a fusable Filter/Project/Limit stage "
                      "returns False and becomes a pipeline barrier"),
    DispatcherSpec(
        function=f"{PKG}.reuse.analysis._analyze",
        family="plan", default="refuse",
        must_handle=("ScanNode", "FilterNode", "ProjectNode", "JoinNode",
                     "SemanticFilterNode", "SemanticJoinNode",
                     "SortNode", "LimitNode")),
    # -- relational expression dispatchers -----------------------------
    DispatcherSpec(
        function=f"{PKG}.optimizer.rules.normalize_predicate",
        family="expr", default="declared",
        must_handle=("And", "Or", "Not", "Compare"),
        justification="NNF normalization only rewrites boolean "
                      "connectives (and flips equality under Not); "
                      "every other expression is already normal and "
                      "returned verbatim"),
    DispatcherSpec(
        function=f"{PKG}.relational.logical.infer_dtype",
        family="expr", default="reject"),
    DispatcherSpec(
        function=f"{PKG}.hardware.jit._first_unsupported",
        family="expr", default="declared",
        # Func has no arm on purpose: it is outside _SUPPORTED_NODES,
        # so it is reported as the unsupported sub-expression.
        exclude=("Func",),
        justification="a closed-world predicate: anything outside "
                      "_SUPPORTED_NODES is returned as unsupported, so "
                      "the chain stays interpreted (jit_supported) or "
                      "compilation raises (_check_supported) — never "
                      "wrong codegen"),
    DispatcherSpec(
        function=f"{PKG}.hardware.jit._Emitter.emit",
        family="expr", default="reject",
        # Func is rejected by the raising tail on purpose: callers gate
        # on jit_supported, which is False for Func.
        exclude=("Func",)),
    DispatcherSpec(
        function=f"{PKG}.reuse.residual.derive_residual",
        family="expr", kind="method", method="evaluate"),
    # -- SQL expression dispatchers ------------------------------------
    DispatcherSpec(
        function=f"{PKG}.engine.sql.canonical._expr",
        family="sql", default="reject"),
    DispatcherSpec(
        function=f"{PKG}.engine.sql.binder.Binder._expr",
        family="sql", default="reject"),
)


def engine_dispatch_model() -> DispatchModel:
    return DispatchModel(families=FAMILIES, specs=SPECS)
