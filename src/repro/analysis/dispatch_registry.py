"""Dispatcher registry: every place the engine's *behaviour* branches
on node type.

Structure — children, literal slots, printing, fingerprints, the
tables/models/columns a plan reads — is not dispatched at all: nodes
declare their fields (:mod:`repro.relational.fields`) and the walkers
are generic (column pruning among them).  Nor are a plan node's
estimate, cost and lowering: each node declares ``estimate_rows`` /
``node_cost`` / ``lower`` beside itself, and the base class raises
naming the class for the latter two
(``tests/test_plan_protocol.py::test_every_plan_node_declares_cost_and_lowering``
checks every ``LogicalPlan`` subclass overrides them).  What remains
here are the dispatchers whose arms still do different *work* per node
(reuse eligibility, NNF, dtype inference, SQL binding).  The
dispatch-exhaustiveness verifier (:mod:`repro.analysis.dispatch`)
enumerates the node families by walking base-class subtrees and checks
each dispatcher declared here handles every member or rejects it
explicitly.  To add a plan/expression node type: subclass the family
base, declare its fields (and, for a plan node, its three behaviour
methods), run ``python -m repro.analysis`` and add an arm (or an
explicit rejection) to every dispatcher it reports — the verifier finds
them all, so nothing silently falls through to a default.

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
