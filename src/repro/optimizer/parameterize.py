"""Plan parameterization: literal sites, masked fingerprints, rebinding.

Generic-plan promotion (``engine/plan_cache.py``) needs three facts
about an optimized plan, all provided here:

1. :func:`plan_fingerprint` — a deterministic structural digest with
   literal *values* masked but everything else (node types, schemas,
   join keys, physical hints) included.  Two same-family statements
   whose optimizations agree on this digest chose the same physical
   plan; the family's literals demonstrably do not steer the
   optimizer.
2. :func:`literal_sites` — the plan's literal values in a fixed
   traversal order.  The binder and rewrite suite are deterministic,
   so for two statements of one canonical family the i-th site of one
   plan corresponds to the i-th site of the other.
3. :func:`bind_parameters` — a clone of the plan with new values at
   those sites (physical hints preserved), which is how a promoted
   generic plan is served for literals it has never seen.

None of the three knows a node type: which fields are literal slots
and how a node prints are declared on the node classes
(:mod:`repro.relational.fields`), and the walks are the generic
``map_literals`` / ``render`` derived from those declarations.

Everything here **refuses** rather than guesses:
:func:`unparameterizable_reason` rejects plans with DIP-derived
predicates (their probe lists are literal-*derived*, not literal
slots), and the plan cache additionally requires an exact one-to-one
value match between sites and canonical parameters before promoting.
"""

from __future__ import annotations

import hashlib

from repro.errors import OptimizerError
from repro.relational.fields import mask
from repro.relational.logical import LogicalPlan, SemanticSemiFilterNode

__all__ = [
    "ParameterizeError",
    "bind_parameters",
    "coerce_to_sites",
    "literal_sites",
    "parameter_order",
    "plan_fingerprint",
    "unparameterizable_reason",
]


class ParameterizeError(OptimizerError):
    """A plan cannot be parameterized (callers treat this as refusal)."""


def _norm(value: object) -> object:
    """Value identity for site<->parameter matching.

    The SQL canonicalizer stores every numeric literal as ``float``
    (``NumberLit.value``) while the binder re-types integrals to
    ``int`` in the plan, so matching must be numeric-value based; the
    site's original type is restored by :func:`coerce_to_sites` before
    binding.  ``bool`` is excluded (it is an ``int`` subtype but never
    a numeric parameter).
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return value


# ---------------------------------------------------------------------------
# literal sites: collect and rebind are the one generic walk
# (``LogicalPlan.map_literals``) over the nodes' declared literal slots
# ---------------------------------------------------------------------------
def literal_sites(plan: LogicalPlan) -> list[object]:
    """The plan's literal values in fixed traversal order.

    Only declared literal slots are sites: a DIP node's probe list is
    literal-*derived* and is not one, which is why
    :func:`unparameterizable_reason` refuses such plans outright.
    """
    sites: list[object] = []

    def collect(value: object) -> object:
        sites.append(value)
        return value

    plan.map_literals(collect)
    return sites


def bind_parameters(plan: LogicalPlan, values: list[object]) -> LogicalPlan:
    """A clone of ``plan`` with ``values`` at its literal sites.

    ``values`` must cover every site exactly (same walk as
    :func:`literal_sites`); physical hints are preserved on every
    rebuilt node, so the clone lowers to the same operators, and no
    node (hence no mutable hints dict) is shared with the template.
    """
    visited = 0

    def rebind(old: object) -> object:
        nonlocal visited
        visited += 1
        return values[visited - 1] if visited <= len(values) else old

    rebound = plan.map_literals(rebind)
    if visited != len(values):
        raise ParameterizeError(
            f"plan has {visited} literal sites, got {len(values)} values")
    return rebound


def parameter_order(sites: list[object],
                    parameters: tuple[object, ...]) -> list[int] | None:
    """Map site index -> canonical parameter index, or ``None``.

    The mapping must be provably unique: every parameter value (typed)
    must be distinct and match exactly one site.  Duplicate values make
    the correspondence ambiguous from one exemplar, so the family is
    refused — a conservative no, never a guessed yes.
    """
    if len(sites) != len(parameters):
        return None
    slots: dict[object, int] = {}
    for index, value in enumerate(parameters):
        key = _norm(value)
        if key in slots:
            return None  # duplicate value: mapping not provable
        slots[key] = index
    order: list[int] = []
    for value in sites:
        index = slots.get(_norm(value))
        if index is None:
            return None  # site not a canonical parameter (folded literal)
        order.append(index)
    if len(set(order)) != len(order):
        return None
    return order


def coerce_to_sites(template_sites: list[object], order: list[int],
                    parameters: tuple[object, ...]) -> list[object] | None:
    """Values for :func:`bind_parameters`, re-typed to match the sites.

    ``order`` maps site index -> parameter index (from
    :func:`parameter_order` on the exemplar statement).  Each incoming
    parameter is coerced to the template site's type — the SQL layer
    hands every number over as ``float``, while the plan may hold
    ``int`` sites (limits, integer comparisons).  Returns ``None``
    when a value cannot represent the site's type exactly (e.g. a
    fractional float at an ``int`` site), which callers treat as a
    forced cache miss, never an error.
    """
    if len(order) != len(template_sites):
        return None
    values: list[object] = []
    for site, param_index in zip(template_sites, order):
        if param_index >= len(parameters):
            return None
        value = coerce_value(site, parameters[param_index])
        if value is _NO_COERCION:
            return None
        values.append(value)
    return values


_NO_COERCION = object()


def coerce_value(site: object, value: object) -> object:
    """``value`` re-typed like ``site``, or ``_NO_COERCION``."""
    if isinstance(site, bool) or isinstance(value, bool):
        return value if type(value) is type(site) else _NO_COERCION
    if isinstance(site, int) and isinstance(value, float):
        return int(value) if value.is_integer() else _NO_COERCION
    if isinstance(site, float) and isinstance(value, int):
        return float(value)
    if type(value) is not type(site):
        return _NO_COERCION
    return value


# ---------------------------------------------------------------------------
# masked structural fingerprint
# ---------------------------------------------------------------------------
def plan_fingerprint(plan: LogicalPlan) -> str:
    """Literal-masked structural digest of an optimized plan.

    Every node contributes its masked rendering (node type, join
    structure, aggregate/sort/project specs, semantic operator wiring —
    literal values print as ``?type``), its physical ``hints`` and its
    schema.  Statements of one canonical family optimize to equal
    fingerprints exactly when their literals did not steer any
    optimizer decision.
    """
    parts: list[str] = []

    def visit(node: LogicalPlan, depth: int) -> None:
        hints = ",".join(f"{k}={node.hints[k]!r}" for k in sorted(node.hints))
        schema = ",".join(f"{f.name}:{f.dtype.name}"
                          for f in node.schema.fields)
        parts.append(f"{'  ' * depth}{node.render(mask)} "
                     f"hints({hints}) schema({schema})")
        for child in node.children:
            visit(child, depth + 1)

    visit(plan, 0)
    return hashlib.blake2b("\n".join(parts).encode("utf-8"),
                           digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# promotion eligibility
# ---------------------------------------------------------------------------
def unparameterizable_reason(plan: LogicalPlan) -> str | None:
    """Why ``plan`` must not back a generic plan, or ``None`` if it may.

    - ``"data_induced"``: DIP-derived semi-filters embed values computed
      *from* this statement's literals; new literals would silently
      reuse them.

    Every semantic-join access path is exact, so the method a plan pins
    never refuses it.
    """
    for node in plan.walk():
        if isinstance(node, SemanticSemiFilterNode):
            return "data_induced"
    return None
