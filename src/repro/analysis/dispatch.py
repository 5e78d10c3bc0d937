"""Dispatch-exhaustiveness verifier (rules DX001–DX003).

Enumerates each node family by walking the base class's subclass tree
(:meth:`Package.subclasses`), then checks every dispatcher registered
in :mod:`repro.analysis.dispatch_registry`:

- **DX001** — a member the dispatcher must handle has no arm: no
  ``isinstance`` test mentions it (directly, in a tuple, or through a
  module-level tuple constant like ``jit._SUPPORTED_NODES``), and for
  ``kind="method"`` specs the class neither defines nor inherits a
  real implementation of the dispatch method.
- **DX002** — the dispatcher's declared default does not hold: a
  ``reject`` dispatcher whose tail does not end in ``raise``, a
  ``refuse`` dispatcher whose final else-branch never calls the
  refusal hook, or a ``declared`` default with no justification.
- **DX003** — registry drift: the spec names a function, family base,
  or member that does not exist in the tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Mapping

from repro.analysis.core import (
    ANALYZERS, AnalysisConfig, Finding, Package, SourceModule)


@dataclass(frozen=True)
class Family:
    name: str
    base: str  # fully qualified base-class name


@dataclass(frozen=True)
class DispatcherSpec:
    function: str            # fq path, dots through classes and nesting
    family: str
    kind: str = "isinstance"  # "isinstance" | "method"
    method: str = ""          # dispatch method for kind="method"
    #: members that need an arm; None = every family member
    must_handle: tuple[str, ...] | None = None
    default: str = "reject"   # "reject" | "refuse" | "declared"
    refuse_attr: str = "refuse"
    justification: str = ""


@dataclass(frozen=True)
class DispatchModel:
    families: tuple[Family, ...]
    specs: tuple[DispatcherSpec, ...]


def family_members(package: Package,
                   model: DispatchModel) -> dict[str, dict[str, str]]:
    """Family name -> {simple class name: fq class name}."""
    return {family.name: package.subclasses(family.base)
            for family in model.families}


def check_dispatch(config: AnalysisConfig) -> list[Finding]:
    model = config.dispatch
    if model is None:
        return []
    package = config.package
    findings: list[Finding] = []
    members_by_family = family_members(package, model)
    bases = {family.name: family.base for family in model.families}

    for family in model.families:
        if family.base not in package.classes:
            findings.append(Finding(
                "DX003", family.base, 1,
                f"family {family.name!r}: base class {family.base} not "
                f"found in the analyzed tree"))

    for spec in model.specs:
        members = members_by_family.get(spec.family)
        if members is None:
            findings.append(Finding(
                "DX003", spec.function, 1,
                f"spec references unknown family {spec.family!r}"))
            continue
        if spec.kind == "method":
            findings.extend(_check_method_spec(
                package, spec, members, bases[spec.family]))
        else:
            findings.extend(_check_isinstance_spec(package, spec, members))
    return findings


def _spec_targets(spec: DispatcherSpec,
                  members: Mapping[str, str]) -> tuple[list[str], list[str]]:
    """(member names that need arms, unknown names in the spec)."""
    unknown = [name for name in spec.must_handle or () if name not in members]
    if spec.must_handle is not None:
        needed = [n for n in spec.must_handle if n in members]
    else:
        needed = list(members)
    return sorted(needed), unknown


def _check_method_spec(package: Package, spec: DispatcherSpec,
                       members: Mapping[str, str],
                       base: str) -> list[Finding]:
    findings = []
    needed, unknown = _spec_targets(spec, members)
    location = _spec_location(package, spec)
    if spec.function not in package.functions:
        findings.append(Finding(
            "DX003", *location,
            f"dispatcher {spec.function} not found in the analyzed "
            f"tree"))
    for name in unknown:
        findings.append(Finding(
            "DX003", *location,
            f"{spec.function}: spec names unknown member {name!r}"))
    for name in needed:
        fq = members[name]
        if _resolves_method(package, fq, spec.method, base):
            continue
        module = package.class_module[fq]
        findings.append(Finding(
            "DX001", package.rel_path(module),
            package.classes[fq].lineno,
            f"{name} has no usable {spec.method}() for dispatcher "
            f"{spec.function} — define it or inherit a real one"))
    return findings


def _resolves_method(package: Package, fq: str, method: str,
                     base: str) -> bool:
    for ancestor in package.ancestry(fq):
        node = package.classes.get(ancestor)
        if node is None:
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == method:
                return not _only_raises_not_implemented(item)
    return False


def _only_raises_not_implemented(fn: ast.FunctionDef) -> bool:
    body = [stmt for stmt in fn.body
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant))]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    name = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(name, ast.Name) and name.id == "NotImplementedError"


def _check_isinstance_spec(package: Package, spec: DispatcherSpec,
                           members: Mapping[str, str]) -> list[Finding]:
    findings = []
    fn = package.functions.get(spec.function)
    if fn is None:
        return [Finding(
            "DX003", spec.function, 1,
            f"dispatcher {spec.function} not found in the analyzed tree")]
    module = package.function_module[spec.function]
    rel = package.rel_path(module)
    needed, unknown = _spec_targets(spec, members)
    for name in unknown:
        findings.append(Finding(
            "DX003", rel, fn.lineno,
            f"{spec.function}: spec names unknown member {name!r}"))

    handled = _handled_classes(package, module, fn)
    member_fqs = {fq: name for name, fq in members.items()}
    covered = {member_fqs[fq] for fq in handled if fq in member_fqs}
    missing = [name for name in needed if name not in covered]
    if missing:
        findings.append(Finding(
            "DX001", rel, fn.lineno,
            f"{spec.function} has no arm for: {', '.join(missing)} "
            f"(family {spec.family!r})"))

    if spec.default == "reject" and not _tail_raises(fn):
        findings.append(Finding(
            "DX002", rel, fn.body[-1].lineno,
            f"{spec.function} declares a rejecting default but its tail "
            f"does not raise — unhandled nodes fall through silently"))
    elif spec.default == "refuse" \
            and not _tail_refuses(fn, spec.refuse_attr):
        findings.append(Finding(
            "DX002", rel, fn.body[-1].lineno,
            f"{spec.function} declares a refusing default but no final "
            f"else-branch calls .{spec.refuse_attr}()"))
    elif spec.default == "declared" and not spec.justification:
        findings.append(Finding(
            "DX002", rel, fn.lineno,
            f"{spec.function} declares a fall-through default without a "
            f"justification in the registry"))
    return findings


def _handled_classes(package: Package, module: SourceModule,
                     fn: ast.FunctionDef) -> set[str]:
    """Fully qualified classes mentioned in the function's isinstance
    tests, expanding tuples and module-level tuple constants."""
    handled: set[str] = set()

    def add_target(expr: ast.expr) -> None:
        if isinstance(expr, ast.Tuple):
            for elt in expr.elts:
                add_target(elt)
            return
        if not isinstance(expr, (ast.Name, ast.Attribute)):
            return
        resolved = package.resolve(module, expr)
        if resolved is None:
            return
        if resolved in package.classes:
            handled.add(resolved)
            return
        constant = _module_tuple_constant(module, expr)
        if constant is not None:
            add_target(constant)

    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            add_target(node.args[1])
    return handled


def _module_tuple_constant(module: SourceModule,
                           expr: ast.expr) -> ast.Tuple | None:
    if not isinstance(expr, ast.Name):
        return None
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and stmt.targets[0].id == expr.id \
                and isinstance(stmt.value, ast.Tuple):
            return stmt.value
        if isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.target.id == expr.id \
                and isinstance(stmt.value, ast.Tuple):
            return stmt.value
    return None


def _tail_raises(fn: ast.FunctionDef) -> bool:
    tail = fn.body[-1]
    if isinstance(tail, ast.Raise):
        return True
    # if/elif chain whose final else raises
    while isinstance(tail, ast.If):
        if not tail.orelse:
            return False
        last = tail.orelse[-1]
        if isinstance(last, ast.Raise):
            return True
        tail = last
    return False


def _tail_refuses(fn: ast.FunctionDef, refuse_attr: str) -> bool:
    tail = fn.body[-1]
    while isinstance(tail, ast.If):
        if not tail.orelse:
            return False
        branch = tail.orelse
        if len(branch) == 1 and isinstance(branch[0], ast.If):
            tail = branch[0]
            continue
        for stmt in branch:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == refuse_attr:
                    return True
        return False
    return False


def _spec_location(package: Package,
                   spec: DispatcherSpec) -> tuple[str, int]:
    fn = package.functions.get(spec.function)
    if fn is not None:
        module = package.function_module[spec.function]
        return package.rel_path(module), fn.lineno
    return spec.function, 1


ANALYZERS["dispatch"] = check_dispatch
