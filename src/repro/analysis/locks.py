"""Lock-hierarchy checker (rules LH001–LH006).

Builds the inter-procedural acquired-while-held graph from the source
tree and checks it against the declared hierarchy in
:mod:`repro.analysis.lock_levels`:

- **LH001** — a lock acquired while a *lower-level* lock is held (an
  up-hierarchy edge), or a non-reentrant lock re-acquired while held
  (an RW lock's read mode may nest under itself; nothing else may).
- **LH002** — an edge between two distinct locks on the *same* level
  that is not declared in ``ALLOWED_SAME_LEVEL``, or a cycle among
  declared locks.
- **LH003** — a *leaf* lock (level 4) held across a call into the
  catalog, plan-cache, or scheduler modules.  Leaves must be innermost.
- **LH004** — a raw lock constructed (``threading.Lock()``,
  ``threading.RLock()``, ``RWLock()``, ``StripedRWLock()``) at an
  attribute/global the declarations file does not know about.
- **LH005** — a ``with`` acquisition of something lock-shaped (name
  matching ``(lock|mutex)$``) that no declaration covers.
- **LH006** — a stale declaration: a declared lock with no acquisition
  or construction site anywhere (the extractor went blind or the lock
  was removed — either way the declarations drifted).

The extractor understands the engine's idioms: ``with self._lock``,
``with lock.read()/.write()``, ``ExitStack.enter_context(stripe.read())``
(held to the end of the ``with`` block), iteration over
``StripedRWLock.stripes_for``, and attribute-based receiver typing via
the declared ``ATTR_TYPES`` table or a parameter's class annotation.  A
method called on a typed receiver may run any override in a subclass
of that type (``plan.lower(...)`` on a ``LogicalPlan``), so every
override counts as a callee.  Calls it cannot resolve are ignored
(the declarations' drift rules keep the extractor honest).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.core import (
    ANALYZERS, AnalysisConfig, Finding, Package, SourceModule)

LOCKISH_RE = re.compile(r"(?i)(lock|mutex)$")

#: Constructors whose result is a mutex the declarations must know.
_RAW_CONSTRUCTORS = ("threading.Lock", "threading.RLock")
_RW_SUFFIXES = (".RWLock", ".StripedRWLock")


@dataclass(frozen=True)
class LockDecl:
    """One declared lock: where it lives and its hierarchy level."""

    name: str
    owner: str           # fq class name, or fq module for globals
    attr: str
    level: int
    kind: str = "mutex"  # "mutex" | "rwlock" | "striped"
    reentrant: bool = False
    #: extra attribute names on the same owner that denote the same
    #: underlying lock (e.g. Conditions built over the mutex).
    aliases: tuple[str, ...] = ()


@dataclass(frozen=True)
class LockModel:
    declarations: tuple[LockDecl, ...]
    allowed_same_level: frozenset[tuple[str, str]] = frozenset()
    attr_types: Mapping[str, str] = field(default_factory=dict)
    value_types: Mapping[str, str] = field(default_factory=dict)
    exempt_modules: frozenset[str] = frozenset()
    boundary_modules: frozenset[str] = frozenset()
    boundary_attrs: frozenset[str] = frozenset()


@dataclass(frozen=True)
class _Held:
    decl: str
    mode: str  # "exclusive" | "read" | "write"


@dataclass
class _Acquisition:
    decl: str
    mode: str
    line: int
    held: tuple[_Held, ...]


@dataclass
class _CallSite:
    callee: str | None
    hint: str | None  # receiver attribute name when callee unresolved
    line: int
    held: tuple[_Held, ...]


@dataclass
class _Facts:
    acquisitions: list[_Acquisition] = field(default_factory=list)
    calls: list[_CallSite] = field(default_factory=list)
    unknown: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class Edge:
    src: str
    dst: str
    src_mode: str
    dst_mode: str
    path: str
    line: int
    via: str | None


@dataclass
class LockReport:
    """Extractor diagnostics, exposed for the analyzer's own tests."""

    sites: list[tuple[str, str, int]] = field(default_factory=list)
    #: (src, dst, path, line) -> Edge; one entry per distinct site so a
    #: pragma on one bad site cannot hide another with the same locks
    edges: dict[tuple[str, str, str, int], Edge] = \
        field(default_factory=dict)
    constructed: set[str] = field(default_factory=set)
    acquired: set[str] = field(default_factory=set)

    def edge_pairs(self) -> set[tuple[str, str]]:
        return {(src, dst) for src, dst, _, _ in self.edges}


class _FunctionWalker:
    """Extract acquisitions and call sites from one function body."""

    def __init__(self, checker: "LockChecker", fq: str,
                 node: ast.FunctionDef, module: SourceModule,
                 class_fq: str | None) -> None:
        self.checker = checker
        self.fq = fq
        self.node = node
        self.module = module
        self.class_fq = class_fq
        self.facts = _Facts()
        self.held: list[_Held] = []
        # ExitStack frames: (alias names, locks acquired through them)
        self.es_frames: list[tuple[set[str], list[_Held]]] = []
        self.locals: dict[str, object] = self._local_types()

    # -- local type inference -------------------------------------------

    def _local_types(self) -> dict[str, object]:
        types: dict[str, object] = {}
        package = self.checker.package
        params = self.node.args
        for arg in (*params.posonlyargs, *params.args, *params.kwonlyargs):
            if arg.annotation is not None:
                resolved = package.resolve(self.module, arg.annotation)
                if resolved in package.classes:
                    types[arg.arg] = resolved
        for stmt in self._own_statements(self.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                inferred = self._typeof(stmt.value, types)
                if inferred is not None:
                    types[stmt.targets[0].id] = inferred
            elif isinstance(stmt, ast.For) \
                    and isinstance(stmt.target, ast.Name):
                it = stmt.iter
                if isinstance(it, ast.Call) \
                        and isinstance(it.func, ast.Attribute):
                    if it.func.attr == "stripes_for":
                        decl = self._lock_attr_decl(it.func.value, types)
                        if decl is not None and decl.kind == "striped":
                            types[stmt.target.id] = ("stripe", decl.name)
                    elif it.func.attr == "values":
                        container = self._typeof(it.func.value, types)
                        if isinstance(container, tuple) \
                                and container[0] == "dict":
                            types[stmt.target.id] = container[1]
        return types

    def _own_statements(self, root: ast.AST):
        """All statements of this function, not descending into defs."""
        stack = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                continue
            if isinstance(node, ast.stmt):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    def _typeof(self, expr: ast.expr,
                types: dict[str, object] | None = None) -> object | None:
        """Best-effort type: fq class name, ("dict", T), ("stripe", d)."""
        types = self.locals if types is None else types
        model = self.checker.model
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.class_fq:
                return self.class_fq
            return types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            if expr.attr in model.attr_types:
                return model.attr_types[expr.attr]
            if expr.attr in model.value_types:
                return ("dict", model.value_types[expr.attr])
            return None
        if isinstance(expr, ast.Subscript):
            container = self._typeof(expr.value, types)
            if isinstance(container, tuple) and container[0] == "dict":
                return container[1]
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in ("get", "pop", "setdefault"):
                container = self._typeof(func.value, types)
                if isinstance(container, tuple) and container[0] == "dict":
                    return container[1]
            resolved = self.checker.package.resolve(self.module, func) \
                if isinstance(func, (ast.Name, ast.Attribute)) else None
            if resolved in self.checker.package.classes:
                return resolved
            return None
        return None

    # -- lock expression classification ---------------------------------

    def _lock_attr_decl(self, expr: ast.expr,
                        types: dict[str, object] | None = None
                        ) -> LockDecl | None:
        checker = self.checker
        if isinstance(expr, ast.Attribute):
            owner_type = self._typeof(expr.value, types)
            if isinstance(owner_type, str):
                for ancestor in checker.package.ancestry(owner_type):
                    decl = checker.decl_at.get((ancestor, expr.attr))
                    if decl is not None:
                        return decl
            return None
        if isinstance(expr, ast.Name):
            decl = checker.decl_at.get((self.module.name, expr.id))
            if decl is not None:
                return decl
            resolved = checker.package.resolve(self.module, expr)
            if resolved and "." in resolved:
                return checker.decl_at.get(tuple(resolved.rsplit(".", 1)))
        return None

    def _classify(self, expr: ast.expr) -> tuple[LockDecl, str] | str | None:
        """Classify a with-context (or enter_context argument).

        Returns (decl, mode), or a display string for an undeclared
        lock-shaped acquisition, or None for non-lock contexts.
        """
        if isinstance(expr, ast.Call) \
                and isinstance(expr.func, ast.Attribute) \
                and expr.func.attr in ("read", "write"):
            recv = expr.func.value
            decl = self._lock_attr_decl(recv)
            if decl is None:
                recv_type = self._typeof(recv)
                if isinstance(recv_type, tuple) \
                        and recv_type[0] == "stripe":
                    decl = self.checker.decl_by_name.get(recv_type[1])
            if decl is not None and decl.kind in ("rwlock", "striped"):
                return decl, expr.func.attr
            if self._lockish(recv):
                return f"{_render(recv)}.{expr.func.attr}()"
            return None
        decl = self._lock_attr_decl(expr)
        if decl is not None:
            return decl, "exclusive"
        if self._lockish(expr):
            return _render(expr)
        return None

    def _lockish(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Attribute):
            return bool(LOCKISH_RE.search(expr.attr))
        if isinstance(expr, ast.Name):
            return bool(LOCKISH_RE.search(expr.id))
        return False

    # -- statement walking ----------------------------------------------

    def run(self) -> _Facts:
        self._walk_body(self.node.body)
        return self.facts

    def _walk_body(self, body: list) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._walk_with(stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            return  # nested definitions are analyzed on their own
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr(stmt.iter)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._visit_expr(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._visit_expr(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body)
            for handler in stmt.handlers:
                self._walk_body(handler.body)
            self._walk_body(stmt.orelse)
            self._walk_body(stmt.finalbody)
        elif isinstance(stmt, ast.Match):
            self._visit_expr(stmt.subject)
            for case in stmt.cases:
                self._walk_body(case.body)
        else:
            self._visit_expr(stmt)

    def _walk_with(self, stmt: ast.With | ast.AsyncWith) -> None:
        acquired: list[_Held] = []
        es_names: set[str] = set()
        for item in stmt.items:
            ctx = item.context_expr
            if self._is_exitstack(ctx):
                if isinstance(item.optional_vars, ast.Name):
                    es_names.add(item.optional_vars.id)
                continue
            classified = self._classify(ctx)
            if classified is None:
                self._visit_expr(ctx)
                continue
            if isinstance(classified, str):
                self.facts.unknown.append((stmt.lineno, classified))
                continue
            decl, mode = classified
            self._acquire(decl, mode, stmt.lineno, acquired)
        if es_names:
            self.es_frames.append((es_names, acquired))
        self._walk_body(stmt.body)
        if es_names:
            self.es_frames.pop()
        for _ in acquired:
            self.held.pop()

    def _acquire(self, decl: LockDecl, mode: str, line: int,
                 acquired: list[_Held]) -> None:
        self.facts.acquisitions.append(_Acquisition(
            decl.name, mode, line, tuple(self.held)))
        held = _Held(decl.name, mode)
        self.held.append(held)
        acquired.append(held)

    def _is_exitstack(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Call) \
                and isinstance(expr.func, (ast.Name, ast.Attribute)):
            resolved = self.checker.package.resolve(self.module, expr.func)
            return bool(resolved) and resolved.endswith("ExitStack")
        return False

    def _visit_expr(self, root: ast.AST) -> None:
        """Record lock-relevant calls inside a simple statement/expr."""
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr == "enter_context" \
                    and isinstance(func.value, ast.Name) \
                    and any(func.value.id in names
                            for names, _ in self.es_frames):
                classified = self._classify(
                    node.args[0]) if node.args else None
                if isinstance(classified, tuple):
                    decl, mode = classified
                    frame_acquired = self.es_frames[-1][1]
                    self._acquire(decl, mode, node.lineno, frame_acquired)
                elif isinstance(classified, str):
                    self.facts.unknown.append((node.lineno, classified))
                continue
            callee, hint = self._resolve_call(func)
            if callee is not None or hint is not None:
                self.facts.calls.append(_CallSite(
                    callee, hint, node.lineno, tuple(self.held)))
            for override in self._overrides(func):
                self.facts.calls.append(_CallSite(
                    override, None, node.lineno, tuple(self.held)))

    def _overrides(self, func: ast.expr) -> list[str]:
        """Overrides of a method called on a typed receiver, in the
        subclasses of the receiver's type: the call may run any."""
        if not isinstance(func, ast.Attribute):
            return []
        recv_type = self._typeof(func.value)
        if not isinstance(recv_type, str):
            return []
        functions = self.checker.package.functions
        return [f"{sub}.{func.attr}"
                for sub in self.checker.subclasses(recv_type)
                if f"{sub}.{func.attr}" in functions]

    def _resolve_call(self, func: ast.expr) -> tuple[str | None, str | None]:
        package = self.checker.package
        if isinstance(func, ast.Attribute):
            hint = func.value.attr \
                if isinstance(func.value, ast.Attribute) else None
            recv_type = self._typeof(func.value)
            if isinstance(recv_type, str):
                for ancestor in package.ancestry(recv_type):
                    candidate = f"{ancestor}.{func.attr}"
                    if candidate in package.functions:
                        return candidate, hint
                if recv_type in package.classes:
                    return None, hint
            resolved = package.resolve(self.module, func)
            if resolved in package.functions:
                return resolved, hint
            if resolved in package.classes:
                init = f"{resolved}.__init__"
                return (init if init in package.functions else None), hint
            return None, hint
        if isinstance(func, ast.Name):
            scope = self.fq
            while "." in scope:
                candidate = f"{scope}.{func.id}"
                if candidate in package.functions:
                    return candidate, None
                scope = scope.rsplit(".", 1)[0]
            resolved = package.resolve(self.module, func)
            if resolved in package.functions:
                return resolved, None
            if resolved in package.classes:
                init = f"{resolved}.__init__"
                return (init if init in package.functions else None), None
        return None, None


class LockChecker:
    def __init__(self, package: Package, model: LockModel) -> None:
        self.package = package
        self.model = model
        self.decl_at: dict[tuple[str, str], LockDecl] = {}
        self.decl_by_name: dict[str, LockDecl] = {}
        self._subclasses: dict[str, list[str]] = {}
        for decl in model.declarations:
            self.decl_by_name[decl.name] = decl
            for attr in (decl.attr, *decl.aliases):
                self.decl_at[(decl.owner, attr)] = decl

    def check(self) -> tuple[list[Finding], LockReport]:
        findings: list[Finding] = []
        report = LockReport()
        facts_by_fn: dict[str, _Facts] = {}
        for fq, node in self.package.functions.items():
            module = self.package.function_module[fq]
            if module.name in self.model.exempt_modules:
                continue
            class_fq = self._enclosing_class(fq)
            walker = _FunctionWalker(self, fq, node, module, class_fq)
            facts_by_fn[fq] = walker.run()

        # LH005 undeclared lock-shaped acquisitions
        for fq, facts in sorted(facts_by_fn.items()):
            module = self.package.function_module[fq]
            rel = self.package.rel_path(module)
            for line, rendered in facts.unknown:
                findings.append(Finding(
                    "LH005", rel, line,
                    f"acquisition of undeclared lock {rendered!r} in "
                    f"{fq} — declare it in analysis/lock_levels.py"))
            for acq in facts.acquisitions:
                report.sites.append((acq.decl, rel, acq.line))
                report.acquired.add(acq.decl)

        # transitive may-acquire summaries (fixpoint)
        summaries: dict[str, set[str]] = {
            fq: {acq.decl for acq in facts.acquisitions}
            for fq, facts in facts_by_fn.items()}
        changed = True
        while changed:
            changed = False
            for fq, facts in facts_by_fn.items():
                summary = summaries[fq]
                for call in facts.calls:
                    inner = summaries.get(call.callee or "")
                    if inner and not inner <= summary:
                        summary |= inner
                        changed = True

        # acquired-while-held edges
        for fq, facts in sorted(facts_by_fn.items()):
            module = self.package.function_module[fq]
            rel = self.package.rel_path(module)
            for acq in facts.acquisitions:
                for held in acq.held:
                    self._add_edge(report, Edge(
                        held.decl, acq.decl, held.mode, acq.mode,
                        rel, acq.line, None))
            for call in facts.calls:
                if not call.held or call.callee is None:
                    continue
                for inner in sorted(summaries.get(call.callee, ())):
                    for held in call.held:
                        self._add_edge(report, Edge(
                            held.decl, inner, held.mode, "exclusive",
                            rel, call.line, call.callee))

        findings.extend(self._check_edges(report))
        findings.extend(self._check_boundaries(facts_by_fn))
        findings.extend(self._check_constructions(report))
        findings.extend(self._check_stale(report))
        return findings, report

    def subclasses(self, fq: str) -> list[str]:
        """Transitive subclasses of class ``fq`` (memoized)."""
        if fq not in self._subclasses:
            self._subclasses[fq] = list(
                self.package.subclasses(fq).values())
        return self._subclasses[fq]

    def _enclosing_class(self, fq: str) -> str | None:
        scope = fq.rsplit(".", 1)[0]
        while "." in scope:
            if scope in self.package.classes:
                return scope
            scope = scope.rsplit(".", 1)[0]
        return None

    @staticmethod
    def _add_edge(report: LockReport, edge: Edge) -> None:
        report.edges.setdefault(
            (edge.src, edge.dst, edge.path, edge.line), edge)

    def _check_edges(self, report: LockReport) -> list[Finding]:
        findings = []
        for (src, dst, _, _), edge in sorted(report.edges.items()):
            s = self.decl_by_name[src]
            d = self.decl_by_name[dst]
            via = f" (via {edge.via})" if edge.via else ""
            if src == dst:
                if s.reentrant:
                    continue
                if s.kind in ("rwlock", "striped") \
                        and edge.src_mode == "read" \
                        and edge.dst_mode == "read":
                    continue
                findings.append(Finding(
                    "LH001", edge.path, edge.line,
                    f"non-reentrant lock {s.name} (level {s.level}) "
                    f"re-acquired while held{via}"))
            elif s.level > d.level:
                findings.append(Finding(
                    "LH001", edge.path, edge.line,
                    f"up-hierarchy edge: {s.name} (level {s.level}) held "
                    f"while acquiring {d.name} (level {d.level}){via}"))
            elif s.level == d.level \
                    and (src, dst) not in self.model.allowed_same_level:
                findings.append(Finding(
                    "LH002", edge.path, edge.line,
                    f"undeclared same-level edge: {s.name} -> {d.name} "
                    f"(both level {s.level}){via} — whitelist it in "
                    f"ALLOWED_SAME_LEVEL or re-level one lock"))
        findings.extend(self._check_cycles(report))
        return findings

    def _check_cycles(self, report: LockReport) -> list[Finding]:
        graph: dict[str, set[str]] = {}
        first_site: dict[tuple[str, str], Edge] = {}
        for (src, dst, _, _), edge in sorted(report.edges.items()):
            if src != dst:
                graph.setdefault(src, set()).add(dst)
                first_site.setdefault((src, dst), edge)
        path: list[str] = []
        on_path: set[str] = set()
        done: set[str] = set()
        cycles: list[tuple[str, ...]] = []

        def visit(node: str) -> None:
            if node in done:
                return
            path.append(node)
            on_path.add(node)
            for succ in sorted(graph.get(node, ())):
                if succ in on_path:
                    cycles.append(tuple(path[path.index(succ):]) + (succ,))
                else:
                    visit(succ)
            on_path.discard(node)
            path.pop()
            done.add(node)

        for node in sorted(graph):
            visit(node)
        findings = []
        for cycle in cycles:
            first_edge = first_site[(cycle[0], cycle[1])]
            findings.append(Finding(
                "LH002", first_edge.path, first_edge.line,
                "lock cycle: " + " -> ".join(cycle)))
        return findings

    def _check_boundaries(
            self, facts_by_fn: dict[str, _Facts]) -> list[Finding]:
        findings = []
        leaf_level = max(d.level for d in self.model.declarations)
        for fq, facts in sorted(facts_by_fn.items()):
            module = self.package.function_module[fq]
            rel = self.package.rel_path(module)
            for call in facts.calls:
                leaves = [h.decl for h in call.held
                          if self.decl_by_name[h.decl].level == leaf_level]
                if not leaves:
                    continue
                callee_module = ""
                if call.callee and call.callee \
                        in self.package.function_module:
                    callee_module = \
                        self.package.function_module[call.callee].name
                if callee_module in self.model.boundary_modules \
                        and callee_module != module.name:
                    target = call.callee
                elif call.hint in self.model.boundary_attrs:
                    target = call.hint
                else:
                    continue
                findings.append(Finding(
                    "LH003", rel, call.line,
                    f"leaf lock {leaves[0]} held across call into "
                    f"{target} — leaves must be innermost"))
        return findings

    def _check_constructions(self, report: LockReport) -> list[Finding]:
        findings = []
        for module in self.package.modules.values():
            if module.name in self.model.exempt_modules:
                continue
            rel = self.package.rel_path(module)
            for owner, attr, line in _constructions(self.package, module):
                decl = self.decl_at.get((owner, attr))
                if decl is not None:
                    report.constructed.add(decl.name)
                else:
                    findings.append(Finding(
                        "LH004", rel, line,
                        f"undeclared lock constructed at {owner}.{attr} — "
                        f"declare it in analysis/lock_levels.py"))
        return findings

    def _check_stale(self, report: LockReport) -> list[Finding]:
        findings = []
        for decl in self.model.declarations:
            if decl.name in report.acquired \
                    or decl.name in report.constructed:
                continue
            module = self.package.class_module.get(decl.owner) \
                or self.package.modules.get(decl.owner)
            rel = self.package.rel_path(module) if module else decl.owner
            findings.append(Finding(
                "LH006", rel, 1,
                f"stale declaration: {decl.name} has no acquisition or "
                f"construction site — remove it or fix the extractor"))
        return findings


def _constructions(package: Package, module: SourceModule):
    """Yield (owner, attr, line) for every lock constructed in module."""

    def is_ctor(expr: ast.expr) -> bool:
        if not isinstance(expr, (ast.Name, ast.Attribute)):
            return False
        resolved = package.resolve(module, expr)
        return bool(resolved) and (
            resolved in _RAW_CONSTRUCTORS
            or resolved.endswith(_RW_SUFFIXES))

    def scan(body: list, prefix: str, class_fq: str | None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from scan(node.body, f"{prefix}.{node.name}",
                                f"{prefix}.{node.name}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from scan(node.body, prefix, class_fq)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For,
                                   ast.While)):
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, ast.stmt):
                        yield from scan([sub], prefix, class_fq)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                value = node.value
                if value is None:
                    continue
                made = None
                if isinstance(value, ast.Call) and is_ctor(value.func):
                    made = True
                elif isinstance(value, ast.Call) \
                        and isinstance(value.func, (ast.Name, ast.Attribute)):
                    resolved = package.resolve(module, value.func)
                    if resolved and resolved.endswith("field"):
                        for kw in value.keywords:
                            if kw.arg == "default_factory" \
                                    and is_ctor(kw.value):
                                made = True
                if not made:
                    continue
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self" and class_fq:
                        yield class_fq, target.attr, node.lineno
                    elif isinstance(target, ast.Name):
                        yield (class_fq or prefix), target.id, node.lineno

    yield from scan(module.tree.body, module.name, None)


def _render(expr: ast.expr) -> str:
    try:
        return ast.unparse(expr)
    except Exception:
        return "<lock>"


def check_locks(config: AnalysisConfig) -> tuple[list[Finding], LockReport]:
    if config.locks is None:
        return [], LockReport()
    return LockChecker(config.package, config.locks).check()


ANALYZERS["locks"] = lambda config: check_locks(config)[0]
