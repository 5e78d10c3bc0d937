"""Shared infrastructure for the engine's static-analysis suite.

The analyzers in this package (:mod:`repro.analysis.locks`,
:mod:`repro.analysis.dispatch`, :mod:`repro.analysis.cachekeys`) parse
the engine's own source with :mod:`ast` — they never import the code
under analysis, so fixture modules containing deliberate bugs stay
inert.  This module provides what all three share:

- :class:`SourceModule` / :class:`Package` — a parsed view of a source
  tree with per-module import tables, a class index with resolved base
  classes, and a fully-qualified function index (nested functions and
  methods included, e.g. ``repro.reuse.analysis.describe_plan.visit``).
- :class:`Finding` — one rule violation at one location.
- Pragma suppression — a line carrying ``# analysis: ignore[RULE]``
  suppresses findings of that rule on that line.  The bracket may list
  several comma-separated rules or ``all``.  Text after the bracket is
  the mandatory justification; a pragma without one is itself reported
  (rule ``AN001``) so suppressions stay auditable.
- :func:`run_analysis` — drives the configured analyzers over a
  :class:`AnalysisConfig` and applies suppression.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

#: ``# analysis: ignore[LH001]`` or ``ignore[LH001, DX002] reason...``.
PRAGMA_RE = re.compile(
    r"#\s*analysis:\s*ignore\[([A-Za-z0-9_,\s]+)\]\s*(.*)$")


@dataclass(frozen=True)
class Finding:
    """One rule violation: rule id, repo-relative path, line, message."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.rule}  {self.path}:{self.line}  {self.message}"


@dataclass(frozen=True)
class Pragma:
    rules: tuple[str, ...]
    justification: str

    def covers(self, rule: str) -> bool:
        return rule in self.rules or "all" in self.rules


class SourceModule:
    """One parsed source file: AST, import table, pragma table."""

    def __init__(self, path: Path, name: str, text: str) -> None:
        self.path = path
        self.name = name
        self.text = text
        self.tree = ast.parse(text, filename=str(path))
        self.pragmas: dict[int, Pragma] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = PRAGMA_RE.search(line)
            if match:
                rules = tuple(
                    r.strip() for r in match.group(1).split(",") if r.strip())
                self.pragmas[lineno] = Pragma(rules, match.group(2).strip())
        # name -> fully qualified target, absolute imports only (the
        # engine uses absolute imports throughout).
        self.imports: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".", 1)[0]
                        self.imports[head] = head
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module:
                    for alias in node.names:
                        bound = alias.asname or alias.name
                        self.imports[bound] = f"{node.module}.{alias.name}"


class Package:
    """A parsed source tree with class/function indexes and resolution."""

    def __init__(self, root: Path, name: str, report_base: Path) -> None:
        self.root = root
        self.name = name
        self.report_base = report_base
        self.modules: dict[str, SourceModule] = {}
        for py_path in sorted(root.rglob("*.py")):
            rel = py_path.relative_to(root)
            parts = list(rel.parts)
            parts[-1] = parts[-1][: -len(".py")]
            if parts[-1] == "__init__":
                parts = parts[:-1]
            modname = ".".join([name, *parts]) if parts else name
            self.modules[modname] = SourceModule(
                py_path, modname, py_path.read_text())
        # fq class name -> definition, owning module, base expressions
        self.classes: dict[str, ast.ClassDef] = {}
        self.class_module: dict[str, SourceModule] = {}
        # fq function name (dots through classes and nesting) -> def
        self.functions: dict[str, ast.FunctionDef] = {}
        self.function_module: dict[str, SourceModule] = {}
        for module in self.modules.values():
            self._index(module, module.tree.body, module.name)
        # resolved base-class edges, computed after every class is known
        self.class_bases: dict[str, tuple[str, ...]] = {}
        for fq, node in self.classes.items():
            module = self.class_module[fq]
            bases = []
            for base in node.bases:
                resolved = self.resolve(module, base)
                if resolved:
                    bases.append(resolved)
            self.class_bases[fq] = tuple(bases)

    def _index(self, module: SourceModule, body: list, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                fq = f"{prefix}.{node.name}"
                self.classes[fq] = node
                self.class_module[fq] = module
                self._index(module, node.body, fq)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fq = f"{prefix}.{node.name}"
                if isinstance(node, ast.FunctionDef):
                    self.functions[fq] = node
                    self.function_module[fq] = module
                self._index(module, node.body, fq)
            elif isinstance(node, (ast.If, ast.Try, ast.With)):
                # index through conditional/guarded definitions
                for sub_body in _sub_bodies(node):
                    self._index(module, sub_body, prefix)

    # -- name resolution -------------------------------------------------

    def resolve(self, module: SourceModule, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute expression to a qualified name."""
        if isinstance(node, ast.Name):
            if node.id in module.imports:
                return module.imports[node.id]
            local = f"{module.name}.{node.id}"
            if local in self.classes or local in self.functions:
                return local
            return node.id
        if isinstance(node, ast.Attribute):
            base = self.resolve(module, node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def subclasses(self, base_fq: str) -> dict[str, str]:
        """Transitive subclasses of ``base_fq``: simple name -> fq name."""
        children: dict[str, list[str]] = {}
        for fq, bases in self.class_bases.items():
            for base in bases:
                children.setdefault(base, []).append(fq)
        members: dict[str, str] = {}
        frontier = [base_fq]
        while frontier:
            current = frontier.pop()
            for child in children.get(current, ()):
                simple = child.rsplit(".", 1)[1]
                if simple not in members:
                    members[simple] = child
                    frontier.append(child)
        return members

    def ancestry(self, fq: str) -> Iterator[str]:
        """``fq`` followed by its base classes, breadth-first."""
        seen = [fq]
        index = 0
        while index < len(seen):
            current = seen[index]
            index += 1
            yield current
            for base in self.class_bases.get(current, ()):
                if base not in seen:
                    seen.append(base)

    def rel_path(self, module: SourceModule) -> str:
        try:
            return str(module.path.relative_to(self.report_base))
        except ValueError:
            return str(module.path)


def _sub_bodies(node: ast.stmt) -> Iterator[list]:
    for attr in ("body", "orelse", "finalbody"):
        sub = getattr(node, attr, None)
        if sub:
            yield sub
    for handler in getattr(node, "handlers", ()):
        yield handler.body


@dataclass
class AnalysisConfig:
    """Everything one analysis run needs: sources plus declarations."""

    package: Package
    locks: "object | None" = None      # LockModel
    dispatch: "object | None" = None   # DispatchModel
    cache: "object | None" = None      # CacheModel
    metrics: "object | None" = None    # MetricNamesModel
    annotations: "object | None" = None  # AnnotationModel


#: Registered analyzer entry points, filled by the sibling modules to
#: avoid an import cycle (each registers ``name -> callable``).
ANALYZERS: dict[str, Callable[[AnalysisConfig], list[Finding]]] = {}

ALL_RULES = ("locks", "dispatch", "cache", "metrics", "annotations")


def pragma_findings(package: Package) -> list[Finding]:
    """Report pragmas that suppress without saying why (rule AN001)."""
    findings = []
    for module in package.modules.values():
        for lineno, pragma in sorted(module.pragmas.items()):
            if not pragma.justification:
                findings.append(Finding(
                    "AN001", package.rel_path(module), lineno,
                    "suppression pragma has no justification — say why "
                    "the finding is a false positive"))
    return findings


def suppress(package: Package, findings: list[Finding]) -> list[Finding]:
    """Drop findings covered by a same-line ignore pragma."""
    by_location: dict[tuple[str, int], Pragma] = {}
    for module in package.modules.values():
        rel = package.rel_path(module)
        for lineno, pragma in module.pragmas.items():
            by_location[(rel, lineno)] = pragma
    kept = []
    for finding in findings:
        pragma = by_location.get((finding.path, finding.line))
        if pragma is not None and pragma.covers(finding.rule):
            continue
        kept.append(finding)
    return kept


def run_analysis(config: AnalysisConfig,
                 rules: tuple[str, ...] = ALL_RULES) -> list[Finding]:
    """Run the selected analyzers, apply pragmas, return sorted findings."""
    # The analyzer modules register themselves on import.
    from repro.analysis import (  # noqa: F401
        annotations, cachekeys, dispatch, locks, metricnames)

    findings: list[Finding] = []
    for rule in rules:
        analyzer = ANALYZERS.get(rule)
        if analyzer is None:
            raise ValueError(f"unknown analyzer {rule!r}; "
                             f"known: {sorted(ANALYZERS)}")
        findings.extend(analyzer(config))
    findings = suppress(config.package, findings)
    findings.extend(pragma_findings(config.package))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
