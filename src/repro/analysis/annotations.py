"""Annotation-completeness lint (rule TY001).

``mypy`` runs only in CI, so a module pulled into the strict scope of
``mypy.ini`` (a ``[mypy-…]`` section with ``ignore_errors = False``)
could land unannotated and be caught only after it merges.  This rule
needs nothing but :mod:`ast`: every ``def`` in a strict module must
annotate each parameter — a method's ``self``/``cls`` excepted — and
its return type, which is what ``disallow_untyped_defs`` and
``disallow_incomplete_defs`` demand.  As in mypy, an ``__init__`` with
at least one annotated parameter may omit ``-> None``.
"""

from __future__ import annotations

import ast
import configparser
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.core import ANALYZERS, AnalysisConfig, Finding


@dataclass(frozen=True)
class AnnotationModel:
    #: Strict module patterns: a module name, or ``pkg.*`` for a
    #: package and everything under it (mypy's section syntax).
    strict: tuple[str, ...]


def strict_modules(mypy_ini: Path) -> tuple[str, ...]:
    """The ``[mypy-…]`` patterns ``mypy_ini`` sets ``ignore_errors =
    False`` for; empty when the file is absent."""
    parser = configparser.ConfigParser()
    parser.read(mypy_ini)
    return tuple(section[len("mypy-"):] for section in parser.sections()
                 if section.startswith("mypy-")
                 and not parser.getboolean(section, "ignore_errors",
                                           fallback=True))


def _is_strict(module: str, patterns: tuple[str, ...]) -> bool:
    return any(module == pattern.removesuffix(".*")
               or (pattern.endswith(".*")
                   and module.startswith(pattern[:-1]))
               for pattern in patterns)


def _missing(fn: ast.FunctionDef | ast.AsyncFunctionDef,
             method: bool) -> list[str]:
    args = fn.args
    params = [*args.posonlyargs, *args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    if method and params and not static:
        params = params[1:]
    params += [*args.kwonlyargs,
               *(arg for arg in (args.vararg, args.kwarg) if arg)]
    missing = [param.arg for param in params if param.annotation is None]
    if fn.returns is None and not (fn.name == "__init__"
                                   and len(missing) < len(params)):
        missing.append("return")
    return missing


def check_annotations(config: AnalysisConfig) -> list[Finding]:
    model: AnnotationModel | None = config.annotations
    if model is None:
        return []
    findings = []
    for module in config.package.modules.values():
        if not _is_strict(module.name, model.strict):
            continue
        methods = {id(node) for cls in ast.walk(module.tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            missing = _missing(fn, id(fn) in methods)
            if missing:
                findings.append(Finding(
                    "TY001", config.package.rel_path(module), fn.lineno,
                    f"{fn.name}() in a strict mypy module lacks "
                    f"annotations for: {', '.join(missing)}"))
    return findings


ANALYZERS["annotations"] = check_annotations
