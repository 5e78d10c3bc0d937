"""Code generation for fused pipelines (paper §VI).

"Just-in-time code generation using frameworks such as LLVM enables
specializing the code paths" — the Python analogue: compile a whole
Scan→Filter→Project pipeline (:class:`~repro.relational.pipeline.
PipelineNode`) into one flat function via source generation +
``compile``, removing the per-batch interpretive walk over the
expression trees and the intermediate table per operator.  The compile
cost is real and measured, so the optimizer's cost gate
(:meth:`~repro.optimizer.cost.CostModel.should_fuse`) and the kernel
cache (:mod:`repro.engine.kernel_cache`) can trade a fixed compilation
overhead against the batches that buy it back.

Soundness rules: literal values are bound as *namespace constants*, never
``repr()``-ed into source (a NumPy scalar's repr like ``np.float64(3.5)``
would not resolve inside the kernel namespace and would emit broken
source); :class:`~repro.relational.expressions.Func` nodes — built-ins
and registered UDFs alike — are rejected up front (a UDF can be replaced
or unregistered after compilation, so inlining a snapshot of it is
unsound).  Callers should consult :func:`jit_supported` and fall back to
the interpreted path instead of catching compile errors.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ExpressionError
from repro.relational.expressions import (
    And,
    Arith,
    Array,
    ColumnRef,
    Compare,
    Expr,
    Func,
    InList,
    Literal,
    Not,
    Or,
)
from repro.storage.table import Table

_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


# ----------------------------------------------------------------------
# Support detection
# ----------------------------------------------------------------------
#: Expression node types the code generator can soundly emit.
_SUPPORTED_NODES = (ColumnRef, Literal, Compare, And, Or, Not, Arith,
                    InList)


def _first_unsupported(expr: Expr) -> Expr | None:
    """The first sub-expression (pre-order) the generator cannot
    compile, or ``None`` when the whole tree is supported."""
    if not isinstance(expr, _SUPPORTED_NODES):
        return expr
    for child in expr.children():
        unsupported = _first_unsupported(child)
        if unsupported is not None:
            return unsupported
    return None


def jit_supported(expr: Expr) -> bool:
    """Whether ``expr`` can be soundly compiled.

    ``False`` for any tree containing a :class:`Func` (built-in or UDF —
    neither can be inlined without freezing a function registry snapshot
    into the kernel) or an expression type the generator does not know.
    Callers use this to *fall back* to the interpreted path; compiling an
    unsupported tree raises :class:`~repro.errors.ExpressionError` before
    any source is emitted.
    """
    return _first_unsupported(expr) is None


def _check_supported(expr: Expr) -> None:
    unsupported = _first_unsupported(expr)
    if isinstance(unsupported, Func):
        raise ExpressionError(
            f"JIT specialization does not support function "
            f"{unsupported.name!r} (built-in or UDF calls cannot be "
            "soundly inlined; use the interpreted path)"
        )
    if unsupported is not None:
        raise ExpressionError(
            f"cannot specialize {type(unsupported).__name__}")


# ----------------------------------------------------------------------
# Emit machinery
# ----------------------------------------------------------------------
class _Emitter:
    """Generates straight-line source; literals become namespace
    constants (``_k0, _k1, ...``) so arbitrary values — NumPy scalars,
    strings with quotes, dates already int-coerced — can never produce
    invalid source."""

    def __init__(self) -> None:
        self.constants: dict[str, object] = {}
        self._counter = itertools.count()

    def bind_constant(self, value: object) -> str:
        name = f"_k{next(self._counter)}"
        self.constants[name] = value
        return name

    def emit(self, expr: Expr, column_vars: dict[str, str]) -> str:
        if isinstance(expr, ColumnRef):
            return column_vars[expr.name]
        if isinstance(expr, Literal):
            return self.bind_constant(expr.value)
        if isinstance(expr, Compare):
            return (f"_asbool({self.emit(expr.left, column_vars)} "
                    f"{_OPS[expr.op]} "
                    f"{self.emit(expr.right, column_vars)})")
        if isinstance(expr, And):
            return (f"({self.emit(expr.left, column_vars)} & "
                    f"{self.emit(expr.right, column_vars)})")
        if isinstance(expr, Or):
            return (f"({self.emit(expr.left, column_vars)} | "
                    f"{self.emit(expr.right, column_vars)})")
        if isinstance(expr, Not):
            return f"(~_asbool({self.emit(expr.operand, column_vars)}))"
        if isinstance(expr, Arith):
            return (f"({self.emit(expr.left, column_vars)} {expr.op} "
                    f"{self.emit(expr.right, column_vars)})")
        if isinstance(expr, InList):
            allowed = self.bind_constant(frozenset(expr.values))
            return (f"_in_list({self.emit(expr.operand, column_vars)}, "
                    f"{allowed})")
        raise ExpressionError(f"cannot specialize {type(expr).__name__}")


def _asbool(x: Any) -> Any:
    # Any, not Array: a bool NumPy scalar passes through unchanged
    return (x if getattr(x, "dtype", None) == np.dtype(bool)
            else np.asarray(x, dtype=bool))


def _asobj(x: Any) -> Array:
    return np.asarray(x, dtype=object)


def _in_list(values: Iterable[object], allowed: frozenset[object]) -> Array:
    return np.asarray([value in allowed for value in values], dtype=bool)


def _fill(n: int, value: object) -> Array:
    """Replicates ``Literal.evaluate`` for a top-level projection item."""
    if isinstance(value, str):
        return np.asarray([value] * n, dtype=object)
    return np.full(n, value)


_BASE_NAMESPACE = {
    "_np": np,
    "_asbool": _asbool,
    "_asobj": _asobj,
    "_in_list": _in_list,
    "_fill": _fill,
}


# ----------------------------------------------------------------------
# Fused pipeline kernels
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PipelineSpec:
    """Description of one fusible pipeline.

    ``ops`` is an ordered tuple of segments, innermost first:

    - ``("filter", (pred, pred, ...))`` — consecutive Filter nodes
      merged into one conjunction, applied as a single boolean-index
      pass;
    - ``("project", ((expr, alias), ...))`` — a projection evaluated on
      the already-masked arrays.

    ``input_columns`` are the batch columns of the pipeline's input;
    ``output`` is the final schema as ``(name, is_string)`` pairs (the
    string flag reproduces ``ProjectOp``'s object-dtype coercion).
    """

    input_columns: tuple[str, ...]
    ops: tuple[tuple[Any, ...], ...]
    output: tuple[tuple[str, bool], ...]


@dataclass
class PipelineKernel:
    """One compiled pipeline: batch in, output column arrays out."""

    source: str
    function: Callable[[Table], tuple[Array, ...]]
    compile_seconds: float

    def __call__(self, batch: Table) -> tuple[Array, ...]:
        return self.function(batch)


def _emit_pipeline_source(spec: PipelineSpec, emitter: _Emitter) -> str:
    """Straight-line source for the whole pipeline.

    Binds each needed input column exactly once, folds every filter
    segment into one mask + one boolean-index pass over the columns
    still live, and computes projections on the masked selection — no
    intermediate ``Table`` is ever built.
    """
    lines = ["def _kernel(batch):"]
    # the live column space: name -> local variable
    space: dict[str, str] = {}
    needed = _referenced_columns(spec)
    for index, name in enumerate(spec.input_columns):
        if name in needed:
            var = f"_c{index}"
            lines.append(f"    {var} = batch.column({name!r})")
            space[name] = var
    # row count for projections that reference no column (pure literals)
    needs_n = any(
        kind == "project" and any(not expr.columns() for expr, _ in items)
        for kind, items in spec.ops)
    if needs_n:
        lines.append("    _n = batch.num_rows")
    tmp = itertools.count()
    for kind, items in spec.ops:
        if kind == "filter":
            mask_var = f"_m{next(tmp)}"
            conjuncts = " & ".join(
                f"_asbool({emitter.emit(pred, space)})" for pred in items)
            lines.append(f"    {mask_var} = {conjuncts}")
            # one boolean-index pass over every live column
            for name, var in list(space.items()):
                new = f"_f{next(tmp)}"
                lines.append(f"    {new} = {var}[{mask_var}]")
                space[name] = new
            if needs_n:
                lines.append(f"    _n = int({mask_var}.sum())")
        else:  # project
            new_space: dict[str, str] = {}
            for expr, alias in items:
                var = f"_p{next(tmp)}"
                if isinstance(expr, Literal):
                    const = emitter.bind_constant(expr.value)
                    lines.append(f"    {var} = _fill(_n, {const})")
                elif isinstance(expr, ColumnRef):
                    # passthrough: reuse the bound array, zero copies
                    var = space[expr.name]
                else:
                    lines.append(
                        f"    {var} = {emitter.emit(expr, space)}")
                new_space[alias] = var
            space = new_space
    outputs = []
    for name, is_string in spec.output:
        var = space[name]
        outputs.append(f"_asobj({var})" if is_string else var)
    lines.append("    return (" + ", ".join(outputs) + ("," if
                 len(outputs) == 1 else "") + ")")
    return "\n".join(lines) + "\n"


def _referenced_columns(spec: PipelineSpec) -> set[str]:
    """Input columns the generated kernel must bind: everything any
    segment references, plus — until the first projection rebinds the
    space — every output column that passes through untouched."""
    needed: set[str] = set()
    has_project = any(kind == "project" for kind, _ in spec.ops)
    for kind, items in spec.ops:
        if kind == "filter":
            for pred in items:
                needed |= pred.columns()
        else:
            for expr, _ in items:
                needed |= expr.columns()
            break  # later segments reference projected names
    if not has_project:
        needed |= {name for name, _ in spec.output}
    return {name for name in needed if name in set(spec.input_columns)}


def compile_pipeline(spec: PipelineSpec) -> PipelineKernel:
    """Compile a :class:`PipelineSpec` into one fused batch kernel.

    Results are bit-identical to the interpreted operator chain: masks
    are applied in stage order, projections are evaluated on
    already-masked arrays, and string outputs get the same object-dtype
    coercion ``ProjectOp`` applies.  Raises
    :class:`~repro.errors.ExpressionError` (before emitting any source)
    for an expression :func:`jit_supported` rejects.
    """
    for kind, items in spec.ops:
        exprs = (items if kind == "filter"
                 else tuple(expr for expr, _ in items))
        for expr in exprs:
            _check_supported(expr)
    started = time.perf_counter()
    emitter = _Emitter()
    source = _emit_pipeline_source(spec, emitter)
    namespace: dict[str, Any] = dict(_BASE_NAMESPACE)
    exec(compile(source, filename="<repro-jit>", mode="exec"),  # noqa: S102
         namespace)
    namespace.update(emitter.constants)
    return PipelineKernel(
        source=source, function=namespace["_kernel"],
        compile_seconds=time.perf_counter() - started)
