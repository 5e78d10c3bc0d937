"""Just-in-time kernel specialization (paper §VI).

"Just-in-time code generation using frameworks such as LLVM enables
specializing the code paths" — the Python analogue: compile an expression
tree (or a whole Scan→Filter→Project pipeline) into a flat function via
source generation + ``compile``, removing the per-batch interpretive walk
over the tree.  The compile cost is real and measured, so benchmarks can
show the classic JIT trade-off: a fixed compilation overhead bought back
on every subsequent batch.

Two backends produce bit-identical results:

- **python** (always available) — generated straight-line NumPy source,
  ``compile()``-ed and ``exec``-ed into a private namespace;
- **numba** (optional) — the numeric inner section of the same generated
  source wrapped in ``numba.njit`` (IEEE semantics, no fastmath), used
  only when the module imports and every bound column is numeric.  Any
  failure at wrap time silently falls back to the python backend.

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
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExpressionError
from repro.relational.expressions import (
    And,
    Arith,
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

try:  # optional accelerator backend; the pure-NumPy path is always on
    import numba  # type: ignore[import-not-found]

    NUMBA_AVAILABLE = True
except Exception:  # pragma: no cover - environment without numba
    numba = None
    NUMBA_AVAILABLE = False

#: Backends ``compile_pipeline`` accepts.  ``auto`` resolves to numba
#: when importable *and* the pipeline is numeric-only, else python.
BACKENDS = ("auto", "python", "numba")


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
# Shared emit machinery
# ----------------------------------------------------------------------
class _Emitter:
    """Generates straight-line source; literals become namespace
    constants (``_k0, _k1, ...``) so arbitrary values — NumPy scalars,
    strings with quotes, dates already int-coerced — can never produce
    invalid source."""

    def __init__(self):
        self.constants: dict[str, object] = {}
        self._counter = itertools.count()

    def bind_constant(self, value) -> str:
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


def _asbool(x):
    return (x if getattr(x, "dtype", None) == np.dtype(bool)
            else np.asarray(x, dtype=bool))


def _asobj(x):
    return np.asarray(x, dtype=object)


def _in_list(values, allowed: frozenset) -> np.ndarray:
    return np.asarray([value in allowed for value in values], dtype=bool)


def _fill(n: int, value) -> np.ndarray:
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


def _exec_source(source: str) -> dict:
    namespace = dict(_BASE_NAMESPACE)
    code = compile(source, filename="<repro-jit>", mode="exec")
    exec(code, namespace)  # noqa: S102 - deliberate codegen
    return namespace


# ----------------------------------------------------------------------
# Single-expression kernels (the pre-existing tier)
# ----------------------------------------------------------------------
@dataclass
class SpecializedKernel:
    """A compiled predicate/projection kernel."""

    source: str
    function: object
    compile_seconds: float

    def __call__(self, batch: Table) -> np.ndarray:
        return self.function(batch)  # type: ignore[operator]


def compile_predicate(expr: Expr) -> SpecializedKernel:
    """Compile ``expr`` into a specialized batch kernel.

    The generated source binds column arrays to locals once, then runs one
    straight-line NumPy expression — the code-shape a query compiler emits.
    Raises :class:`~repro.errors.ExpressionError` (before emitting any
    source) for trees :func:`jit_supported` rejects.
    """
    started = time.perf_counter()
    _check_supported(expr)
    emitter = _Emitter()
    columns = sorted(expr.columns())
    bindings = "\n    ".join(
        f"_c{i} = batch.column({name!r})" for i, name in enumerate(columns)
    )
    column_vars = {name: f"_c{i}" for i, name in enumerate(columns)}
    body = emitter.emit(expr, column_vars)
    source = (
        "def _kernel(batch):\n"
        f"    {bindings if bindings else 'pass'}\n"
        f"    return _asbool({body})\n"
    )
    namespace = _exec_source(source)
    namespace.update(emitter.constants)
    function = namespace["_kernel"]
    function.__globals__.update(emitter.constants)
    elapsed = time.perf_counter() - started
    return SpecializedKernel(source=source, function=function,
                             compile_seconds=elapsed)


# ----------------------------------------------------------------------
# Fused pipeline kernels
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PipelineSpec:
    """Backend-agnostic description of one fusible pipeline.

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
    ops: tuple[tuple, ...]
    output: tuple[tuple[str, bool], ...]


@dataclass
class PipelineKernel:
    """One compiled pipeline: batch in, output column arrays out."""

    source: str
    function: object
    compile_seconds: float
    backend: str
    output_names: tuple[str, ...]
    #: How often the kernel ran (telemetry; benign under races).
    calls: int = field(default=0)

    def __call__(self, batch: Table) -> tuple[np.ndarray, ...]:
        self.calls += 1
        return self.function(batch)  # type: ignore[operator]


def supported_pipeline_expr(expr: Expr) -> bool:
    """Alias of :func:`jit_supported` (pipeline stages share the same
    expression support set)."""
    return jit_supported(expr)


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


def compile_pipeline(spec: PipelineSpec,
                     backend: str = "auto") -> PipelineKernel:
    """Compile a :class:`PipelineSpec` into one fused batch kernel.

    Results are bit-identical across backends and to the interpreted
    operator chain: masks are applied in stage order, projections are
    evaluated on already-masked arrays, and string outputs get the same
    object-dtype coercion ``ProjectOp`` applies.
    """
    if backend not in BACKENDS:
        raise ExpressionError(
            f"unknown JIT backend {backend!r}; expected one of {BACKENDS}")
    for kind, items in spec.ops:
        exprs = (items if kind == "filter"
                 else tuple(expr for expr, _ in items))
        for expr in exprs:
            _check_supported(expr)
    started = time.perf_counter()
    emitter = _Emitter()
    source = _emit_pipeline_source(spec, emitter)
    namespace = _exec_source(source)
    namespace.update(emitter.constants)
    function = namespace["_kernel"]
    function.__globals__.update(emitter.constants)
    resolved = "python"
    if backend in ("auto", "numba") and NUMBA_AVAILABLE:
        accelerated = _try_numba(source, emitter.constants, spec,
                                 function)
        if accelerated is not None:
            function = accelerated
            resolved = "numba"
        # an explicit backend="numba" request that cannot be honoured
        # stays correct on the python path rather than failing the query
    elapsed = time.perf_counter() - started
    return PipelineKernel(
        source=source, function=function, compile_seconds=elapsed,
        backend=resolved,
        output_names=tuple(name for name, _ in spec.output))


def _try_numba(source: str, constants: dict, spec: PipelineSpec,
               python_function):
    """Wrap the generated numeric section in ``numba.njit``.

    Only attempted for pipelines with no string/object data (numba has
    no object-array support): no ``_in_list``/``_fill``-of-string, no
    string outputs.  The njit wrapper takes the bound arrays
    positionally; the outer function still does the ``batch.column``
    binding in Python.  Any failure — at wrap time, or at first call
    when numba's lazy type inference rejects an input — falls back to
    the already-compiled python kernel, so a query can never fail on
    backend grounds.  IEEE float semantics are preserved (no fastmath),
    keeping results bit-identical with the python backend.
    """
    if any(is_string for _, is_string in spec.output):
        return None
    if "_in_list(" in source or "_fill(" in source or "_asobj(" in source:
        return None
    if any(isinstance(value, (str, frozenset))
           for value in constants.values()):
        return None
    try:  # pragma: no cover - exercised only where numba is installed
        lines = source.splitlines()
        binds = [line for line in lines if "batch.column(" in line]
        body = [line for line in lines[1:] if "batch.column(" not in line]
        args = [line.split("=")[0].strip() for line in binds]
        const_names = sorted(constants)
        inner_lines = ([f"def _inner({', '.join(args + const_names)}):"]
                       + [line.replace("_asbool(", "(")
                          for line in body])
        inner_source = "\n".join(inner_lines) + "\n"
        inner_ns = {"_np": np}
        exec(compile(inner_source, "<repro-jit-numba>", "exec"),  # noqa: S102
             inner_ns)
        jitted = numba.njit(cache=False)(inner_ns["_inner"])
        const_values = tuple(constants[name] for name in const_names)
        bound = tuple(
            line.split("batch.column(")[1].rsplit(")", 1)[0].strip("'\"")
            for line in binds)

        def _wrapper(batch):
            arrays = [batch.column(name) for name in bound]
            try:
                return jitted(*arrays, *const_values)
            except Exception:
                # lazy njit compilation rejected these dtypes: results
                # must still be produced, bit-identically
                return python_function(batch)

        return _wrapper
    except Exception:
        return None
