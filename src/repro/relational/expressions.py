"""Expression trees evaluated vectorized over table batches.

Expressions are immutable; ``evaluate`` maps a batch to a NumPy array and
``columns`` reports referenced column names (the optimizer's pushdown rules
depend on it).  Each class declares its fields once (its dataclass fields,
plus which of them are sub-expressions, literal slots or column names —
see :mod:`repro.relational.fields`); ``children``, ``columns``, printing
and literal rebinding are derived from that in :class:`Expr`.  The
``col``/``lit`` helpers plus operator overloading give the builder API a
readable surface::

    (col("price") > 20) & (col("type") == "clothes")
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable, cast

import numpy as np

from repro.errors import ExpressionError
from repro.relational.fields import Fielded, LiteralFormat, shown
from repro.storage.table import Table
from repro.storage.types import DataType, date_to_int, int_to_date

Array = np.ndarray[Any, np.dtype[Any]]


class Expr(Fielded):
    """Base class for scalar expressions."""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # an expression's fields are its dataclass fields
        cls.fields = cls.fields + tuple(vars(cls).get("__annotations__", ()))
        super().__init_subclass__(**kwargs)

    def evaluate(self, batch: Table) -> Array:
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        return cast("tuple[Expr, ...]", tuple(self.terms()))

    def columns(self) -> set[str]:
        """Names of all columns referenced by this expression."""
        # ``reads`` memoized (expressions are immutable and rewrite
        # rules ask again on every pass); written through ``__dict__``
        # because the dataclasses are frozen
        found: set[str] | None = self.__dict__.get("_columns")
        if found is None:
            found = self.__dict__["_columns"] = self.reads()
        return set(found)

    # -- operator sugar -------------------------------------------------
    def __eq__(self, other: object) -> "Compare":  # type: ignore[override]
        return Compare("=", self, _wrap(other))

    def __ne__(self, other: object) -> "Compare":  # type: ignore[override]
        return Compare("!=", self, _wrap(other))

    def __lt__(self, other: object) -> "Compare":
        return Compare("<", self, _wrap(other))

    def __le__(self, other: object) -> "Compare":
        return Compare("<=", self, _wrap(other))

    def __gt__(self, other: object) -> "Compare":
        return Compare(">", self, _wrap(other))

    def __ge__(self, other: object) -> "Compare":
        return Compare(">=", self, _wrap(other))

    def __and__(self, other: object) -> "And":
        return And(self, _wrap(other))

    def __or__(self, other: object) -> "Or":
        return Or(self, _wrap(other))

    def __invert__(self) -> "Not":
        return Not(self)

    def __add__(self, other: object) -> "Arith":
        return Arith("+", self, _wrap(other))

    def __sub__(self, other: object) -> "Arith":
        return Arith("-", self, _wrap(other))

    def __mul__(self, other: object) -> "Arith":
        return Arith("*", self, _wrap(other))

    def __truediv__(self, other: object) -> "Arith":
        return Arith("/", self, _wrap(other))

    def isin(self, values: Iterable[object]) -> "InList":
        return InList(self, list(values))

    def __hash__(self) -> int:
        return hash(repr(self))

    def same_as(self, other: "Expr") -> bool:
        """Structural equality (``==`` is overloaded to build Compare)."""
        return repr(self) == repr(other)


@dataclass(frozen=True, eq=False, repr=False)
class ColumnRef(Expr):
    """Reference to a column by (possibly qualified) name."""

    name: str
    column_fields = ("name",)

    def evaluate(self, batch: Table) -> Array:
        return batch.column(self.name)

    def render(self, lit: LiteralFormat = repr) -> str:
        return f"col({self.name})"


@dataclass(frozen=True, eq=False, repr=False)
class Literal(Expr):
    """A constant value."""

    value: object
    literal_fields = ("value",)

    def __post_init__(self) -> None:
        if isinstance(self.value, datetime.date):
            object.__setattr__(self, "value", date_to_int(self.value))

    def evaluate(self, batch: Table) -> Array:
        n = batch.num_rows
        if isinstance(self.value, str):
            return np.asarray([self.value] * n, dtype=object)
        return np.full(n, self.value)

    def scalar(self) -> object:
        return self.value

    def render(self, lit: LiteralFormat = repr) -> str:
        return f"lit({lit(self.value)})"


def _operands(left: Expr, right: Expr, batch: Table) -> tuple[Any, Any]:
    """Both operands of a binary operator.  A ``Literal`` against an
    array stays a scalar NumPy broadcasts, instead of an n-row array."""
    if isinstance(right, Literal) and not isinstance(left, Literal):
        return left.evaluate(batch), right.value
    if isinstance(left, Literal) and not isinstance(right, Literal):
        return left.value, right.evaluate(batch)
    return left.evaluate(batch), right.evaluate(batch)


_COMPARE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True, eq=False, repr=False)
class Compare(Expr):
    """Binary comparison producing a boolean mask."""

    op: str
    left: Expr
    right: Expr
    expr_fields = ("left", "right")

    def __post_init__(self) -> None:
        if self.op not in _COMPARE_OPS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, batch: Table) -> Array:
        result = _COMPARE_OPS[self.op](*_operands(self.left, self.right,
                                                  batch))
        return np.asarray(result, dtype=bool)

    def render(self, lit: LiteralFormat = repr) -> str:
        return f"({self.left.render(lit)} {self.op} {self.right.render(lit)})"


@dataclass(frozen=True, eq=False, repr=False)
class And(Expr):
    left: Expr
    right: Expr
    expr_fields = ("left", "right")

    def evaluate(self, batch: Table) -> Array:
        mask: Array = self.left.evaluate(batch) & self.right.evaluate(batch)
        return mask

    def render(self, lit: LiteralFormat = repr) -> str:
        return f"({self.left.render(lit)} AND {self.right.render(lit)})"


@dataclass(frozen=True, eq=False, repr=False)
class Or(Expr):
    left: Expr
    right: Expr
    expr_fields = ("left", "right")

    def evaluate(self, batch: Table) -> Array:
        mask: Array = self.left.evaluate(batch) | self.right.evaluate(batch)
        return mask

    def render(self, lit: LiteralFormat = repr) -> str:
        return f"({self.left.render(lit)} OR {self.right.render(lit)})"


@dataclass(frozen=True, eq=False, repr=False)
class Not(Expr):
    operand: Expr
    expr_fields = ("operand",)

    def evaluate(self, batch: Table) -> Array:
        mask: Array = ~self.operand.evaluate(batch)
        return mask

    def render(self, lit: LiteralFormat = repr) -> str:
        return f"(NOT {self.operand.render(lit)})"


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@dataclass(frozen=True, eq=False, repr=False)
class Arith(Expr):
    """Binary arithmetic over numeric columns."""

    op: str
    left: Expr
    right: Expr
    expr_fields = ("left", "right")

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, batch: Table) -> Array:
        return cast(Array, _ARITH_OPS[self.op](*_operands(
            self.left, self.right, batch)))

    def render(self, lit: LiteralFormat = repr) -> str:
        return f"({self.left.render(lit)} {self.op} {self.right.render(lit)})"


@dataclass(frozen=True, eq=False, repr=False)
class InList(Expr):
    """Membership test against a literal list."""

    operand: Expr
    values: list[Any]
    expr_fields = ("operand",)
    literal_fields = ("values",)

    def evaluate(self, batch: Table) -> Array:
        data = self.operand.evaluate(batch)
        allowed = set(self.values)
        return np.asarray([value in allowed for value in data], dtype=bool)

    def render(self, lit: LiteralFormat = repr) -> str:
        return f"({self.operand.render(lit)} IN {shown(self.values, lit)})"


def _scalar_year(days: float) -> int:
    return int_to_date(int(days)).year


_FUNCTIONS: dict[str, Callable[[list[Any]], Any]] = {
    "lower": lambda args: np.asarray([s.lower() if isinstance(s, str) else s
                                      for s in args[0]], dtype=object),
    "upper": lambda args: np.asarray([s.upper() if isinstance(s, str) else s
                                      for s in args[0]], dtype=object),
    "length": lambda args: np.asarray([len(s) if isinstance(s, str) else 0
                                       for s in args[0]], dtype=np.int64),
    "abs": lambda args: np.abs(args[0]),
    "year": lambda args: np.asarray([_scalar_year(d) for d in args[0]],
                                    dtype=np.int64),
}

#: Static result types of the built-in functions ("abs" is input-typed and
#: handled specially by dtype inference).
FUNCTION_DTYPES = {
    "lower": DataType.STRING,
    "upper": DataType.STRING,
    "length": DataType.INT64,
    "year": DataType.INT64,
}


def register_function(name: str, batch_fn: Callable[[list[Any]], Any],
                      result_dtype: DataType, replace: bool = False) -> None:
    """Register a scalar function usable in expressions and SQL.

    ``batch_fn`` receives a list of evaluated argument arrays and returns
    one array — the UDF contract of :mod:`repro.relational.udf`, which is
    the public entry point (it also carries optimizer cost annotations).
    """
    if name in _FUNCTIONS and not replace:
        raise ExpressionError(f"function {name!r} already registered")
    _FUNCTIONS[name] = batch_fn
    FUNCTION_DTYPES[name] = result_dtype


def unregister_function(name: str) -> None:
    """Remove a registered function (built-ins included; use with care)."""
    _FUNCTIONS.pop(name, None)
    FUNCTION_DTYPES.pop(name, None)


@dataclass(frozen=True, eq=False, repr=False)
class Func(Expr):
    """Scalar function call (``lower``, ``upper``, ``length``, ``abs``,
    ``year``)."""

    name: str
    args: tuple[Expr, ...]
    expr_fields = ("args",)

    def __post_init__(self) -> None:
        if self.name not in _FUNCTIONS:
            raise ExpressionError(
                f"unknown function {self.name!r}; "
                f"available: {sorted(_FUNCTIONS)}"
            )

    def evaluate(self, batch: Table) -> Array:
        evaluated = [arg.evaluate(batch) for arg in self.args]
        return cast(Array, _FUNCTIONS[self.name](evaluated))

    def render(self, lit: LiteralFormat = repr) -> str:
        inner = ", ".join(arg.render(lit) for arg in self.args)
        return f"{self.name}({inner})"


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------
class AggFunc(enum.Enum):
    """Aggregate functions supported by the hash aggregate."""

    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"
    COUNT_DISTINCT = "count_distinct"


@dataclass(frozen=True, eq=False, repr=False)
class AggExpr(Fielded):
    """An aggregate over an input expression (None = ``COUNT(*)``)."""

    func: AggFunc
    operand: Expr | None
    alias: str
    fields = ("func", "operand", "alias")
    expr_fields = ("operand",)

    def result_dtype(self, input_dtype: DataType | None) -> DataType:
        if self.func in (AggFunc.COUNT, AggFunc.COUNT_DISTINCT):
            return DataType.INT64
        if self.func == AggFunc.AVG:
            return DataType.FLOAT64
        if input_dtype is None:
            raise ExpressionError(f"{self.func} requires an operand")
        return input_dtype

    def render(self, lit: LiteralFormat = repr) -> str:
        inner = "*" if self.operand is None else self.operand.render(lit)
        return f"{self.func.value}({inner}) AS {self.alias}"


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def col(name: str) -> ColumnRef:
    """Shorthand column reference."""
    return ColumnRef(name)


def lit(value: object) -> Literal:
    """Shorthand literal."""
    return Literal(value)


def _wrap(value: object) -> Expr:
    return value if isinstance(value, Expr) else Literal(value)


def split_conjuncts(expr: Expr) -> list[Expr]:
    """Flatten a conjunction tree into its AND-ed parts."""
    if isinstance(expr, And):
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def combine_conjuncts(parts: list[Expr]) -> Expr:
    """Re-assemble conjuncts into a single expression."""
    if not parts:
        raise ExpressionError("cannot combine zero conjuncts")
    result = parts[0]
    for part in parts[1:]:
        result = And(result, part)
    return result
