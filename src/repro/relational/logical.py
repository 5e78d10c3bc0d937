"""Logical plan algebra.

Relational and *semantic* (model-assisted) operators share one plan IR, so
the optimizer rewrites them uniformly — the paper's §IV requirement of "a
common intermediate representation amenable to optimization rules".

Nodes are immutable; rewrites construct new nodes via ``with_children`` or
the constructors.  Every node computes its output schema, and carries an
open ``hints`` mapping the optimizer uses to record physical decisions
(join algorithm, data-induced predicates, device placement).

Each node class declares its fields once (:mod:`repro.relational.fields`:
``fields`` / ``expr_fields`` / ``literal_fields`` / ``column_fields``,
plus ``table_fields`` / ``model_fields`` and a ``render``); cloning,
literal collection and rebinding, printing, masked fingerprints, the
columns a node reads (``reads()``, which drives column pruning) and the
tables and models a plan reads are all derived from that in
:class:`LogicalPlan` — a new node type needs no arm in any of them.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, ClassVar, Iterator, TypeVar

from repro.errors import ExpressionError, PlanError
from repro.relational.expressions import (
    FUNCTION_DTYPES,
    AggExpr,
    Arith,
    ColumnRef,
    Compare,
    Expr,
    Func,
    InList,
    Literal,
    And,
    Not,
    Or,
)
from repro.relational.fields import Fielded, LiteralFormat
from repro.storage.schema import Field, Schema
from repro.storage.types import DataType


def infer_dtype(expr: Expr, schema: Schema) -> DataType:
    """Static result type of ``expr`` against ``schema``."""
    if isinstance(expr, ColumnRef):
        return schema.dtype_of(schema.names[schema.index_of(expr.name)])
    if isinstance(expr, Literal):
        return DataType.infer(expr.value)
    if isinstance(expr, (Compare, And, Or, Not, InList)):
        return DataType.BOOL
    if isinstance(expr, Arith):
        left = infer_dtype(expr.left, schema)
        right = infer_dtype(expr.right, schema)
        if expr.op == "/":
            return DataType.FLOAT64
        if DataType.FLOAT64 in (left, right):
            return DataType.FLOAT64
        return DataType.INT64
    if isinstance(expr, Func):
        if expr.name == "abs":
            return infer_dtype(expr.args[0], schema)
        if expr.name in FUNCTION_DTYPES:
            return FUNCTION_DTYPES[expr.name]
    raise ExpressionError(f"cannot infer dtype of {expr!r}")


_P = TypeVar("_P", bound="LogicalPlan")


class JoinType(enum.Enum):
    INNER = "inner"
    LEFT = "left"
    SEMI = "semi"
    ANTI = "anti"
    CROSS = "cross"


class LogicalPlan(Fielded):
    """Base class of all logical plan nodes.

    Subclass constructors assign their fields and *then* call this
    constructor, which ends by running ``_validate`` — the same check a
    clone with replaced fields goes through.
    """

    #: The fields naming a catalog table / an embedding model this node
    #: reads (what ``tables`` / ``models`` collect).  A node declaring a
    #: model is a *model operator* (embeds through it).
    table_fields: ClassVar[tuple[str, ...]] = ()
    model_fields: ClassVar[tuple[str, ...]] = ()

    def __init__(self, children: tuple["LogicalPlan", ...]) -> None:
        self.children = children
        self.hints: dict[str, Any] = {}
        self._schema: Schema | None = None
        self._refs: tuple[frozenset[str], frozenset[str]] | None = None
        self._validate()

    def _validate(self) -> None:
        """Raise :class:`PlanError` when the fields break an invariant."""

    # -- schema ---------------------------------------------------------
    @property
    def schema(self) -> Schema:
        if self._schema is None:
            self._schema = self._compute_schema()
        return self._schema

    def _compute_schema(self) -> Schema:
        raise NotImplementedError

    # -- tree utilities --------------------------------------------------
    def with_children(self: _P, children: tuple["LogicalPlan", ...],
                      **changes: Any) -> _P:
        """A validated copy over ``children`` (same arity), optionally
        with the fields in ``changes`` replaced.  Hints are copied;
        derived state (schema, tables/models) starts empty."""
        if len(children) != len(self.children):
            raise PlanError(f"{type(self).__name__} takes "
                            f"{len(self.children)} children, "
                            f"got {len(children)}")
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, **changes)
        LogicalPlan.__init__(clone, children)
        clone.hints = dict(self.hints)
        return clone

    def _replace(self: _P, changes: dict[str, Any]) -> _P:
        return self.with_children(self.children, **changes)

    def map_literals(self: _P, fn: Callable[[Any], Any]) -> _P:
        """Own literal sites first, then children."""
        changes = self._map_slots(fn)
        children = tuple([child.map_literals(fn) for child in self.children])
        return self.with_children(children, **changes)

    def walk(self) -> Iterator["LogicalPlan"]:
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()

    def _references(self) -> tuple[frozenset[str], frozenset[str]]:
        if self._refs is None:
            nodes = list(self.walk())
            self._refs = (
                frozenset(filter(None, (getattr(node, name) for node in nodes
                                        for name in node.table_fields))),
                frozenset(filter(None, (getattr(node, name) for node in nodes
                                        for name in node.model_fields))))
        return self._refs

    @property
    def tables(self) -> frozenset[str]:
        """Catalog tables scanned anywhere in this plan (cached: plans
        are immutable)."""
        return self._references()[0]

    @property
    def models(self) -> frozenset[str]:
        """Embedding models used anywhere in this plan (cached)."""
        return self._references()[1]

    def label(self) -> str:
        """One-line description for EXPLAIN output."""
        return self.render(repr)

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


class ScanNode(LogicalPlan):
    """Scan a catalog table, optionally qualifying its column names."""

    fields = ("table_name", "base_schema", "qualifier")
    table_fields = ("table_name",)

    def __init__(self, table_name: str, schema: Schema,
                 qualifier: str | None = None) -> None:
        self.table_name = table_name
        self.base_schema = schema
        self.qualifier = qualifier
        super().__init__(())

    def _compute_schema(self) -> Schema:
        if self.qualifier:
            return self.base_schema.qualified(self.qualifier)
        return self.base_schema

    def render(self, lit: LiteralFormat = repr) -> str:
        alias = f" AS {self.qualifier}" if self.qualifier else ""
        return f"Scan({self.table_name}{alias})"


class FilterNode(LogicalPlan):
    """Row filter by a boolean expression."""

    fields = expr_fields = ("predicate",)

    def __init__(self, child: LogicalPlan, predicate: Expr) -> None:
        self.predicate = predicate
        super().__init__((child,))

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def _compute_schema(self) -> Schema:
        return self.child.schema

    def render(self, lit: LiteralFormat = repr) -> str:
        return f"Filter[{self.predicate.render(lit)}]"


class ProjectNode(LogicalPlan):
    """Projection / computed columns: list of (expression, output name)."""

    fields = expr_fields = ("exprs",)

    def __init__(self, child: LogicalPlan,
                 exprs: list[tuple[Expr, str]]) -> None:
        self.exprs = list(exprs)
        super().__init__((child,))

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def _compute_schema(self) -> Schema:
        fields = []
        for expr, alias in self.exprs:
            fields.append(Field(alias, infer_dtype(expr, self.child.schema)))
        return Schema(fields)

    def render(self, lit: LiteralFormat = repr) -> str:
        inner = ", ".join(f"{e.render(lit)} AS {a}" for e, a in self.exprs)
        return f"Project[{inner}]"


class JoinNode(LogicalPlan):
    """Equi-join on key column lists, plus an optional residual predicate.

    Empty key lists mean a cross join (then ``extra_predicate`` makes it a
    theta join executed by nested loops).
    """

    fields = ("join_type", "left_keys", "right_keys", "extra_predicate")
    expr_fields = ("extra_predicate",)
    column_fields = ("left_keys", "right_keys")

    def __init__(self, left: LogicalPlan, right: LogicalPlan,
                 join_type: JoinType = JoinType.INNER,
                 left_keys: list[str] | None = None,
                 right_keys: list[str] | None = None,
                 extra_predicate: Expr | None = None) -> None:
        self.join_type = join_type
        self.left_keys = list(left_keys or [])
        self.right_keys = list(right_keys or [])
        self.extra_predicate = extra_predicate
        super().__init__((left, right))

    def _validate(self) -> None:
        if len(self.left_keys) != len(self.right_keys):
            raise PlanError("join key lists must have equal length")

    @property
    def left(self) -> LogicalPlan:
        return self.children[0]

    @property
    def right(self) -> LogicalPlan:
        return self.children[1]

    def _compute_schema(self) -> Schema:
        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            return self.left.schema
        return self.left.schema.concat(self.right.schema)

    def render(self, lit: LiteralFormat = repr) -> str:
        keys = ", ".join(f"{l}={r}" for l, r in
                         zip(self.left_keys, self.right_keys))
        extra = (f" AND {self.extra_predicate.render(lit)}"
                 if self.extra_predicate else "")
        return f"Join[{self.join_type.value}: {keys}{extra}]"


class AggregateNode(LogicalPlan):
    """Hash aggregate with optional grouping keys."""

    fields = ("group_keys", "aggregates")
    expr_fields = ("aggregates",)
    column_fields = ("group_keys",)

    def __init__(self, child: LogicalPlan, group_keys: list[str],
                 aggregates: list[AggExpr]) -> None:
        self.group_keys = list(group_keys)
        self.aggregates = list(aggregates)
        super().__init__((child,))

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def _compute_schema(self) -> Schema:
        fields = []
        child_schema = self.child.schema
        for key in self.group_keys:
            index = child_schema.index_of(key)
            fields.append(child_schema.fields[index])
        for agg in self.aggregates:
            input_dtype = None
            if agg.operand is not None:
                input_dtype = infer_dtype(agg.operand, child_schema)
            fields.append(Field(agg.alias, agg.result_dtype(input_dtype)))
        return Schema(fields)

    def render(self, lit: LiteralFormat = repr) -> str:
        aggs = ", ".join(agg.render(lit) for agg in self.aggregates)
        return f"Aggregate[keys={self.group_keys}; {aggs}]"


class SortNode(LogicalPlan):
    """Stable multi-key sort; keys are (column, ascending)."""

    fields = column_fields = ("keys",)

    def __init__(self, child: LogicalPlan,
                 keys: list[tuple[str, bool]]) -> None:
        self.keys = list(keys)
        super().__init__((child,))

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def _compute_schema(self) -> Schema:
        return self.child.schema

    def render(self, lit: LiteralFormat = repr) -> str:
        keys = ", ".join(f"{k}{'' if asc else ' DESC'}" for k, asc in self.keys)
        return f"Sort[{keys}]"


class LimitNode(LogicalPlan):
    fields = literal_fields = ("count",)

    def __init__(self, child: LogicalPlan, count: int) -> None:
        self.count = count
        super().__init__((child,))

    def _validate(self) -> None:
        if self.count < 0:
            raise PlanError("limit must be non-negative")

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def _compute_schema(self) -> Schema:
        return self.child.schema

    def render(self, lit: LiteralFormat = repr) -> str:
        return f"Limit[{lit(self.count)}]"


class UnionNode(LogicalPlan):
    """UNION ALL of same-schema inputs."""

    def __init__(self, children: list[LogicalPlan]) -> None:
        super().__init__(tuple(children))

    def _validate(self) -> None:
        if not self.children:
            raise PlanError("union of zero inputs")

    def _compute_schema(self) -> Schema:
        first = self.children[0].schema
        for child in self.children[1:]:
            if child.schema.names != first.names:
                raise PlanError("union inputs must share column names")
        return first

    def render(self, lit: LiteralFormat = repr) -> str:
        return f"UnionAll[{len(self.children)}]"


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise PlanError("semantic threshold must be within [0, 1]")


# ----------------------------------------------------------------------
# Semantic (model-assisted) operators — paper §IV
# ----------------------------------------------------------------------
class SemanticFilterNode(LogicalPlan):
    """Semantic Select: keep rows whose ``column`` is context-similar to
    ``probe`` under ``model_name`` with cosine >= ``threshold``.

    Mirrors the paper's example::

        word = "Clothes" USING MODEL "M" WITH COSINE THRESHOLD >= 0.9
    """

    fields = ("column", "probe", "model_name", "threshold", "score_alias",
              "mode")
    literal_fields = ("probe", "threshold")
    model_fields = ("model_name",)
    column_fields = ("column",)

    def __init__(self, child: LogicalPlan, column: str, probe: str,
                 model_name: str, threshold: float,
                 score_alias: str | None = None,
                 mode: str = "value") -> None:
        self.column = column
        self.probe = probe
        self.model_name = model_name
        self.threshold = threshold
        self.score_alias = score_alias
        #: "value" embeds the whole cell; "contains" matches any token of
        #: free text against the probe.
        self.mode = mode
        super().__init__((child,))

    def _validate(self) -> None:
        _check_threshold(self.threshold)
        if self.mode not in ("value", "contains"):
            raise PlanError(
                f"semantic filter mode must be value|contains, "
                f"got {self.mode!r}")

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def _compute_schema(self) -> Schema:
        schema = self.child.schema
        if self.score_alias:
            schema = Schema(list(schema.fields)
                            + [Field(self.score_alias, DataType.FLOAT64)])
        return schema

    def render(self, lit: LiteralFormat = repr) -> str:
        op = "contains" if self.mode == "contains" else "~"
        return (f"SemanticFilter[{self.column} {op} {lit(self.probe)} "
                f"model={self.model_name} >= {lit(self.threshold)}]")


class SemanticSemiFilterNode(LogicalPlan):
    """Disjunctive semantic filter: keep rows whose ``column`` matches ANY
    of ``probes`` at the threshold.

    Produced by the data-induced-predicate pass (paper §IV, ref [23]): the
    distinct key values of a selective semantic-join build side become a
    derived predicate pushed into the probe side.  Its probes and
    threshold are literal-*derived*, not literal slots, so it declares
    none.
    """

    fields = ("column", "probes", "model_name", "threshold")
    model_fields = ("model_name",)
    column_fields = ("column",)

    def __init__(self, child: LogicalPlan, column: str, probes: list[str],
                 model_name: str, threshold: float) -> None:
        self.column = column
        self.probes = list(probes)
        self.model_name = model_name
        self.threshold = threshold
        super().__init__((child,))

    def _validate(self) -> None:
        if not self.probes:
            raise PlanError("semantic semi-filter needs at least one probe")
        _check_threshold(self.threshold)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def _compute_schema(self) -> Schema:
        return self.child.schema

    def render(self, lit: LiteralFormat = repr) -> str:
        shown = ", ".join(self.probes[:3])
        suffix = ", ..." if len(self.probes) > 3 else ""
        return (f"SemanticSemiFilter[{self.column} ~ any({shown}{suffix}) "
                f"model={self.model_name} >= {self.threshold}]")


class SemanticJoinNode(LogicalPlan):
    """Semantic Join: match rows whose join-key *context* is similar.

    Output schema is the concatenation of both inputs plus a similarity
    score column.
    """

    fields = ("left_column", "right_column", "model_name", "threshold",
              "score_alias", "top_k", "aux_alias")
    literal_fields = ("threshold", "top_k")
    model_fields = ("model_name",)
    column_fields = ("left_column", "right_column")

    def __init__(self, left: LogicalPlan, right: LogicalPlan,
                 left_column: str, right_column: str, model_name: str,
                 threshold: float, score_alias: str = "similarity",
                 top_k: int | None = None,
                 aux_alias: str | None = None) -> None:
        self.left_column = left_column
        self.right_column = right_column
        self.model_name = model_name
        self.threshold = threshold
        self.score_alias = score_alias
        #: When set, each distinct left key matches its k most similar
        #: right keys (scores still floored at ``threshold``).
        self.top_k = top_k
        #: Reuse-subsystem hook: when set (top-k joins only), the
        #: physical operator appends ``{aux_alias}_group`` (left-distinct
        #: group id) and ``{aux_alias}_rank`` (pair rank inside its
        #: group's descending-score selection) — what the residual
        #: executor needs to re-truncate a cached result to a smaller k.
        self.aux_alias = aux_alias
        super().__init__((left, right))

    def _validate(self) -> None:
        _check_threshold(self.threshold)
        if self.top_k is not None and self.top_k < 1:
            raise PlanError("top_k must be positive")
        if self.aux_alias is not None and self.top_k is None:
            raise PlanError("aux_alias requires a top-k join")

    @property
    def left(self) -> LogicalPlan:
        return self.children[0]

    @property
    def right(self) -> LogicalPlan:
        return self.children[1]

    def _compute_schema(self) -> Schema:
        combined = self.left.schema.concat(self.right.schema)
        fields = list(combined.fields) + [Field(self.score_alias,
                                               DataType.FLOAT64)]
        if self.aux_alias is not None:
            fields.append(Field(f"{self.aux_alias}_group", DataType.INT64))
            fields.append(Field(f"{self.aux_alias}_rank", DataType.INT64))
        return Schema(fields)

    def render(self, lit: LiteralFormat = repr) -> str:
        mode = f" top_k={lit(self.top_k)}" if self.top_k is not None else ""
        return (f"SemanticJoin[{self.left_column} ~ {self.right_column} "
                f"model={self.model_name} >= {lit(self.threshold)}{mode}]")


class SemanticGroupByNode(LogicalPlan):
    """Semantic GroupBy: on-the-fly clustering of ``column`` by context
    similarity; appends cluster id and cluster representative columns."""

    fields = ("column", "model_name", "threshold", "cluster_alias",
              "representative_alias")
    literal_fields = ("threshold",)
    model_fields = ("model_name",)
    column_fields = ("column",)

    def __init__(self, child: LogicalPlan, column: str, model_name: str,
                 threshold: float, cluster_alias: str = "cluster_id",
                 representative_alias: str = "cluster_rep") -> None:
        self.column = column
        self.model_name = model_name
        self.threshold = threshold
        self.cluster_alias = cluster_alias
        self.representative_alias = representative_alias
        super().__init__((child,))

    def _validate(self) -> None:
        _check_threshold(self.threshold)

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    def _compute_schema(self) -> Schema:
        return Schema(
            list(self.child.schema.fields)
            + [Field(self.cluster_alias, DataType.INT64),
               Field(self.representative_alias, DataType.STRING)]
        )

    def render(self, lit: LiteralFormat = repr) -> str:
        return (f"SemanticGroupBy[{self.column} model={self.model_name} "
                f">= {lit(self.threshold)}]")
