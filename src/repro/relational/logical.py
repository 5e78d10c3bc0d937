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

Behaviour is declared beside the node too: ``estimate_rows`` (output
cardinality, over the estimator's statistics services), ``node_cost``
(the node's own cost under a :class:`~repro.optimizer.cost.CostModel`)
and ``lower`` (its physical operator).  ``CardinalityEstimator.estimate``,
``CostModel.node_cost`` and ``build_physical`` only delegate here.
Operators are imported inside ``lower``: relational code never
imports the optimizer or semantic code at import time.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterator, TypeVar

import numpy as np

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
from repro.relational.cost_units import Cost
from repro.relational.fields import Fielded, LiteralFormat
from repro.relational.udf import expression_udf_cost
from repro.storage.schema import Field, Schema
from repro.storage.types import DataType

if TYPE_CHECKING:
    from repro.optimizer.cardinality import CardinalityEstimator
    from repro.optimizer.cost import CostModel
    from repro.relational.physical import ExecutionContext, PhysicalOperator


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

    # -- behaviour: estimate, cost, lowering -------------------------------
    def estimate_rows(self, est: CardinalityEstimator) -> float:
        """Estimated output rows.  The default passes the first child's
        estimate through (1.0 for a leaf)."""
        return float(est.estimate(self.children[0])) if self.children else 1.0

    def node_cost(self, model: CostModel) -> Cost:
        """Cost of this node alone, given its inputs' estimated rows."""
        raise PlanError(f"no cost model for plan node {type(self).__name__}")

    def lower(self, context: ExecutionContext, limit: int | None = None,
              stream: bool = False) -> PhysicalOperator:
        """This node's physical operator, its children lowered beneath.

        ``limit`` says only that many leading rows are read (the parent
        is a limit; a sort there emits only those); ``stream`` says a
        limit sits above through filters and projections only, so a scan
        there streams batches the limit can stop early on.
        """
        raise PlanError(f"no physical lowering for {type(self).__name__}")


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

    def estimate_rows(self, est: CardinalityEstimator) -> float:
        return float(est.catalog.stats(self.table_name).row_count)

    def node_cost(self, model: CostModel) -> Cost:
        return Cost(cpu=model.estimator.estimate(self) * model.params.scan_row)

    def lower(self, context: ExecutionContext, limit: int | None = None,
              stream: bool = False) -> PhysicalOperator:
        from repro.relational.physical import ScanOp

        table = context.catalog.get(self.table_name)
        return ScanOp(table, context.batch_size if stream else None,
                      self.qualifier)


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

    def estimate_rows(self, est: CardinalityEstimator) -> float:
        """The run of filters down to the first non-filter child is one
        conjunction, as the executor evaluates it as one ``FilterOp``."""
        run = filter_run(self)
        return est.conjunction_rows([node.predicate for node in reversed(run)],
                                    run[-1].child)

    def node_cost(self, model: CostModel) -> Cost:
        rows = model.estimator.estimate(self.child)
        per_row = model.params.predicate_row + expression_udf_cost(
            self.predicate)
        return Cost(cpu=rows * per_row)

    def lower(self, context: ExecutionContext, limit: int | None = None,
              stream: bool = False) -> PhysicalOperator:
        from repro.relational.physical import FilterOp

        run = filter_run(self)
        return FilterOp(run[-1].child.lower(context, stream=stream),
                        [node.predicate for node in reversed(run)])


def filter_run(plan: FilterNode) -> list[FilterNode]:
    """The consecutive filters from ``plan`` down, outermost first: what
    one ``FilterOp`` runs and one conjunction estimates."""
    run = [plan]
    while isinstance(run[-1].child, FilterNode):
        run.append(run[-1].child)
    return run


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

    def node_cost(self, model: CostModel) -> Cost:
        rows = model.estimator.estimate(self.child)
        per_row = (model.params.project_row * max(len(self.exprs), 1)
                   + sum(expression_udf_cost(e) for e, _ in self.exprs))
        return Cost(cpu=rows * per_row)

    def lower(self, context: ExecutionContext, limit: int | None = None,
              stream: bool = False) -> PhysicalOperator:
        from repro.relational.physical import ProjectOp

        # row for row: the limit holds
        return ProjectOp(self.child.lower(context, limit, stream),
                         self.exprs, self.schema)


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
        if not self.left_keys and self.join_type not in (JoinType.INNER,
                                                         JoinType.CROSS):
            raise PlanError(f"a {self.join_type.value} join needs "
                            f"equi-join keys")

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

    def estimate_rows(self, est: CardinalityEstimator) -> float:
        """NDV-based equi-join size (System R)."""
        left = est.estimate(self.left)
        right = est.estimate(self.right)
        if self.join_type == JoinType.CROSS or not self.left_keys:
            from repro.optimizer.cardinality import DEFAULT_SELECTIVITY

            base = left * right
            if self.extra_predicate is not None:
                base *= DEFAULT_SELECTIVITY
            return base
        denominator = 1.0
        for left_key, right_key in zip(self.left_keys, self.right_keys):
            denominator *= max(est.column_ndv(left_key, self.left, 0.0),
                               est.column_ndv(right_key, self.right, 0.0), 1)
        size = left * right / denominator
        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            matched = min(left, size)
            return matched if self.join_type == JoinType.SEMI \
                else left - matched
        if self.join_type == JoinType.LEFT:
            return max(size, left)
        return size

    def node_cost(self, model: CostModel) -> Cost:
        left = model.estimator.estimate(self.left)
        right = model.estimator.estimate(self.right)
        if self.left_keys:
            return Cost(cpu=right * model.params.hash_build_row
                        + left * model.params.hash_probe_row)
        return Cost(cpu=left * right * model.params.nested_loop_pair)

    def lower(self, context: ExecutionContext, limit: int | None = None,
              stream: bool = False) -> PhysicalOperator:
        from repro.relational.physical import HashJoinOp, NestedLoopJoinOp

        left = self.left.lower(context)
        right = self.right.lower(context)
        if self.left_keys:
            return HashJoinOp(left, right, self.left_keys, self.right_keys,
                              self.join_type, self.extra_predicate,
                              self.schema)
        return NestedLoopJoinOp(left, right, self.extra_predicate,
                                self.schema, context.batch_size)


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

    def estimate_rows(self, est: CardinalityEstimator) -> float:
        """At most the child's rows; the product of the keys' NDVs (10
        per key without statistics)."""
        child = est.estimate(self.child)
        if not self.group_keys:
            return 1.0
        groups = 1.0
        for key in self.group_keys:
            groups *= est.column_ndv(key, self.child, 10.0)
        return min(child, groups)

    def node_cost(self, model: CostModel) -> Cost:
        rows = model.estimator.estimate(self.child)
        return Cost(cpu=rows * model.params.aggregate_row)

    def lower(self, context: ExecutionContext, limit: int | None = None,
              stream: bool = False) -> PhysicalOperator:
        from repro.relational.physical import AggregateOp

        return AggregateOp(self.child.lower(context), self.group_keys,
                           self.aggregates, self.schema)


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

    def node_cost(self, model: CostModel) -> Cost:
        rows = max(model.estimator.estimate(self.child), 1.0)
        return Cost(cpu=rows * float(np.log2(rows + 1))
                    * model.params.sort_row_log)

    def lower(self, context: ExecutionContext, limit: int | None = None,
              stream: bool = False) -> PhysicalOperator:
        from repro.relational.physical import SortOp

        return SortOp(self.child.lower(context), self.keys, limit)


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

    def estimate_rows(self, est: CardinalityEstimator) -> float:
        return min(est.estimate(self.child), float(self.count))

    def node_cost(self, model: CostModel) -> Cost:
        return Cost(cpu=float(self.count))

    def lower(self, context: ExecutionContext, limit: int | None = None,
              stream: bool = False) -> PhysicalOperator:
        from repro.relational.physical import LimitOp

        return LimitOp(self.child.lower(context, self.count, stream=True),
                       self.count)


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

    def estimate_rows(self, est: CardinalityEstimator) -> float:
        return sum(est.estimate(child) for child in self.children)

    def node_cost(self, model: CostModel) -> Cost:
        return Cost(cpu=model.estimator.estimate(self))

    def lower(self, context: ExecutionContext, limit: int | None = None,
              stream: bool = False) -> PhysicalOperator:
        from repro.relational.physical import UnionOp

        return UnionOp(tuple(child.lower(context) for child in self.children))


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

    def estimate_rows(self, est: CardinalityEstimator) -> float:
        return est.estimate(self.child) * est.semantic_filter_selectivity(self)

    def node_cost(self, model: CostModel) -> Cost:
        """Every row is tested; each distinct value embeds once."""
        rows = model.estimator.estimate(self.child)
        unique = model.estimator.distinct_rows(self.column, self.child, rows)
        return Cost(cpu=rows * model.params.predicate_row,
                    model=unique * model.params.embed_token)

    def lower(self, context: ExecutionContext, limit: int | None = None,
              stream: bool = False) -> PhysicalOperator:
        from repro.semantic.lowering import cache_for
        from repro.semantic.operators import SemanticFilterOp

        child = self.child.lower(context)
        return SemanticFilterOp(child, self.column, self.probe,
                                cache_for(context, self.model_name),
                                self.threshold, self.score_alias,
                                self.schema, mode=self.mode)


class SemanticSemiFilterNode(LogicalPlan):
    """Disjunctive semantic filter: keep rows whose ``column`` matches ANY
    of ``probes`` at the threshold.

    Produced by the data-induced-predicate pass (paper §IV, ref [23]): the
    distinct key values of a selective semantic-join build side become a
    derived predicate pushed into the probe side.  Its probes and
    threshold are literal-*derived*, not literal slots, so it declares
    none.

    It estimates as its child (the inherited default): the probe filter
    is prune-only, passes at most its input, and the pass already gated
    on the build side being tiny — sampled probe selectivities are not
    modelled until they prove worth it.
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

    def node_cost(self, model: CostModel) -> Cost:
        """The column's distinct values embed once, then score against
        each probe vector; the mask applies per input row."""
        params = model.params
        rows = model.estimator.estimate(self.child)
        unique = model.estimator.distinct_rows(self.column, self.child, rows)
        pairs = unique * max(len(self.probes), 1)
        return Cost(cpu=rows * params.predicate_row
                    + pairs * params.dim * params.pair_vector_dim,
                    model=unique * params.embed_token)

    def lower(self, context: ExecutionContext, limit: int | None = None,
              stream: bool = False) -> PhysicalOperator:
        from repro.semantic.lowering import cache_for
        from repro.semantic.operators import SemanticSemiFilterOp

        child = self.child.lower(context)
        return SemanticSemiFilterOp(child, self.column, self.probes,
                                    cache_for(context, self.model_name),
                                    self.threshold, self.schema)


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

    def estimate_rows(self, est: CardinalityEstimator) -> float:
        left = est.estimate(self.left)
        right = est.estimate(self.right)
        return max(left * right * est.semantic_join_selectivity(self), 0.0)

    def node_cost(self, model: CostModel) -> Cost:
        """Embed both distinct key sets, score every distinct pair
        through the blocked GEMM, expand matches."""
        params, est = model.params, model.estimator
        left_rows = est.estimate(self.left)
        right_rows = est.estimate(self.right)
        unique_left = est.distinct_rows(self.left_column, self.left,
                                        left_rows)
        unique_right = est.distinct_rows(self.right_column, self.right,
                                         right_rows)
        pairs = max(unique_left * unique_right, 1.0)
        # expansion of unique matches back to row pairs
        output = est.estimate(self)
        return Cost(cpu=pairs * params.dim * params.pair_vector_dim
                    + output * 0.5,
                    model=(unique_left + unique_right) * params.embed_token)

    def lower(self, context: ExecutionContext, limit: int | None = None,
              stream: bool = False) -> PhysicalOperator:
        from repro.semantic.lowering import cache_for
        from repro.semantic.operators import SemanticJoinOp

        left = self.left.lower(context)
        right = self.right.lower(context)
        return SemanticJoinOp(left, right, self.left_column,
                              self.right_column,
                              cache_for(context, self.model_name),
                              self.threshold, self.score_alias, self.schema,
                              top_k=self.top_k, aux_alias=self.aux_alias)


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

    def node_cost(self, model: CostModel) -> Cost:
        """Each distinct value embeds once and scores against the
        leaders found so far (far fewer than the distinct values)."""
        params = model.params
        rows = model.estimator.estimate(self.child)
        unique = model.estimator.distinct_rows(self.column, self.child, rows)
        pairs = unique * np.sqrt(max(unique, 1.0))
        return Cost(cpu=pairs * params.dim * params.pair_vector_dim,
                    model=unique * params.embed_token)

    def lower(self, context: ExecutionContext, limit: int | None = None,
              stream: bool = False) -> PhysicalOperator:
        from repro.semantic.lowering import cache_for
        from repro.semantic.operators import SemanticGroupByOp

        child = self.child.lower(context)
        return SemanticGroupByOp(child, self.column,
                                 cache_for(context, self.model_name),
                                 self.threshold, self.cluster_alias,
                                 self.representative_alias, self.schema)
