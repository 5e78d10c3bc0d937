"""Binder: SQL AST -> logical plan against a catalog.

Name resolution is deliberately forgiving (unambiguous suffixes resolve,
matching the schema's ``index_of``; a table scanned without an alias
qualifies its own columns by its name), and every resolution failure
raises :class:`~repro.errors.BindError` at bind time rather than run
time.  Every column name goes through :meth:`Binder._column`.  An
``AS`` on a grouped key names its output column, as it does an
ungrouped item's.
"""

from __future__ import annotations

from repro.engine.sql import ast
from repro.errors import BindError
from repro.relational.expressions import (
    AggExpr,
    AggFunc,
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
from repro.relational.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    JoinType,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
    SemanticFilterNode,
    SemanticGroupByNode,
    SemanticJoinNode,
    SortNode,
)
from repro.storage.catalog import Catalog
from repro.storage.types import parse_date

_AGG_FUNCS = {
    "count": AggFunc.COUNT,
    "sum": AggFunc.SUM,
    "min": AggFunc.MIN,
    "max": AggFunc.MAX,
    "avg": AggFunc.AVG,
}

_JOIN_KINDS = {
    "inner": JoinType.INNER,
    "left": JoinType.LEFT,
    "cross": JoinType.CROSS,
}


class Binder:
    """Binds one SELECT statement to a logical plan."""

    def __init__(self, catalog: Catalog, default_model: str):
        self.catalog = catalog
        self.default_model = default_model

    def bind(self, statement: ast.SelectStatement) -> LogicalPlan:
        if statement.base is None:
            raise BindError("queries must have a FROM clause")
        plan = self._scan(statement.base)
        for join in statement.joins:
            plan = self._join(plan, join)
        if statement.where is not None:
            plan = self._where(plan, statement.where)
        plan, projected = self._grouping(plan, statement)
        if statement.order_by:
            plan = self._order(plan, statement, projected)
        if statement.limit is not None:
            plan = LimitNode(plan, statement.limit)
        if not projected and statement.items:
            plan = self._project(plan, statement.items)
        return plan

    # ------------------------------------------------------------------
    def _scan(self, ref: ast.TableRef) -> ScanNode:
        if ref.name not in self.catalog:
            raise BindError(
                f"unknown table {ref.name!r}; registered: "
                f"{self.catalog.names()}"
            )
        schema = self.catalog.get(ref.name).schema
        return ScanNode(ref.name, schema, qualifier=ref.alias)

    def _join(self, left: LogicalPlan, join: ast.JoinClause) -> LogicalPlan:
        right = self._scan(join.table)
        if join.kind == "semantic":
            left_column = join.left_keys[0].dotted
            right_column = join.right_keys[0].dotted
            left_col, right_col = self._orient(left, right, left_column,
                                               right_column,
                                               "semantic join condition")
            alias = "similarity"
            counter = 2
            while alias in left.schema or alias in right.schema:
                alias = f"similarity_{counter}"
                counter += 1
            return SemanticJoinNode(
                left, right, left_col, right_col,
                join.model or self.default_model, join.threshold,
                score_alias=alias, top_k=join.top_k)
        left_keys = []
        right_keys = []
        for key_a, key_b in zip(join.left_keys, join.right_keys):
            left_key, right_key = self._orient(left, right, key_a.dotted,
                                               key_b.dotted,
                                               "join condition")
            left_keys.append(left_key)
            right_keys.append(right_key)
        return JoinNode(left, right, _JOIN_KINDS[join.kind], left_keys,
                        right_keys)

    def _orient(self, left: LogicalPlan, right: LogicalPlan, a: str, b: str,
                what: str) -> tuple[str, str]:
        """Figure out which key belongs to which input."""
        for first, second in ((a, b), (b, a)):
            left_key = self._spelling(left, first)
            right_key = self._spelling(right, second)
            if left_key is not None and right_key is not None:
                return left_key, right_key
        raise BindError(
            f"cannot resolve {what}: {a!r} / {b!r} against the join inputs"
        )

    def _where(self, plan: LogicalPlan, where: ast.SqlExpr) -> LogicalPlan:
        relational, semantic = _split_semantic_conjuncts(where)
        if relational is not None:
            plan = FilterNode(plan, self._expr(relational, plan))
        for predicate in semantic:
            column = self._column(plan, predicate.column.dotted)
            plan = SemanticFilterNode(
                plan, column, predicate.probe,
                predicate.model or self.default_model, predicate.threshold,
                mode=predicate.mode)
        return plan

    def _grouping(self, plan: LogicalPlan,
                  statement: ast.SelectStatement) -> tuple[LogicalPlan, bool]:
        if statement.semantic_group_by is not None:
            sgb = statement.semantic_group_by
            column = self._column(plan, sgb.column.dotted)
            plan = SemanticGroupByNode(plan, column,
                                       sgb.model or self.default_model,
                                       sgb.threshold)
            if _has_aggregates(statement.items):
                return self._aggregate(plan, ["cluster_rep"],
                                       statement.items), True
            return plan, False
        if statement.group_by or _has_aggregates(statement.items):
            keys = [self._column(plan, c.dotted) for c in statement.group_by]
            return self._aggregate(plan, keys, statement.items), True
        return plan, False

    def _aggregate(self, plan: LogicalPlan, keys: list[str],
                   items: list[ast.SelectItem]) -> LogicalPlan:
        aggregates: list[AggExpr] = []
        names: dict[str, str] = {}      # key -> its SELECT alias
        if not items:
            raise BindError("aggregate queries cannot use SELECT *")
        for index, item in enumerate(items):
            expr = item.expr
            if isinstance(expr, ast.FuncCall) and expr.name in _AGG_FUNCS:
                aggregates.append(self._agg_expr(expr, plan, item.alias,
                                                 index))
            elif isinstance(expr, ast.ColumnName):
                spelling = self._column(plan, expr.dotted)
                resolved = plan.schema.names[plan.schema.index_of(spelling)]
                key = spelling if spelling in keys else resolved
                if key not in keys:
                    raise BindError(
                        f"column {expr.dotted!r} must appear in GROUP BY "
                        "or inside an aggregate"
                    )
                if item.alias is not None and item.alias != key \
                        and names.setdefault(key, item.alias) != item.alias:
                    raise BindError(
                        f"group key {expr.dotted!r} is selected under "
                        f"two names ({names[key]!r}, {item.alias!r})")
            else:
                raise BindError(
                    "grouped SELECT items must be key columns or aggregates"
                )
        if names:
            plan, keys = _named_keys(plan, keys, names)
        return AggregateNode(plan, keys, aggregates)

    def _agg_expr(self, call: ast.FuncCall, plan: LogicalPlan,
                  alias: str | None, index: int) -> AggExpr:
        func = _AGG_FUNCS[call.name]
        name = alias or f"{call.name}_{index}"
        if call.star:
            return AggExpr(AggFunc.COUNT, None, name)
        if call.distinct:
            if func != AggFunc.COUNT:
                raise BindError("DISTINCT is supported only inside COUNT")
            func = AggFunc.COUNT_DISTINCT
        operand = self._expr(call.args[0], plan)
        return AggExpr(func, operand, name)

    def _project(self, plan: LogicalPlan,
                 items: list[ast.SelectItem]) -> LogicalPlan:
        exprs: list[tuple[Expr, str]] = []
        for index, item in enumerate(items):
            if isinstance(item.expr, ast.FuncCall) and \
                    item.expr.name in _AGG_FUNCS:
                # aggregate outputs already materialized by _aggregate;
                # reference them by alias
                name = item.alias or f"{item.expr.name}_{index}"
                exprs.append((ColumnRef(name), name))
                continue
            expr = self._expr(item.expr, plan)
            alias = item.alias or _default_alias(item.expr, index)
            exprs.append((expr, alias))
        return ProjectNode(plan, exprs)

    # ------------------------------------------------------------------
    def _expr(self, node: ast.SqlExpr, plan: LogicalPlan) -> Expr:
        if isinstance(node, ast.ColumnName):
            return ColumnRef(self._column(plan, node.dotted))
        if isinstance(node, ast.NumberLit):
            value = int(node.value) if node.is_integer else node.value
            return Literal(value)
        if isinstance(node, ast.StringLit):
            return Literal(node.value)
        if isinstance(node, ast.DateLit):
            return Literal(parse_date(node.iso))
        if isinstance(node, ast.Comparison):
            return Compare(node.op, self._expr(node.left, plan),
                           self._expr(node.right, plan))
        if isinstance(node, ast.BoolOp):
            combiner = And if node.op == "and" else Or
            return combiner(self._expr(node.left, plan),
                            self._expr(node.right, plan))
        if isinstance(node, ast.NotOp):
            return Not(self._expr(node.operand, plan))
        if isinstance(node, ast.BinaryArith):
            return Arith(node.op, self._expr(node.left, plan),
                         self._expr(node.right, plan))
        if isinstance(node, ast.InListExpr):
            values = []
            for value in node.values:
                literal = self._expr(value, plan)
                if not isinstance(literal, Literal):
                    raise BindError("IN lists must contain literals")
                values.append(literal.value)
            return InList(self._expr(node.operand, plan), values)
        if isinstance(node, ast.FuncCall):
            if node.name in _AGG_FUNCS:
                raise BindError(
                    f"aggregate {node.name!r} is not allowed here"
                )
            args = tuple(self._expr(a, plan) for a in node.args)
            return Func(node.name, args)
        if isinstance(node, ast.SemanticPredicate):
            raise BindError(
                "semantic predicates must be top-level WHERE conjuncts"
            )
        raise BindError(f"cannot bind expression {node!r}")

    def _column(self, plan: LogicalPlan, name: str) -> str:
        """How column ``name`` binds against ``plan``: as itself when
        the schema resolves it, else ``t.c`` of a table ``t`` scanned
        without an alias as ``t``'s own column ``c``."""
        try:
            plan.schema.index_of(name)
            return name
        except Exception as exc:
            own = _own_column(plan, name)
            if own is None:
                raise BindError(str(exc)) from exc
            return own

    def _order(self, plan: LogicalPlan, statement: ast.SelectStatement,
               projected: bool) -> LogicalPlan:
        """The ORDER BY sort.  In an ungrouped statement a name the
        select list aliases orders by that item, as SQL resolves ORDER
        BY names against the output first: a column item by its source
        column, a computed item through a projection beneath the sort
        that passes every input column and adds the item's value (under
        its alias, or a free variant of it when an input column has that
        name; the select list above recomputes the item either way)."""
        aliases = {} if projected else {
            item.alias: item.expr for item in statement.items
            if item.alias is not None}
        keys: list[tuple[str, bool]] = []
        computed: dict[str, str] = {}   # alias -> its sort column
        for item in statement.order_by:
            name = item.column.dotted
            expr = aliases.get(name)
            if expr is None:
                column = self._sort_column(plan, name)
            elif isinstance(expr, ast.ColumnName):
                column = self._column(plan, expr.dotted)
            else:
                if name not in computed:
                    column, counter = name, 2
                    while column in plan.schema \
                            or column in computed.values():
                        column = f"{name}_{counter}"
                        counter += 1
                    computed[name] = column
                column = computed[name]
            keys.append((column, item.ascending))
        if computed:
            plan = ProjectNode(
                plan, [(ColumnRef(n), n) for n in plan.schema.names]
                + [(self._expr(aliases[alias], plan), column)
                   for alias, column in computed.items()])
        return SortNode(plan, keys)

    def _sort_column(self, plan: LogicalPlan, name: str) -> str:
        """:meth:`_column`; over an aggregate whose keys
        :func:`_named_keys` aliased, a key's own name also orders by
        its aliased column."""
        try:
            return self._column(plan, name)
        except BindError:
            child = plan.children[0] if isinstance(plan, AggregateNode) \
                else None
            if isinstance(child, ProjectNode):
                source = self._spelling(child, name)
                for expr, alias in child.exprs:
                    if alias in plan.schema.names \
                            and isinstance(expr, ColumnRef) \
                            and expr.name == source:
                        return alias
            raise

    def _spelling(self, plan: LogicalPlan, name: str) -> str | None:
        """:meth:`_column`, or ``None`` where it does not resolve."""
        try:
            return self._column(plan, name)
        except BindError:
            return None


def _own_column(plan: LogicalPlan, name: str) -> str | None:
    """``c`` for ``name`` = ``t.c`` when ``plan`` scans table ``t``
    unaliased and ``c`` is ``t``'s own column (an unaliased scan's
    columns keep their bare names, which a schema holds once)."""
    table, _, column = name.rpartition(".")
    for node in plan.walk():
        if isinstance(node, ScanNode) and node.table_name == table \
                and node.qualifier is None and column in node.base_schema \
                and column in plan.schema:
            return column
    return None


def _named_keys(plan: LogicalPlan, keys: list[str],
                names: dict[str, str]) -> tuple[LogicalPlan, list[str]]:
    """Group by ``SELECT key AS alias``'s alias: a projection beneath
    the aggregate passes every input column through and adds each
    aliased key under its alias, so the aggregate's output column is
    named by the alias and the aggregate still sits directly over a
    row-local chain (ingest's aggregate form)."""
    columns = plan.schema.names
    for key, alias in names.items():
        if alias in columns:
            raise BindError(f"alias {alias!r} of group key {key!r} "
                            "names an input column")
    plan = ProjectNode(plan, [(ColumnRef(name), name) for name in columns]
                       + [(ColumnRef(key), alias)
                          for key, alias in names.items()])
    return plan, [names.get(key, key) for key in keys]


def _has_aggregates(items: list[ast.SelectItem]) -> bool:
    return any(
        isinstance(item.expr, ast.FuncCall) and item.expr.name in _AGG_FUNCS
        for item in items
    )


def _split_semantic_conjuncts(
    where: ast.SqlExpr,
) -> tuple[ast.SqlExpr | None, list[ast.SemanticPredicate]]:
    """Separate top-level semantic predicates from the relational rest."""
    relational: list[ast.SqlExpr] = []
    semantic: list[ast.SemanticPredicate] = []

    def visit(node: ast.SqlExpr) -> None:
        if isinstance(node, ast.BoolOp) and node.op == "and":
            visit(node.left)
            visit(node.right)
            return
        if isinstance(node, ast.SemanticPredicate):
            semantic.append(node)
            return
        if _contains_semantic(node):
            raise BindError(
                "semantic predicates may only appear as AND-ed "
                "top-level WHERE conditions"
            )
        relational.append(node)

    visit(where)
    combined: ast.SqlExpr | None = None
    for part in relational:
        combined = part if combined is None else ast.BoolOp("and", combined,
                                                            part)
    return combined, semantic


def _contains_semantic(node: ast.SqlExpr) -> bool:
    if isinstance(node, ast.SemanticPredicate):
        return True
    for attribute in ("left", "right", "operand"):
        child = getattr(node, attribute, None)
        if isinstance(child, ast.SqlExpr) and _contains_semantic(child):
            return True
    return False


def _default_alias(expr: ast.SqlExpr, index: int) -> str:
    if isinstance(expr, ast.ColumnName):
        return expr.dotted
    return f"col_{index}"
