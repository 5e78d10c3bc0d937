"""Tests for the SQL dialect: lexer, parser, binder, end-to-end."""

import pytest

from repro.engine.session import Session
from repro.engine.sql import ast
from repro.engine.sql.binder import Binder
from repro.engine.sql.lexer import Lexer, TokenType
from repro.engine.sql.parser import parse_sql
from repro.errors import BindError, ParseError
from repro.relational.logical import (
    AggregateNode,
    FilterNode,
    LimitNode,
    ProjectNode,
    SemanticFilterNode,
    SemanticGroupByNode,
    SemanticJoinNode,
    SortNode,
)


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = Lexer("SELECT sElEcT select").tokens()
        assert all(t.is_keyword("select") for t in tokens[:3])

    def test_string_literal(self):
        tokens = Lexer("'hello world'").tokens()
        assert tokens[0].type == TokenType.STRING
        assert tokens[0].text == "hello world"

    def test_string_escape(self):
        tokens = Lexer("'it''s'").tokens()
        assert tokens[0].text == "it's"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            Lexer("'oops").tokens()

    def test_numbers(self):
        tokens = Lexer("42 3.14").tokens()
        assert tokens[0].text == "42"
        assert tokens[1].text == "3.14"

    def test_operators(self):
        text = "<= >= != <> = < > ~"
        tokens = Lexer(text).tokens()
        assert [t.text for t in tokens[:-1]] == \
            ["<=", ">=", "!=", "!=", "=", "<", ">", "~"]

    def test_comments_skipped(self):
        tokens = Lexer("select -- a comment\n x").tokens()
        assert tokens[1].text == "x"

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            Lexer("select @").tokens()

    def test_position_recorded(self):
        tokens = Lexer("select x").tokens()
        assert tokens[1].position == 7


class TestParser:
    def test_select_star(self):
        statement = parse_sql("SELECT * FROM t")
        assert statement.items == []
        assert statement.base.name == "t"

    def test_aliases(self):
        statement = parse_sql("SELECT a AS x, b y FROM t AS u")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"
        assert statement.base.alias == "u"

    def test_dotted_table_name(self):
        statement = parse_sql("SELECT * FROM kb.category AS k")
        assert statement.base.name == "kb.category"
        assert statement.base.alias == "k"

    def test_where_precedence(self):
        statement = parse_sql("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert isinstance(statement.where, ast.BoolOp)
        assert statement.where.op == "or"

    def test_between(self):
        statement = parse_sql("SELECT * FROM t WHERE a BETWEEN 1 AND 5")
        assert isinstance(statement.where, ast.BoolOp)
        assert statement.where.op == "and"

    def test_in_list(self):
        statement = parse_sql("SELECT * FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(statement.where, ast.InListExpr)
        assert len(statement.where.values) == 3

    def test_date_literal(self):
        statement = parse_sql("SELECT * FROM t WHERE d > DATE '2022-06-01'")
        assert isinstance(statement.where.right, ast.DateLit)

    def test_semantic_predicate(self):
        statement = parse_sql(
            "SELECT * FROM t WHERE x ~ 'clothes' "
            "USING MODEL 'm' THRESHOLD 0.8")
        predicate = statement.where
        assert isinstance(predicate, ast.SemanticPredicate)
        assert predicate.probe == "clothes"
        assert predicate.model == "m"
        assert predicate.threshold == 0.8

    def test_semantic_predicate_defaults(self):
        statement = parse_sql("SELECT * FROM t WHERE x ~ 'y'")
        assert statement.where.model is None
        assert statement.where.threshold == 0.9

    def test_join(self):
        statement = parse_sql(
            "SELECT * FROM a JOIN b ON a.x = b.y AND a.z = b.w")
        join = statement.joins[0]
        assert join.kind == "inner"
        assert len(join.left_keys) == 2

    def test_semantic_join(self):
        statement = parse_sql(
            "SELECT * FROM a SEMANTIC JOIN b ON a.x ~ b.y "
            "USING MODEL 'm' THRESHOLD 0.85")
        join = statement.joins[0]
        assert join.kind == "semantic"
        assert join.threshold == 0.85

    def test_semantic_group_by(self):
        statement = parse_sql(
            "SELECT cluster_rep, COUNT(*) AS n FROM t "
            "SEMANTIC GROUP BY msg THRESHOLD 0.75")
        assert statement.semantic_group_by.column.dotted == "msg"
        assert statement.semantic_group_by.threshold == 0.75

    def test_group_order_limit(self):
        statement = parse_sql(
            "SELECT brand, COUNT(*) AS n FROM t GROUP BY brand "
            "ORDER BY n DESC LIMIT 10")
        assert statement.group_by[0].dotted == "brand"
        assert statement.order_by[0].ascending is False
        assert statement.limit == 10

    def test_aggregates(self):
        statement = parse_sql(
            "SELECT COUNT(*), COUNT(DISTINCT x), SUM(y), AVG(z) FROM t")
        names = [item.expr.name for item in statement.items]
        assert names == ["count", "count", "sum", "avg"]
        assert statement.items[0].expr.star
        assert statement.items[1].expr.distinct

    def test_arithmetic(self):
        statement = parse_sql("SELECT price * 2 + 1 AS p FROM t")
        assert isinstance(statement.items[0].expr, ast.BinaryArith)

    def test_negative_number(self):
        statement = parse_sql("SELECT * FROM t WHERE x > -5")
        assert statement.where.right.value == -5

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT * FROM t garbage extra, tokens")

    def test_missing_from_keyword(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT FROM t")

    def test_cross_join(self):
        statement = parse_sql("SELECT * FROM a CROSS JOIN b")
        assert statement.joins[0].kind == "cross"


class TestBinder:
    def test_simple_plan_shape(self, catalog, registry):
        binder = Binder(catalog, "wiki-ft-100")
        plan = binder.bind(parse_sql(
            "SELECT p.pid FROM products AS p WHERE p.price > 10"))
        assert isinstance(plan, ProjectNode)
        assert isinstance(plan.child, FilterNode)

    def test_unknown_table(self, catalog):
        binder = Binder(catalog, "m")
        with pytest.raises(BindError, match="unknown table"):
            binder.bind(parse_sql("SELECT * FROM ghost"))

    def test_unknown_column(self, catalog):
        binder = Binder(catalog, "m")
        with pytest.raises(BindError):
            binder.bind(parse_sql(
                "SELECT * FROM products AS p WHERE p.ghost > 1"))

    def test_semantic_filter_bound(self, catalog):
        binder = Binder(catalog, "default-model")
        plan = binder.bind(parse_sql(
            "SELECT * FROM products AS p WHERE p.ptype ~ 'clothes'"))
        assert isinstance(plan, SemanticFilterNode)
        assert plan.model_name == "default-model"

    def test_semantic_join_bound(self, catalog):
        binder = Binder(catalog, "m")
        plan = binder.bind(parse_sql(
            "SELECT * FROM products AS p SEMANTIC JOIN kb AS k "
            "ON p.ptype ~ k.label THRESHOLD 0.9"))
        assert isinstance(plan, SemanticJoinNode)

    def test_join_keys_oriented(self, catalog):
        binder = Binder(catalog, "m")
        # keys written right-to-left on purpose
        plan = binder.bind(parse_sql(
            "SELECT * FROM products AS p JOIN kb AS k "
            "ON k.label = p.ptype"))
        assert plan.left_keys == ["p.ptype"]
        assert plan.right_keys == ["k.label"]

    def test_aggregate_bound(self, catalog):
        binder = Binder(catalog, "m")
        plan = binder.bind(parse_sql(
            "SELECT p.brand, COUNT(*) AS n FROM products AS p "
            "GROUP BY p.brand"))
        assert isinstance(plan, AggregateNode)

    def test_non_key_column_rejected(self, catalog):
        binder = Binder(catalog, "m")
        with pytest.raises(BindError, match="GROUP BY"):
            binder.bind(parse_sql(
                "SELECT p.price, COUNT(*) AS n FROM products AS p "
                "GROUP BY p.brand"))

    def test_semantic_group_by_bound(self, catalog):
        binder = Binder(catalog, "m")
        plan = binder.bind(parse_sql(
            "SELECT cluster_rep, COUNT(*) AS n FROM products "
            "SEMANTIC GROUP BY ptype THRESHOLD 0.8"))
        assert isinstance(plan, AggregateNode)
        assert isinstance(plan.child, SemanticGroupByNode)

    def test_order_limit_bound(self, catalog):
        binder = Binder(catalog, "m")
        plan = binder.bind(parse_sql(
            "SELECT p.pid FROM products AS p ORDER BY p.price DESC LIMIT 2"))
        assert isinstance(plan, ProjectNode)
        assert isinstance(plan.child, LimitNode)
        assert isinstance(plan.child.child, SortNode)

    def test_or_with_semantic_rejected(self, catalog):
        binder = Binder(catalog, "m")
        with pytest.raises(BindError):
            binder.bind(parse_sql(
                "SELECT * FROM products AS p "
                "WHERE p.price > 1 OR p.ptype ~ 'clothes'"))

    def test_select_star_no_project(self, catalog):
        binder = Binder(catalog, "m")
        plan = binder.bind(parse_sql("SELECT * FROM products"))
        assert not isinstance(plan, ProjectNode)

    def test_unaliased_table_name_qualifies_its_columns(self, catalog):
        binder = Binder(catalog, "m")
        plan = binder.bind(parse_sql(
            "SELECT products.pid FROM products WHERE products.price > 10 "
            "ORDER BY products.price DESC"))
        assert plan.pretty() == (
            "Project[col(pid) AS products.pid]\n"
            "  Sort[price DESC]\n"
            "    Filter[(col(price) > lit(10))]\n"
            "      Scan(products)")
        grouped = binder.bind(parse_sql(
            "SELECT products.brand, COUNT(*) AS n FROM products "
            "GROUP BY products.brand ORDER BY products.brand"))
        assert grouped.keys == [("brand", True)]
        assert grouped.child.group_keys == ["brand"]
        semantic = binder.bind(parse_sql(
            "SELECT * FROM products WHERE products.ptype ~ 'clothes' "
            "SEMANTIC GROUP BY products.brand THRESHOLD 0.8"))
        assert semantic.column == "brand"
        assert semantic.child.column == "ptype"

    def test_table_name_qualifies_join_keys(self, catalog):
        binder = Binder(catalog, "m")
        plan = binder.bind(parse_sql(
            "SELECT products.pid, kb.category FROM products JOIN kb "
            "ON kb.label = products.ptype"))
        assert plan.child.left_keys == ["ptype"]
        assert plan.child.right_keys == ["label"]
        assert plan.schema.names == ["products.pid", "kb.category"]
        semantic = binder.bind(parse_sql(
            "SELECT * FROM products SEMANTIC JOIN kb AS k "
            "ON products.ptype ~ k.label THRESHOLD 0.9"))
        assert (semantic.left_column, semantic.right_column) == (
            "ptype", "k.label")

    @pytest.mark.parametrize("text", [
        # label is kb's column, not products'
        "SELECT products.label FROM products JOIN kb "
        "ON kb.label = products.ptype",
        "SELECT * FROM products JOIN kb ON products.label = kb.category",
        # an alias replaces the table's name
        "SELECT products.pid FROM products AS p",
        "SELECT * FROM products WHERE ghost.pid > 1",
    ])
    def test_table_name_resolves_only_its_own_columns(self, catalog, text):
        with pytest.raises(BindError):
            Binder(catalog, "m").bind(parse_sql(text))

    @pytest.mark.parametrize("text, names", [
        # an explicit AS names a grouped key's column, as it does an
        # ungrouped one ...
        ("SELECT brand AS b, COUNT(*) AS n FROM products GROUP BY brand",
         ["b", "n"]),
        ("SELECT COUNT(*) AS n, products.brand AS b FROM products "
         "GROUP BY products.brand ORDER BY b DESC", ["b", "n"]),
        ("SELECT p.brand AS b, SUM(p.pid) AS s FROM products AS p "
         "GROUP BY p.brand", ["b", "s"]),
        # ... and unaliased keys keep their names, qualified ones too
        ("SELECT brand, COUNT(*) AS n FROM products GROUP BY brand",
         ["brand", "n"]),
        ("SELECT products.brand, COUNT(*) AS n FROM products "
         "GROUP BY products.brand", ["brand", "n"]),
        ("SELECT p.brand, COUNT(*) AS n FROM products AS p "
         "GROUP BY p.brand", ["p.brand", "n"]),
        ("SELECT brand AS brand, COUNT(*) AS n FROM products "
         "GROUP BY brand", ["brand", "n"]),
    ])
    def test_group_key_alias_names_the_output_column(
            self, products_table, text, names):
        session = Session(load_default_model=False)
        session.register_table("products", products_table)
        result = session.sql(text)
        assert result.schema.names == names
        counts = dict(zip(result.column(names[0]).tolist(),
                          result.column(names[1]).tolist()))
        if names[1] == "n":
            assert counts == {"acme": 3, "globex": 2, "initech": 1}
        else:
            assert counts == {"acme": 7, "globex": 9, "initech": 5}

    @pytest.mark.parametrize("order", ["brand, pid", "b, i", "brand, i"])
    def test_grouped_order_by_names_a_key_by_alias_or_own_name(
            self, products_table, order):
        session = Session(load_default_model=False)
        session.register_table("products", products_table)
        result = session.sql(
            "SELECT brand AS b, pid AS i, COUNT(*) AS n FROM products "
            f"GROUP BY pid, brand ORDER BY {order}")
        assert result.schema.names == ["i", "b", "n"]
        assert result.column("b").tolist() == [
            "acme", "acme", "acme", "globex", "globex", "initech"]
        assert result.column("i").tolist() == [1, 2, 4, 3, 6, 5]

    @pytest.mark.parametrize("text, message", [
        ("SELECT brand AS pid, COUNT(*) AS n FROM products GROUP BY brand",
         "names an input column"),
        ("SELECT brand AS b, brand AS c, COUNT(*) AS n FROM products "
         "GROUP BY brand", "two names"),
    ])
    def test_group_key_alias_that_cannot_name_it(self, catalog, text,
                                                 message):
        with pytest.raises(BindError, match=message):
            Binder(catalog, "m").bind(parse_sql(text))

    @pytest.mark.parametrize("text, names, first", [
        ("SELECT pid AS k FROM products ORDER BY k", ["k"], [1, 2, 3]),
        ("SELECT p.price AS cost, pid FROM products AS p "
         "ORDER BY cost DESC LIMIT 3", ["cost", "pid"],
         [9000.0, 300.0, 120.0]),
        # the output name wins over an input column it shadows
        ("SELECT price AS pid FROM products ORDER BY pid", ["pid"],
         [2.0, 15.0, 25.0]),
        # a computed item sorts by its value
        ("SELECT pid, 0 - price AS neg FROM products ORDER BY neg",
         ["pid", "neg"], [3, 4, 2]),
    ])
    def test_ungrouped_order_by_select_alias(self, products_table, text,
                                             names, first):
        session = Session(load_default_model=False)
        session.register_table("products", products_table)
        result = session.sql(text)
        assert result.schema.names == names
        assert result.column(names[0]).tolist()[:3] == first

    @pytest.mark.parametrize("text, names, first", [
        ("SELECT 0 - price AS price FROM products ORDER BY price",
         ["price"], [-9000.0, -300.0, -120.0]),
        ("SELECT pid, 0 - price AS price, price * 2 AS price_2 "
         "FROM products ORDER BY price, price_2 DESC LIMIT 2",
         ["pid", "price", "price_2"], [3, 4]),
    ])
    def test_order_by_computed_alias_shadowing_an_input_column(
            self, products_table, text, names, first):
        # the output value orders, not the input column it shadows
        session = Session(load_default_model=False)
        session.register_table("products", products_table)
        result = session.sql(text)
        assert result.schema.names == names
        assert result.column(names[0]).tolist()[:3] == first

    def test_table_qualified_names_run_like_aliased_ones(
            self, model, products_table):
        session = Session(load_default_model=False)
        session.register_model(model, default=True)
        session.register_table("products", products_table)
        bare = session.sql(
            "SELECT products.pid FROM products WHERE products.price > 100")
        aliased = session.sql(
            "SELECT p.pid FROM products AS p WHERE p.price > 100")
        assert bare.schema.names == ["products.pid"]
        assert bare.column("products.pid").tolist() == \
            aliased.column("p.pid").tolist() == [2, 3, 4]
