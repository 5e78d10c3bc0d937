"""Factorized relational operators (``repro.relational.keys``).

- **the primitive** — dense first-seen codes under dict-over-``tolist()``
  equality, probe lookup, the shared sort order;
- **differential** — hypothesis tables through the new ``HashJoinOp`` /
  ``AggregateOp`` / ``SortOp`` and through the per-row bodies they
  replaced (``tests/reference_operators.py``): rows, row order and
  dtypes identical;
- **the extra-predicate fix** — LEFT / SEMI / ANTI joins decide
  "matched" after the extra predicate, not before;
- **the scoreboard knows every operator** — each ``PhysicalOperator``
  subclass has a family in ``benchmarks/e2e/layers.OPERATOR_FAMILIES``
  (a new class name would silently count as ``filter_project_share``).
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from reference_operators import (
    ReferenceAggregateOp,
    ReferenceHashJoinOp,
    ReferenceSortOp,
    reference_sort_by,
)
from repro.relational.expressions import AggExpr, AggFunc, col
from repro.relational.keys import KeyIndex, sort_order
from repro.relational.logical import (
    AggregateNode,
    JoinNode,
    JoinType,
    LimitNode,
    ScanNode,
    SortNode,
)
from repro.relational.physical import (
    AggregateOp,
    ExecutionContext,
    HashJoinOp,
    LimitOp,
    PhysicalOperator,
    ScanOp,
    SortOp,
    build_physical,
    execute_plan,
)
from repro.storage.catalog import Catalog
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.storage.types import DataType

REPO_ROOT = Path(__file__).resolve().parent.parent
NAN = float("nan")

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

#: Value pools per column kind: small, so keys repeat.  ``wide`` leaves
#: the offset encoding's range; ``float`` carries NaN and -0.0; ``str``
#: carries None.
POOLS = {
    "int": [-2, -1, 0, 1, 2, 3],
    "wide": [-(2 ** 62), -1, 0, 1, 2 ** 40, 2 ** 62],
    "float": [0.0, -0.0, 1.0, NAN, -1.5, NAN, np.inf],
    "bool": [False, True],
    "str": ["a", "b", "B", "", None],
    "name": ["a", "b", "B", ""],
}
DTYPES = {"int": DataType.INT64, "wide": DataType.INT64,
          "float": DataType.FLOAT64, "bool": DataType.BOOL,
          "str": DataType.STRING, "name": DataType.STRING}
KINDS = st.sampled_from(["int", "wide", "float", "bool", "str"])


def make_column(kind: str, cells: list) -> np.ndarray:
    if DTYPES[kind] is DataType.STRING:
        column = np.empty(len(cells), dtype=object)
        column[:] = cells
        return column
    return np.asarray(cells, dtype=DTYPES[kind].numpy_dtype)


def make_table(columns: dict[str, tuple[str, list]]) -> Table:
    schema = Schema([Field(name, DTYPES[kind])
                     for name, (kind, _) in columns.items()])
    return Table(schema, {name: make_column(kind, cells)
                          for name, (kind, cells) in columns.items()})


@st.composite
def tables(draw, kinds: dict[str, str], max_rows: int = 16) -> Table:
    """A table whose column ``name`` draws from ``POOLS[kinds[name]]``."""
    rows = draw(st.integers(0, max_rows))
    columns = {name: (kind, draw(st.lists(st.sampled_from(POOLS[kind]),
                                          min_size=rows, max_size=rows)))
               for name, kind in kinds.items()}
    return make_table(columns)


def assert_identical(actual: Table, expected: Table) -> None:
    """Same names, dtypes, row order and bits (NaN and -0.0 included)."""
    assert actual.schema.names == expected.schema.names
    for name in expected.schema.names:
        got, want = actual.column(name), expected.column(name)
        assert got.dtype == want.dtype, name
        if want.dtype == object:
            assert [(type(v), v if v == v else "nan") for v in got] == \
                [(type(v), v if v == v else "nan") for v in want], name
        else:
            assert got.tobytes() == want.tobytes(), name


def run(op: PhysicalOperator) -> Table | type:
    """The operator's result, or the class of what it raised."""
    try:
        return op.execute()
    except Exception:     # both sides must raise, or neither
        return Exception


# ----------------------------------------------------------------------
# the primitive
# ----------------------------------------------------------------------
class TestKeyIndex:
    def test_first_seen_codes_and_first_rows(self):
        index = KeyIndex([np.array(["b", "a", "b", "c", "a"], dtype=object)])
        assert index.codes.tolist() == [0, 1, 0, 2, 1]
        assert index.first.tolist() == [0, 1, 3]
        assert index.count == 3

    def test_dict_equality(self):
        objects = np.empty(6, dtype=object)
        objects[:] = [1, 1.0, True, None, None, "1"]
        assert KeyIndex([objects]).codes.tolist() == [0, 0, 0, 1, 1, 2]
        floats = np.array([0.0, -0.0, NAN, NAN, 1.0])
        assert KeyIndex([floats]).codes.tolist() == [0, 0, 1, 2, 3]

    def test_multi_column_and_wide_codes(self):
        a = np.array([2 ** 62, 5, 2 ** 62, 5, 2 ** 62])
        b = np.array([1.5, 1.5, 1.5, 2.5, NAN])
        index = KeyIndex([a, b])
        assert index.codes.tolist() == [0, 1, 0, 2, 3]
        assert index.lookup([np.array([5, 2 ** 62, 7]),
                             np.array([2.5, 1.5, 1.5])]).tolist() == [2, 0, -1]

    def test_lookup_across_dtypes_compares_python_values(self):
        index = KeyIndex([np.array([1, 2, 3])])
        probe = np.array([1.0, -0.0, NAN, 3.0, 2.5])
        assert index.lookup([probe]).tolist() == [0, -1, -1, 2, -1]
        flags = KeyIndex([np.array([True, False])])
        assert flags.lookup([np.array([0, 1, 2])]).tolist() == [1, 0, -1]

    def test_matches_emit_probe_then_build_order(self):
        index = KeyIndex([np.array([7, 8, 7, 7])])
        left, right = index.matches(index.lookup([np.array([8, 9, 7])]))
        assert left.tolist() == [0, 2, 2, 2]
        assert right.tolist() == [1, 0, 2, 3]

    @given(data=st.data())
    @SETTINGS
    def test_codes_equal_a_dict_over_tolist(self, data):
        kinds = data.draw(st.lists(KINDS, min_size=1, max_size=3))
        table = data.draw(tables({f"k{i}": kind
                                  for i, kind in enumerate(kinds)}))
        columns = [table.column(f"k{i}") for i in range(len(kinds))]
        groups: dict = {}
        expected = [groups.setdefault(key, len(groups))
                    for key in zip(*(c.tolist() for c in columns))]
        index = KeyIndex(columns)
        assert index.codes.tolist() == expected
        assert index.count == len(groups)


# ----------------------------------------------------------------------
# differential: new operators vs the per-row bodies they replaced
# ----------------------------------------------------------------------
@given(data=st.data())
@SETTINGS
def test_hash_join_matches_reference(data):
    width = data.draw(st.integers(1, 2))
    left_kinds = {f"l.k{i}": data.draw(KINDS) for i in range(width)}
    right_kinds = {f"r.k{i}": data.draw(KINDS) for i in range(width)}
    left = data.draw(tables({**left_kinds, "l.v": "int"}))
    right = data.draw(tables({**right_kinds, "r.v": "int"}))
    join_type = data.draw(st.sampled_from(list(JoinType)))
    # the reference decides LEFT/SEMI/ANTI matches before the extra
    # predicate (the bug fixed here): compare those without one
    predicate = data.draw(st.sampled_from([None, col("l.v") < col("r.v")])) \
        if join_type in (JoinType.INNER, JoinType.CROSS) else None
    batch = data.draw(st.integers(1, max(1, left.num_rows + 1)))
    node = JoinNode(ScanNode("l", left.schema), ScanNode("r", right.schema),
                    join_type, list(left_kinds), list(right_kinds), predicate)

    def build(cls):
        return cls(ScanOp(left, batch), ScanOp(right, 3), list(left_kinds),
                   list(right_kinds), join_type, predicate, node.schema)

    expected = run(build(ReferenceHashJoinOp))
    actual = run(build(HashJoinOp))
    if isinstance(expected, Table):
        assert_identical(actual, expected)
    else:
        assert actual is expected


@given(data=st.data())
@SETTINGS
def test_semi_anti_left_with_extra_predicate_match_inner_pairs(data):
    """With an extra predicate a probe row is matched iff the (reference)
    INNER join with that predicate keeps one of its pairs."""
    left = data.draw(tables({"l.k": "int", "l.v": "int"}))
    left = left.with_column(Field("l.id", DataType.INT64),
                            np.arange(left.num_rows, dtype=np.int64))
    right = data.draw(tables({"r.k": "int", "r.v": "int"}))
    predicate = col("l.v") < col("r.v")
    batch = data.draw(st.integers(1, max(1, left.num_rows + 1)))

    def join(cls, join_type, table=left):
        node = JoinNode(ScanNode("l", table.schema),
                        ScanNode("r", right.schema), join_type, ["l.k"],
                        ["r.k"], predicate)
        return cls(ScanOp(table, batch), ScanOp(right, 2), ["l.k"], ["r.k"],
                   join_type, predicate, node.schema).execute()

    inner = join(ReferenceHashJoinOp, JoinType.INNER)
    hit = np.isin(left.column("l.id"), inner.column("l.id"))
    assert_identical(join(HashJoinOp, JoinType.SEMI), left.filter(hit))
    assert_identical(join(HashJoinOp, JoinType.ANTI), left.filter(~hit))
    # LEFT, per batch: the INNER pairs first, then the batch's unmatched
    expected_ids = []
    for start in range(0, left.num_rows, batch):
        piece = left.slice(start, min(start + batch, left.num_rows))
        pairs = join(ReferenceHashJoinOp, JoinType.INNER, piece)
        expected_ids += pairs.column("l.id").tolist()
        expected_ids += [i for i in piece.column("l.id").tolist()
                         if not hit[i]]
    outer = join(HashJoinOp, JoinType.LEFT)
    assert outer.column("l.id").tolist() == expected_ids


#: Aggregate operand -> the functions it is valid for (SUM of strings
#: or MIN over None raise on both sides, and one raising aggregate
#: would hide the others).
AGG_OPERANDS = {
    "v_int": list(AggFunc), "v_wide": list(AggFunc),
    "v_float": list(AggFunc), "v_bool": list(AggFunc),
    "v_name": [AggFunc.COUNT, AggFunc.COUNT_DISTINCT, AggFunc.MIN,
               AggFunc.MAX],
    "v_str": [AggFunc.COUNT, AggFunc.COUNT_DISTINCT],
}


@st.composite
def aggregate(draw, alias: str) -> AggExpr:
    operand = draw(st.sampled_from(sorted(AGG_OPERANDS) + [None]))
    if operand is None:
        return AggExpr(AggFunc.COUNT, None, alias)
    func = draw(st.sampled_from(AGG_OPERANDS[operand]))
    return AggExpr(func, col(operand), alias)


@given(data=st.data())
@SETTINGS
def test_aggregate_matches_reference(data):
    key_kinds = {f"k{i}": data.draw(KINDS)
                 for i in range(data.draw(st.integers(0, 2)))}
    table = data.draw(tables({**key_kinds, "v_int": "int", "v_wide": "wide",
                              "v_float": "float", "v_bool": "bool",
                              "v_name": "name", "v_str": "str"}))
    aggregates = [data.draw(aggregate(f"a{i}"))
                  for i in range(data.draw(st.integers(1, 4)))]
    keys = list(key_kinds)
    schema = AggregateNode(ScanNode("t", table.schema), keys,
                           aggregates).schema
    batch = data.draw(st.integers(1, max(1, table.num_rows + 1)))
    expected = run(ReferenceAggregateOp(ScanOp(table, batch), keys,
                                        aggregates, schema))
    actual = run(AggregateOp(ScanOp(table, batch), keys, aggregates, schema))
    if isinstance(expected, Table):
        assert_identical(actual, expected)
    else:
        assert actual is expected


def adversarial(kinds: dict[str, str], rows: int = 40, seed: int = 3):
    """Every pool value, repeated and shuffled (NaN, -0.0, None twice)."""
    rng = np.random.default_rng(seed)
    return make_table({name: (kind, [POOLS[kind][i] for i in rng.integers(
        0, len(POOLS[kind]), rows)]) for name, kind in kinds.items()})


KEY_KINDS = ["int", "wide", "float", "bool", "str"]


def test_adversarial_keys_match_reference():
    """Deterministic companion of the two properties above: every key
    kind (and pair of kinds) through every aggregate and join type."""
    values = adversarial({operand: operand.removeprefix("v_")
                          for operand in AGG_OPERANDS}, seed=4)
    aggregates = [AggExpr(AggFunc.COUNT, None, "n")] + [
        AggExpr(func, col(operand), f"{func.value}_{operand}")
        for operand, funcs in AGG_OPERANDS.items() for func in funcs]
    for a in KEY_KINDS:
        for b in [None, *KEY_KINDS]:
            kinds = {"ka": a} if b is None else {"ka": a, "kb": b}
            table = adversarial(kinds)
            for name in values.schema.names:
                table = table.with_column(
                    values.schema.fields[values.schema.index_of(name)],
                    values.column(name))
            keys = list(kinds)
            schema = AggregateNode(ScanNode("t", table.schema), keys,
                                   aggregates).schema
            assert_identical(
                AggregateOp(ScanOp(table, 7), keys, aggregates,
                            schema).execute(),
                ReferenceAggregateOp(ScanOp(table, 7), keys, aggregates,
                                     schema).execute())
            left = adversarial({"l.k": a, "l.v": "int"}, seed=5)
            right = adversarial({"r.k": b or a, "r.v": "int"}, seed=6)
            for join_type in JoinType:
                node = JoinNode(ScanNode("l", left.schema),
                                ScanNode("r", right.schema), join_type,
                                ["l.k"], ["r.k"])
                ops = [cls(ScanOp(left, 9), ScanOp(right, 9), ["l.k"],
                           ["r.k"], join_type, None, node.schema)
                       for cls in (HashJoinOp, ReferenceHashJoinOp)]
                assert_identical(ops[0].execute(), ops[1].execute())


def test_aggregate_float_sums_bit_identical_on_long_segments():
    """Segments long enough for NumPy's blocked pairwise summation."""
    rng = np.random.default_rng(5)
    n = 6000
    table = Table(Schema([Field("g", DataType.INT64),
                          Field("x", DataType.FLOAT64)]),
                  {"g": rng.integers(0, 4, n),
                   "x": rng.standard_normal(n) * 10.0 ** rng.integers(
                       -8, 16, n)})
    aggregates = [AggExpr(AggFunc.SUM, col("x"), "s"),
                  AggExpr(AggFunc.AVG, col("x"), "m"),
                  AggExpr(AggFunc.MIN, col("x") * 3, "lo")]
    schema = AggregateNode(ScanNode("t", table.schema), ["g"],
                           aggregates).schema
    expected = ReferenceAggregateOp(ScanOp(table, 512), ["g"], aggregates,
                                    schema).execute()
    actual = AggregateOp(ScanOp(table, 512), ["g"], aggregates,
                         schema).execute()
    assert_identical(actual, expected)


@given(data=st.data())
@SETTINGS
def test_sort_and_top_k_match_reference(data):
    kinds = {f"s{i}": data.draw(KINDS)
             for i in range(data.draw(st.integers(1, 3)))}
    table = data.draw(tables(kinds))
    table = table.with_column(Field("rid", DataType.INT64),
                              np.arange(table.num_rows, dtype=np.int64))
    keys = [(name, data.draw(st.booleans())) for name in kinds]
    limit = data.draw(st.one_of(st.none(),
                                st.integers(0, table.num_rows + 2)))
    expected = reference_sort_by(table, keys)
    if limit is not None:
        expected = expected.slice(0, limit)
    batch = data.draw(st.integers(1, max(1, table.num_rows + 1)))
    assert_identical(table.sort_by(keys, limit), expected)
    assert_identical(SortOp(ScanOp(table, batch), keys, limit).execute(),
                     expected)
    if limit is None:
        assert_identical(ReferenceSortOp(ScanOp(table, batch),
                                         keys).execute(), expected)


def test_top_k_keeps_every_boundary_tie():
    price = np.array([5.0, 9.0, 9.0, 1.0, 9.0, NAN, 9.0])
    name = np.array(["e", "d", "c", "b", "a", "z", "b"], dtype=object)
    for keys in ([True, True], [False, True], [False, False]):
        full = sort_order([price, name], keys)
        for limit in range(len(price) + 1):
            assert sort_order([price, name], keys, limit).tolist() == \
                full[:limit].tolist()


# ----------------------------------------------------------------------
# plan-level behaviour
# ----------------------------------------------------------------------
@pytest.fixture()
def predicate_catalog(catalog):
    catalog.register("l", Table.from_dict({"id": [1, 2], "a": [10, 20]}))
    catalog.register("r", Table.from_dict({"rid": [1, 2], "b": [5, 50]}))
    return catalog


@pytest.mark.parametrize("join_type,ids", [
    (JoinType.INNER, [2]),
    (JoinType.LEFT, [2, 1]),
    (JoinType.SEMI, [2]),
    (JoinType.ANTI, [1]),
])
def test_extra_predicate_decides_matches(predicate_catalog, context,
                                         join_type, ids):
    """Row 1's only candidate (b=5) fails ``b > a``: LEFT null-extends
    it, SEMI drops it, ANTI keeps it.  The parent commit returned
    LEFT [2], SEMI [1, 2] and ANTI []."""
    left = ScanNode("l", predicate_catalog.get("l").schema)
    right = ScanNode("r", predicate_catalog.get("r").schema)
    plan = JoinNode(left, right, join_type, ["id"], ["rid"],
                    extra_predicate=col("b") > col("a"))
    result = execute_plan(plan, context)
    assert result.column("id").tolist() == ids
    if join_type == JoinType.LEFT:
        assert result.to_rows()[1] == {"id": 1, "a": 10, "rid": 0, "b": 0}


def test_limit_over_sort_lowers_to_a_limited_sort_op(products_table):
    catalog = Catalog()
    catalog.register("products", products_table)
    context = ExecutionContext(catalog=catalog, batch_size=2)
    scan = ScanNode("products", products_table.schema)
    plan = LimitNode(SortNode(scan, [("brand", False), ("price", True)]), 3)
    root = build_physical(plan, context)
    assert isinstance(root, LimitOp) and isinstance(root.children[0], SortOp)
    assert root.children[0].limit == 3
    assert_identical(root.execute(), reference_sort_by(
        products_table, [("brand", False), ("price", True)]).slice(0, 3))
    assert build_physical(SortNode(scan, [("price", True)]),
                          context).limit is None


# ----------------------------------------------------------------------
# the scoreboard attributes every operator
# ----------------------------------------------------------------------
def _operator_classes() -> set[str]:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found: set[str] = set()
    pending = [PhysicalOperator]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("repro."):
                found.add(sub.__name__)
    return found


def test_every_physical_operator_has_a_scoreboard_family():
    sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))
    try:
        import layers
    finally:
        sys.path.pop(0)
    classes = _operator_classes()
    assert {"HashJoinOp", "AggregateOp", "SortOp"} <= classes
    assert classes <= set(layers.OPERATOR_FAMILIES)
