"""Tests for storage: types, schema, table, growth buffers, catalog."""

import datetime
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, SchemaError
from repro.storage.catalog import Catalog
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.storage.types import (
    DataType,
    coerce_array,
    date_to_int,
    int_to_date,
    parse_date,
)


class TestTypes:
    def test_date_round_trip(self):
        day = date_to_int("2022-06-15")
        assert int_to_date(day) == datetime.date(2022, 6, 15)

    def test_epoch_is_zero(self):
        assert date_to_int("1970-01-01") == 0

    def test_parse_date(self):
        assert parse_date("2022-01-02") == date_to_int("2022-01-02")

    def test_infer(self):
        assert DataType.infer(True) == DataType.BOOL
        assert DataType.infer(3) == DataType.INT64
        assert DataType.infer(3.5) == DataType.FLOAT64
        assert DataType.infer("x") == DataType.STRING
        assert DataType.infer(datetime.date(2020, 1, 1)) == DataType.DATE

    def test_infer_rejects_unknown(self):
        with pytest.raises(SchemaError):
            DataType.infer(object())

    def test_coerce_date_strings(self):
        array = coerce_array(["2020-01-01", "2020-01-02"], DataType.DATE)
        assert array.dtype == np.int64
        assert array[1] - array[0] == 1

    def test_coerce_string_none_preserved(self):
        array = coerce_array(["a", None], DataType.STRING)
        assert array[1] is None

    def test_numeric_flag(self):
        assert DataType.DATE.is_numeric
        assert not DataType.STRING.is_numeric


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Field("a", DataType.INT64), Field("a", DataType.INT64)])

    def test_index_of_exact(self):
        schema = Schema([Field("a", DataType.INT64),
                         Field("b", DataType.STRING)])
        assert schema.index_of("b") == 1

    def test_index_of_suffix(self):
        schema = Schema([Field("p.price", DataType.FLOAT64),
                         Field("k.label", DataType.STRING)])
        assert schema.index_of("price") == 0

    def test_index_of_ambiguous_suffix(self):
        schema = Schema([Field("p.price", DataType.FLOAT64),
                         Field("q.price", DataType.FLOAT64)])
        with pytest.raises(SchemaError, match="ambiguous"):
            schema.index_of("price")

    def test_index_of_unknown(self):
        schema = Schema([Field("a", DataType.INT64)])
        with pytest.raises(SchemaError, match="unknown column"):
            schema.index_of("z")

    def test_concat(self):
        left = Schema([Field("a", DataType.INT64)])
        right = Schema([Field("b", DataType.STRING)])
        assert left.concat(right).names == ["a", "b"]

    def test_qualified(self):
        schema = Schema([Field("a", DataType.INT64)]).qualified("t")
        assert schema.names == ["t.a"]

    def test_qualified_idempotent(self):
        schema = Schema([Field("t.a", DataType.INT64)]).qualified("t")
        assert schema.names == ["t.a"]

    def test_renamed(self):
        schema = Schema([Field("a", DataType.INT64)]).renamed({"a": "x"})
        assert schema.names == ["x"]

    def test_select_preserves_dtype(self):
        schema = Schema([Field("a", DataType.INT64),
                         Field("b", DataType.STRING)])
        assert schema.select(["b"]).fields[0].dtype == DataType.STRING

    def test_equality_and_hash(self):
        a = Schema([Field("a", DataType.INT64)])
        b = Schema([Field("a", DataType.INT64)])
        assert a == b
        assert hash(a) == hash(b)


class TestTable:
    def test_from_dict_infers_types(self):
        table = Table.from_dict({"x": [1, 2], "s": ["a", "b"]})
        assert table.schema.dtype_of("x") == DataType.INT64
        assert table.schema.dtype_of("s") == DataType.STRING

    def test_from_dict_empty_column_needs_schema(self):
        with pytest.raises(SchemaError):
            Table.from_dict({"x": []})

    def test_ragged_columns_rejected(self):
        schema = Schema([Field("a", DataType.INT64),
                         Field("b", DataType.INT64)])
        with pytest.raises(SchemaError):
            Table(schema, {"a": np.zeros(2, dtype=np.int64),
                           "b": np.zeros(3, dtype=np.int64)})

    def test_from_rows(self):
        schema = Schema([Field("a", DataType.INT64),
                         Field("b", DataType.STRING)])
        table = Table.from_rows([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}],
                                schema)
        assert table.num_rows == 2
        assert table.column("b")[1] == "y"

    def test_filter(self, products_table):
        filtered = products_table.filter(
            products_table.column("price") > 100)
        assert filtered.num_rows == 3  # parka, sedan, kitten

    def test_take(self, products_table):
        taken = products_table.take(np.array([2, 0]))
        assert taken.column("pid").tolist() == [3, 1]

    def test_slice(self, products_table):
        assert products_table.slice(1, 3).num_rows == 2

    def test_select(self, products_table):
        selected = products_table.select(["price", "pid"])
        assert selected.schema.names == ["price", "pid"]

    def test_with_column(self, products_table):
        extended = products_table.with_column(
            Field("flag", DataType.BOOL),
            np.ones(products_table.num_rows, dtype=bool))
        assert "flag" in extended.schema

    def test_with_column_length_mismatch(self, products_table):
        with pytest.raises(SchemaError):
            products_table.with_column(Field("f", DataType.BOOL),
                                       np.ones(2, dtype=bool))

    def test_concat(self, products_table):
        double = Table.concat([products_table, products_table])
        assert double.num_rows == 2 * products_table.num_rows

    def test_concat_mismatched(self, products_table, kb_table):
        with pytest.raises(SchemaError):
            Table.concat([products_table, kb_table])

    def test_batches_cover_all_rows(self, products_table):
        batches = list(products_table.batches(4))
        assert sum(b.num_rows for b in batches) == products_table.num_rows
        assert batches[0].num_rows == 4

    def test_batches_empty_table(self):
        table = Table.empty(Schema([Field("a", DataType.INT64)]))
        assert list(table.batches(10)) == []

    def test_batches_invalid_size(self, products_table):
        with pytest.raises(SchemaError):
            list(products_table.batches(0))

    def test_sort_by_single(self, products_table):
        ordered = products_table.sort_by([("price", True)])
        prices = ordered.column("price")
        assert np.all(np.diff(prices) >= 0)

    def test_sort_by_descending(self, products_table):
        ordered = products_table.sort_by([("price", False)])
        prices = ordered.column("price")
        assert np.all(np.diff(prices) <= 0)

    def test_sort_by_multi_stable(self):
        table = Table.from_dict({
            "g": ["b", "a", "b", "a"],
            "v": [1, 2, 3, 4],
        })
        ordered = table.sort_by([("g", True), ("v", False)])
        assert ordered.column("v").tolist() == [4, 2, 3, 1]

    def test_qualified(self, products_table):
        qualified = products_table.qualified("p")
        assert "p.pid" in qualified.schema
        assert qualified.column("p.pid").tolist() == \
            products_table.column("pid").tolist()

    def test_row_and_to_rows(self, products_table):
        row = products_table.row(0)
        assert row["pid"] == 1
        rows = products_table.to_rows()
        assert isinstance(rows[0]["pid"], int)

    def test_renamed(self, products_table):
        renamed = products_table.renamed({"pid": "id"})
        assert "id" in renamed.schema


GROW_SCHEMA = Schema([Field("n", DataType.INT64),
                      Field("f", DataType.FLOAT64),
                      Field("s", DataType.STRING)])


def grow_rows(start, count):
    return Table.from_dict({
        "n": list(range(start, start + count)),
        "f": [float(i) / 4 for i in range(start, start + count)],
        "s": [None if i % 5 == 0 else f"s{i}"
              for i in range(start, start + count)]}, GROW_SCHEMA)


def assert_bit_identical(actual, expected):
    """Same names, dtypes and values — floats compared by bit pattern
    (NaN payloads included), objects by identity-free equality."""
    assert actual.schema.names == expected.schema.names
    for name in expected.schema.names:
        left, right = actual.columns[name], expected.columns[name]
        assert left.dtype == right.dtype, name
        assert left.shape == right.shape, name
        if left.dtype.kind == "f":
            assert np.array_equal(left.view(np.int64),
                                  right.view(np.int64)), name
        else:
            assert left.tolist() == right.tolist(), name


class TestGrowthBuffer:
    def test_table_handed_out_before_appends_is_unchanged(self):
        pieces = [grow_rows(0, 3), grow_rows(3, 4)]
        first = pieces[0].append(pieces[1])
        expected = Table.concat(pieces)
        tip, copies = first, 0
        for start in range(7, 107, 5):
            pieces.append(grow_rows(start, 5))
            grown = tip.append(pieces[-1])
            copies += not np.shares_memory(grown.columns["n"],
                                           tip.columns["n"])
            tip = grown
        # capacity doubles: 7 -> 107 rows copies the old rows 3 times
        assert copies == 3
        assert first.num_rows == 7
        assert_bit_identical(first, expected)
        assert_bit_identical(tip, Table.concat(pieces))

    def test_appending_to_a_non_tip_copies_and_leaves_the_tip(self):
        base = grow_rows(0, 4).append(grow_rows(4, 2))
        tip = base.append(grow_rows(6, 3))
        branch = base.append(grow_rows(100, 2))
        assert_bit_identical(tip, Table.concat(
            [grow_rows(0, 4), grow_rows(4, 2), grow_rows(6, 3)]))
        assert_bit_identical(branch, Table.concat(
            [grow_rows(0, 4), grow_rows(4, 2), grow_rows(100, 2)]))
        assert not np.shares_memory(branch.columns["n"], tip.columns["n"])
        # the tip keeps growing in place after the branch copied out
        grown = tip.append(grow_rows(9, 1))
        assert np.shares_memory(grown.columns["n"], tip.columns["n"])
        assert_bit_identical(tip, Table.concat(
            [grow_rows(0, 4), grow_rows(4, 2), grow_rows(6, 3)]))

    @pytest.mark.concurrency
    def test_holders_of_one_tip_appending_from_threads(self):
        # four catalogs registered one tip table (more threads than
        # cores); at most one may write into its buffer, the rest copy
        holders = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(30):
                shared = grow_rows(0, 10).append(grow_rows(10, 1))
                catalogs = [Catalog() for _ in range(holders)]
                for catalog in catalogs:
                    catalog.register("t", shared)
                deltas = [grow_rows(1000 * (i + 1), 3 + i)
                          for i in range(holders)]
                barrier = threading.Barrier(holders)

                def append(index):
                    barrier.wait(timeout=10)
                    catalogs[index].append_rows("t", deltas[index])

                threads = [threading.Thread(target=append, args=(i,))
                           for i in range(holders)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                for catalog, delta in zip(catalogs, deltas):
                    assert_bit_identical(catalog.get("t"),
                                         Table.concat([shared, delta]))
                assert shared.num_rows == 11, round_
        finally:
            sys.setswitchinterval(interval)

    def test_dtype_mismatch_falls_back_to_concat(self):
        ints = Table.from_dict({"a": [1, 2]})
        floats = Table.from_dict({"a": [0.5]})
        grown = ints.append(floats)
        assert_bit_identical(grown, Table.concat([ints, floats]))
        assert grown.columns["a"].dtype == np.float64

    def test_mismatched_schema_raises_like_concat(self, products_table,
                                                  kb_table):
        with pytest.raises(SchemaError):
            products_table.append(kb_table)

    def test_size_estimate_carries_forward(self):
        base = grow_rows(0, 4)
        measured = base.estimated_bytes()
        delta = grow_rows(4, 3)
        grown = base.append(delta)
        assert grown.estimated_bytes() == measured + delta.estimated_bytes()
        # a table nobody measured is measured on demand, not carried
        assert grow_rows(0, 4).append(delta).estimated_bytes() == \
            Table.concat([grow_rows(0, 4), delta]).estimated_bytes()


#: one batch: numeric, object, empty or one-row, NaN and None included
BATCH = st.integers(0, 6).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n,
                  max_size=n),
    "f": st.lists(st.floats(allow_nan=True), min_size=n, max_size=n),
    "s": st.lists(st.one_of(st.none(), st.text(max_size=4)), min_size=n,
                  max_size=n),
}))


@given(batches=st.lists(BATCH, min_size=1, max_size=12),
       branch=st.integers(0, 11))
@settings(max_examples=60, deadline=None)
def test_appends_match_one_concat(batches, branch):
    tables = [Table.from_dict(batch, GROW_SCHEMA) for batch in batches]
    grown = [tables[0]]
    for table in tables[1:]:
        grown.append(grown[-1].append(table))
    # an append to an earlier (non-tip) table branches off a copy
    forked = grown[branch % len(grown)].append(tables[-1])
    for count, table in enumerate(grown, start=1):
        assert_bit_identical(table, Table.concat(tables[:count]))
    assert_bit_identical(forked, Table.concat(
        tables[:branch % len(grown) + 1] + [tables[-1]]))


class TestCatalog:
    def test_register_get(self, products_table):
        catalog = Catalog()
        catalog.register("t", products_table)
        assert catalog.get("t") is products_table

    def test_duplicate_register(self, products_table):
        catalog = Catalog()
        catalog.register("t", products_table)
        with pytest.raises(CatalogError):
            catalog.register("t", products_table)

    def test_replace(self, products_table, kb_table):
        catalog = Catalog()
        catalog.register("t", products_table)
        catalog.register("t", kb_table, replace=True)
        assert catalog.get("t") is kb_table

    def test_unknown_get(self):
        with pytest.raises(CatalogError, match="unknown table"):
            Catalog().get("ghost")

    def test_drop(self, products_table):
        catalog = Catalog()
        catalog.register("t", products_table)
        catalog.drop("t")
        assert "t" not in catalog

    def test_drop_unknown(self):
        with pytest.raises(CatalogError):
            Catalog().drop("ghost")

    def test_stats_cached_and_invalidated(self, products_table, kb_table):
        catalog = Catalog()
        catalog.register("t", products_table)
        stats = catalog.stats("t")
        assert stats.row_count == products_table.num_rows
        assert catalog.stats("t") is stats
        catalog.register("t", kb_table, replace=True)
        assert catalog.stats("t").row_count == kb_table.num_rows
