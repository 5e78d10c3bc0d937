"""Fused compiled pipelines: bit-identical parity, JIT support rules,
cost gating, kernel caching (incl. the single-flight miss storm)."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernel_cache import KernelCache
from repro.engine.session import Session
from repro.errors import ExpressionError
from repro.hardware.jit import (
    NUMBA_AVAILABLE,
    PipelineSpec,
    compile_pipeline,
    compile_predicate,
    jit_supported,
)
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.fusion import PipelineFusion
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
from repro.relational.logical import (
    FilterNode,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
)
from repro.relational.physical import (
    ExecutionContext,
    FusedPipelineOp,
    execute_plan,
)
from repro.relational.pipeline import PipelineNode
from repro.storage.catalog import Catalog
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.storage.types import DataType


def _catalog_with(table: Table, name: str = "t") -> Catalog:
    catalog = Catalog()
    catalog.register(name, table)
    return catalog


def run_interpreted_and_fused(plan: LogicalPlan, catalog: Catalog,
                              batch_size: int = 3):
    """Execute ``plan`` as-is and through forced fusion; return both
    results plus the fused plan (small batches exercise streaming)."""
    interpreted = execute_plan(
        plan, ExecutionContext(catalog=catalog, batch_size=batch_size))
    fusion = PipelineFusion(CostModel(CardinalityEstimator(catalog)),
                            mode="on")
    fused_plan = fusion.run(plan)
    fused = execute_plan(
        fused_plan,
        ExecutionContext(catalog=catalog, batch_size=batch_size))
    return interpreted, fused, fused_plan


def assert_bit_identical(expected: Table, actual: Table) -> None:
    assert actual.schema.names == expected.schema.names
    for name in expected.schema.names:
        want, got = expected.column(name), actual.column(name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want)   # exact; NaN == NaN


# ---------------------------------------------------------------------------
# JIT support rules: one regression test per expression node type
# ---------------------------------------------------------------------------
class TestJitSupport:
    """`hardware/jit` must *reject* what it cannot soundly compile —
    never emit broken source — and compile everything else to parity."""

    @pytest.fixture()
    def batch(self):
        return Table.from_dict({
            "a": [1, 2, 3, 4], "b": [0.5, 1.5, 2.5, 3.5],
            "s": ["x", "y", "x", "z"], "flag": [True, False, True, True],
        })

    def _parity(self, predicate: Expr, batch: Table) -> None:
        assert jit_supported(predicate)
        kernel = compile_predicate(predicate)
        expected = np.asarray(predicate.evaluate(batch), dtype=bool)
        np.testing.assert_array_equal(kernel(batch), expected)

    def test_column_ref(self, batch):
        self._parity(ColumnRef("flag"), batch)

    def test_literal(self, batch):
        self._parity(Compare(">", ColumnRef("a"), Literal(2)), batch)

    def test_literal_numpy_scalar_binds_as_constant(self, batch):
        # np scalar reprs like np.float64(3.5) would break repr-based
        # codegen; constants must be namespace-bound instead
        predicate = Compare(">=", ColumnRef("b"), Literal(np.float64(1.5)))
        kernel = compile_predicate(predicate)
        assert "np.float64" not in kernel.source
        self._parity(predicate, batch)

    def test_compare_all_operators(self, batch):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            self._parity(Compare(op, ColumnRef("a"), Literal(2)), batch)

    def test_and(self, batch):
        self._parity(And(Compare(">", ColumnRef("a"), Literal(1)),
                         Compare("<", ColumnRef("b"), Literal(3.0))), batch)

    def test_or(self, batch):
        self._parity(Or(Compare("=", ColumnRef("s"), Literal("x")),
                        Compare(">", ColumnRef("a"), Literal(3))), batch)

    def test_not(self, batch):
        self._parity(Not(Compare("=", ColumnRef("s"), Literal("y"))), batch)

    def test_arith(self, batch):
        self._parity(Compare(">", Arith("*", ColumnRef("a"), Literal(2)),
                             ColumnRef("b")), batch)

    def test_in_list(self, batch):
        self._parity(InList(ColumnRef("s"), ["x", "z"]), batch)

    def test_func_rejected_not_broken_source(self, batch):
        predicate = Compare("=", Func("upper", (ColumnRef("s"),)),
                            Literal("X"))
        assert not jit_supported(predicate)
        with pytest.raises(ExpressionError, match="upper"):
            compile_predicate(predicate)

    def test_func_rejected_when_nested(self):
        nested = And(Compare(">", ColumnRef("a"), Literal(0)),
                     Compare(">", Func("abs", (ColumnRef("a"),)),
                             Literal(1)))
        assert not jit_supported(nested)
        with pytest.raises(ExpressionError):
            compile_predicate(nested)

    def test_unknown_node_rejected(self):
        class Opaque(Expr):
            def children(self):
                return ()

            def columns(self):
                return set()

        assert not jit_supported(Opaque())
        with pytest.raises(ExpressionError):
            compile_predicate(Opaque())

    def test_func_stage_splits_fusion(self, batch):
        """A UDF filter mid-chain is a barrier: the chains on either
        side fuse separately and results stay identical."""
        catalog = _catalog_with(batch)
        scan = ScanNode("t", batch.schema)
        plan = FilterNode(
            FilterNode(FilterNode(scan,
                                  Compare(">", ColumnRef("a"), Literal(0))),
                       Compare("=", Func("lower", (ColumnRef("s"),)),
                               Literal("x"))),
            Compare("<", ColumnRef("b"), Literal(3.0)))
        interpreted, fused, fused_plan = run_interpreted_and_fused(
            plan, catalog)
        assert isinstance(fused_plan, PipelineNode)      # outer chain
        assert isinstance(fused_plan.source, FilterNode)  # the UDF stays
        assert isinstance(fused_plan.source.child, PipelineNode)
        assert_bit_identical(interpreted, fused)


# ---------------------------------------------------------------------------
# Compiled-vs-interpreted parity (property-based)
# ---------------------------------------------------------------------------
_SCHEMA = Schema([Field("i", DataType.INT64), Field("f", DataType.FLOAT64),
                  Field("s", DataType.STRING)])

_NUMERIC = ("i", "f")
_CMP = ("=", "!=", "<", "<=", ">", ">=")


@st.composite
def _tables(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    ints = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    floats = draw(st.lists(
        st.floats(-2.0, 2.0, allow_nan=False) | st.just(float("nan")),
        min_size=n, max_size=n))
    strings = draw(st.lists(
        st.sampled_from(["aa", "bb", "cc", None]), min_size=n, max_size=n))
    return Table.from_dict({"i": ints, "f": floats, "s": strings}, _SCHEMA)


@st.composite
def _predicates(draw, live):
    """A boolean expression over the live columns (depth <= 2)."""
    numeric = [c for c in live if live[c] in _NUMERIC]
    strings = [c for c in live if live[c] == "s"]

    def leaf():
        choices = []
        if numeric:
            column = draw(st.sampled_from(sorted(numeric)))
            value = draw(st.integers(-3, 3)) if live[column] == "i" \
                else draw(st.floats(-2.0, 2.0, allow_nan=False))
            choices.append(Compare(draw(st.sampled_from(_CMP)),
                                   ColumnRef(column), Literal(value)))
        if strings:
            column = draw(st.sampled_from(sorted(strings)))
            if draw(st.booleans()):
                choices.append(Compare("=", ColumnRef(column),
                                       Literal(draw(st.sampled_from(
                                           ["aa", "bb", "zz"])))))
            else:
                values = draw(st.lists(st.sampled_from(["aa", "bb", "cc"]),
                                       min_size=1, max_size=3))
                choices.append(InList(ColumnRef(column), values))
        return draw(st.sampled_from(choices))

    predicate = leaf()
    for _ in range(draw(st.integers(0, 2))):
        combiner = draw(st.sampled_from(["and", "or", "not"]))
        if combiner == "and":
            predicate = And(predicate, leaf())
        elif combiner == "or":
            predicate = Or(predicate, leaf())
        else:
            predicate = Not(predicate)
    return predicate


@st.composite
def _chains(draw):
    """A random Filter/Project/Limit chain over the scan, tracked with
    the live-column kinds so every expression stays schema-valid."""
    table = draw(_tables())
    plan: LogicalPlan = ScanNode("t", table.schema)
    live = {"i": "i", "f": "f", "s": "s"}
    alias = iter(f"p{k}" for k in range(100))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["filter", "project", "limit"]))
        if kind == "filter":
            plan = FilterNode(plan, draw(_predicates(live)))
        elif kind == "limit":
            plan = LimitNode(plan, draw(st.integers(0, 12)))
        else:
            items, new_live = [], {}
            for column in sorted(live):
                action = draw(st.sampled_from(
                    ["keep", "rename", "drop", "compute"]))
                if action == "drop" and len(live) > 1 and new_live:
                    continue
                name = column if action == "keep" else next(alias)
                if action == "compute" and live[column] in _NUMERIC:
                    expr = Arith(draw(st.sampled_from(["+", "-", "*"])),
                                 ColumnRef(column),
                                 Literal(draw(st.integers(-2, 3))))
                    new_live[name] = "f" if live[column] == "f" else "i"
                else:
                    expr = ColumnRef(column)
                    new_live[name] = live[column]
                items.append((expr, name))
            if draw(st.booleans()):
                value = draw(st.integers(-5, 5))
                name = next(alias)
                items.append((Literal(value), name))
                new_live[name] = "i"
            plan = ProjectNode(plan, items)
            live = new_live
    return table, plan


class TestFusedParity:
    @settings(max_examples=120, deadline=None)
    @given(_chains())
    def test_random_chain_bit_identical(self, case):
        table, plan = case
        interpreted, fused, fused_plan = run_interpreted_and_fused(
            plan, _catalog_with(table))
        if any(isinstance(node, (FilterNode, ProjectNode))
               for node in plan.walk()):
            # limit-only chains have nothing to compile and stay as-is
            assert any(isinstance(node, PipelineNode)
                       for node in fused_plan.walk())
        assert_bit_identical(interpreted, fused)

    def test_empty_table(self):
        table = Table.from_dict({"i": [], "f": [], "s": []}, _SCHEMA)
        plan = ProjectNode(
            FilterNode(ScanNode("t", table.schema),
                       Compare(">", ColumnRef("i"), Literal(0))),
            [(ColumnRef("i"), "i"), (Literal(7), "k")])
        interpreted, fused, _ = run_interpreted_and_fused(
            plan, _catalog_with(table))
        assert interpreted.num_rows == 0
        assert_bit_identical(interpreted, fused)

    def test_filter_rejecting_every_row(self):
        table = Table.from_dict({"i": [1, 2, 3], "f": [0.1, 0.2, 0.3],
                                 "s": ["aa", None, "cc"]}, _SCHEMA)
        plan = FilterNode(ScanNode("t", table.schema),
                          Compare(">", ColumnRef("i"), Literal(99)))
        interpreted, fused, _ = run_interpreted_and_fused(
            plan, _catalog_with(table))
        assert interpreted.num_rows == 0
        assert_bit_identical(interpreted, fused)

    def test_nulls_flow_through_unchanged(self):
        table = Table.from_dict(
            {"i": [1, 2, 3, 4], "f": [float("nan"), 1.0, 2.0, float("nan")],
             "s": [None, "aa", None, "bb"]}, _SCHEMA)
        plan = ProjectNode(
            FilterNode(ScanNode("t", table.schema),
                       Compare(">", ColumnRef("i"), Literal(1))),
            [(ColumnRef("s"), "s"), (ColumnRef("f"), "f")])
        interpreted, fused, _ = run_interpreted_and_fused(
            plan, _catalog_with(table))
        assert None in interpreted.column("s").tolist()
        assert_bit_identical(interpreted, fused)

    def test_limit_below_filter_is_not_fused_past(self):
        """filter(limit(x)) must keep the limit outside the fused chain
        — slicing the fused output would drop the wrong rows."""
        table = Table.from_dict({"i": [5, 1, 5, 1, 5, 1], "f": [0.0] * 6,
                                 "s": ["aa"] * 6}, _SCHEMA)
        plan = FilterNode(LimitNode(ScanNode("t", table.schema), 3),
                          Compare(">", ColumnRef("i"), Literal(2)))
        interpreted, fused, fused_plan = run_interpreted_and_fused(
            plan, _catalog_with(table))
        assert interpreted.column("i").tolist() == [5, 5]
        assert isinstance(fused_plan, PipelineNode)
        assert fused_plan.source is not None           # limit is outside
        assert_bit_identical(interpreted, fused)

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_numba_backend_bit_identical(self):
        spec = _numeric_spec()
        python = compile_pipeline(spec, backend="python")
        numba_kernel = compile_pipeline(spec, backend="numba")
        assert numba_kernel.backend == "numba"
        batch = Table.from_dict({"a": list(range(100)),
                                 "b": [v * 0.5 for v in range(100)]})
        for want, got in zip(python(batch), numba_kernel(batch)):
            assert want.dtype == got.dtype
            np.testing.assert_array_equal(want, got)

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba installed")
    def test_numba_request_falls_back_to_python(self):
        kernel = compile_pipeline(_numeric_spec(), backend="numba")
        assert kernel.backend == "python"
        batch = Table.from_dict({"a": [1, 2, 3], "b": [1.0, 2.0, 3.0]})
        assert kernel(batch)[0].tolist() == [4, 6]


def _numeric_spec() -> PipelineSpec:
    predicate = Compare(">", ColumnRef("a"), Literal(1))
    return PipelineSpec(
        input_columns=("a", "b"),
        ops=(("filter", (predicate,)),
             ("project", ((Arith("*", ColumnRef("a"), Literal(2)), "a2"),))),
        output=(("a2", False),))


# ---------------------------------------------------------------------------
# Cost gating and the session/server knob
# ---------------------------------------------------------------------------
def _wide_table(rows: int) -> Table:
    return Table.from_dict({
        "a": list(range(rows)),
        "b": [v * 0.25 for v in range(rows)],
    })


class TestCostGating:
    def test_ten_row_one_shot_stays_interpreted(self):
        session = Session(load_default_model=False)
        session.register_table("tiny", _wide_table(10))
        result = session.sql("SELECT a FROM tiny WHERE a > 3")
        assert result.num_rows == 6
        assert session.last_profile.fused_pipelines == 0
        assert session.state.kernel_cache.stats()["compiles"] == 0

    def test_large_scan_fuses_under_auto(self):
        session = Session(load_default_model=False)
        session.register_table("big", _wide_table(50_000))
        session.sql("SELECT a, b FROM big WHERE a > 25000")
        assert session.last_profile.fused_pipelines == 1
        assert session.last_profile.kernel_compiles == 1

    def test_should_fuse_charges_compile_cost(self):
        catalog = Catalog()
        catalog.register("tiny", _wide_table(10))
        catalog.register("big", _wide_table(50_000))
        model = CostModel(CardinalityEstimator(catalog))
        for name, expected in (("tiny", False), ("big", True)):
            scan = ScanNode(name, catalog.get(name).schema)
            chain = [FilterNode(scan,
                                Compare(">", ColumnRef("a"), Literal(0)))]
            assert model.should_fuse(chain) is expected

    def test_knob_off_never_fuses(self):
        session = Session(load_default_model=False,
                          compiled_pipelines="off")
        session.register_table("big", _wide_table(50_000))
        session.sql("SELECT a FROM big WHERE a > 10")
        assert session.last_profile.fused_pipelines == 0
        planned = session.plan_for("SELECT a FROM big WHERE a > 10")
        assert not any(isinstance(node, PipelineNode)
                       for node in planned.plan.walk())

    def test_knob_on_fuses_tiny_queries(self):
        session = Session(load_default_model=False, compiled_pipelines="on")
        session.register_table("tiny", _wide_table(10))
        result = session.sql("SELECT a FROM tiny WHERE a > 3")
        assert result.column("a").tolist() == [4, 5, 6, 7, 8, 9]
        assert session.last_profile.fused_pipelines == 1

    def test_bad_knob_value_rejected(self):
        with pytest.raises(ValueError, match="compiled_pipelines"):
            Session(load_default_model=False,
                    compiled_pipelines="sometimes")


class TestEstimatesSeeThroughFusion:
    """Regression: ``LogicalPlan.walk()`` did not descend into a
    pipeline's stages, so the estimator found no scan — hence no column
    statistics — above a fused input: a join over fused scans fell back
    to default NDVs and the statement's ``estimated_cost`` (what the
    scheduler picks a lane from) moved by orders of magnitude with the
    ``compiled_pipelines`` knob."""

    SQL = ("SELECT u.country, COUNT(*) AS n, SUM(t.quantity) AS units "
           "FROM transactions AS t JOIN users AS u ON t.uid = u.uid "
           "WHERE u.age > 30 AND t.quantity >= 2 "
           "GROUP BY u.country ORDER BY u.country")

    def _planned(self, mode: str):
        session = Session(load_default_model=False, compiled_pipelines=mode)
        session.register_table("users", Table.from_dict({
            "uid": list(range(200)),
            "age": [18 + i % 50 for i in range(200)],
            "country": [f"c{i % 7}" for i in range(200)]}))
        session.register_table("transactions", Table.from_dict({
            "uid": [i % 200 for i in range(20_000)],
            "quantity": [1 + i % 4 for i in range(20_000)]}))
        optimizer = session._optimizer()
        plan = optimizer.optimize(session.sql_plan(self.SQL))
        return plan, optimizer

    def test_estimates_and_cost_agree_across_modes(self):
        rows, costs = {}, {}
        for mode in ("off", "auto", "on"):
            plan, optimizer = self._planned(mode)
            estimator, cost_model = optimizer.estimator, optimizer.cost_model
            rows[mode] = {node.label(): estimator.estimate(node)
                          for node in plan.walk()}
            # the only legitimate cost difference: a fused Filter/Project
            # chain runs at ``fused_row_fraction`` of its interpreted cost
            saved = sum(cost_model.interpreted_chain_cost(node.stages)
                        * (1.0 - cost_model.params.fused_row_fraction)
                        for node in plan.walk()
                        if isinstance(node, PipelineNode))
            costs[mode] = optimizer.last_report.estimated_cost + saved
            if mode == "on":
                assert saved > 0.0
                assert estimator.column_ndv("t.uid", plan) == 200.0
        shared = set(rows["off"]) & set(rows["auto"]) & set(rows["on"])
        assert any(label.startswith("Join[") for label in shared)
        for label in shared:
            assert rows["off"][label] == rows["auto"][label] \
                == rows["on"][label], label
        assert costs["auto"] == pytest.approx(costs["off"])
        assert costs["on"] == pytest.approx(costs["off"])


# ---------------------------------------------------------------------------
# Kernel cache: repeats, invalidation semantics, telemetry surfaces
# ---------------------------------------------------------------------------
class TestKernelCache:
    def _session(self) -> Session:
        # result cache off so repeats re-execute (and hit the kernel
        # cache) instead of returning the snapshot
        session = Session(load_default_model=False, result_cache_bytes=0,
                          compiled_pipelines="on")
        session.register_table("t", _wide_table(100))
        return session

    def test_repeat_statement_compiles_once(self):
        session = self._session()
        query = "SELECT a, b FROM t WHERE a > 10"
        session.sql(query)
        assert session.last_profile.kernel_compiles == 1
        session.sql(query)
        assert session.last_profile.kernel_compiles == 0
        assert session.last_profile.kernel_cache_hits == 1
        stats = session.state.kernel_cache.stats()
        assert stats["compiles"] == 1
        assert stats["hits"] == 1

    def test_kernel_survives_catalog_version_bump(self):
        """Kernels are pure functions of plan structure: replacing a
        table's *data* (same schema) retires the cached plan but not the
        kernel — the re-optimized plan re-hits it (docs/serving.md)."""
        session = self._session()
        query = "SELECT a FROM t WHERE a > 10"
        session.sql(query)
        session.register_table("t", _wide_table(200), replace=True)
        result = session.sql(query)
        assert result.num_rows == 189
        stats = session.state.kernel_cache.stats()
        assert stats["compiles"] == 1          # no recompile
        assert stats["hits"] == 1

    def test_explain_analyze_shows_compiled_pipeline(self):
        session = self._session()
        text = session.explain_analyze("SELECT a FROM t WHERE a > 10")
        assert "Pipeline[" in text
        assert "compiled backend=" in text

    def test_server_metrics_expose_kernels(self):
        from repro.server import EngineServer

        with EngineServer(load_default_model=False,
                          compiled_pipelines="on") as server:
            server.register_table("t", _wide_table(100))
            server.sql("SELECT a FROM t WHERE a > 10")
            kernels = server.metrics()["kernels"]
        assert kernels["compiles"] == 1
        assert kernels["entries"] == 1

    def test_capacity_eviction(self):
        cache = KernelCache(capacity=1)
        spec_a, spec_b = _numeric_spec(), PipelineSpec(
            input_columns=("a", "b"),
            ops=(("filter", (Compare("<", ColumnRef("a"), Literal(5)),)),),
            output=(("a", False), ("b", False)))
        cache.get_or_compile("fp-a", spec_a)
        cache.get_or_compile("fp-b", spec_b)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["evictions"] == 1


@pytest.mark.concurrency
class TestKernelCacheRaces:
    def test_miss_storm_single_flight(self):
        """N threads missing on one fingerprint must produce exactly one
        compile; everyone else coalesces onto it."""
        cache = KernelCache()
        spec = _numeric_spec()
        threads = 8
        barrier = threading.Barrier(threads)
        kernels, errors = [], []

        def worker():
            try:
                barrier.wait()
                kernel, _ = cache.get_or_compile("storm", spec)
                kernels.append(kernel)
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors
        assert len(kernels) == threads
        stats = cache.stats()
        assert stats["compiles"] == 1
        assert len({id(kernel) for kernel in kernels}) == 1
        assert stats["hits"] + stats["misses"] == threads

    def test_concurrent_distinct_keys_all_compile(self):
        cache = KernelCache()
        spec = _numeric_spec()
        keys = [f"fp{i}" for i in range(6)]
        barrier = threading.Barrier(len(keys))

        def worker(key):
            barrier.wait()
            for _ in range(3):
                cache.get_or_compile(key, spec)

        pool = [threading.Thread(target=worker, args=(key,))
                for key in keys]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        stats = cache.stats()
        assert stats["compiles"] == len(keys)
        assert stats["hits"] == 2 * len(keys)
