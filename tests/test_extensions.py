"""Tests for the extension features: quantization, top-k semantic join,
transfer planning, generative source."""

import numpy as np
import pytest

from repro.errors import IndexError_, SourceError
from repro.hardware.topology import standard_topologies
from repro.hardware.transfer import (
    DEFAULT_CODECS,
    RAW,
    TransferPlanner,
)
from repro.polystore.generative import GenerativeModelSource
from repro.relational.logical import ScanNode, SemanticJoinNode
from repro.relational.physical import execute_plan
from repro.semantic.join import join_blocked
from repro.semantic.topk import join_topk
from repro.vector.quantization import (
    join_quantized,
    quantize_rows,
    quantized_similarity,
)


class TestQuantization:
    def test_round_trip_error_small(self, model):
        matrix = model.embed_batch(["dog", "cat", "boots", "sedan"])
        quantized = quantize_rows(matrix, assume_normalized=True)
        recovered = quantized.dequantize()
        assert np.abs(recovered - matrix).max() < 0.01

    def test_memory_4x(self, model):
        matrix = model.embed_batch(["dog", "cat", "boots", "sedan"])
        quantized = quantize_rows(matrix)
        assert quantized.nbytes < matrix.nbytes / 3.5

    def test_similarity_close_to_exact(self, model):
        words = ["dog", "canine", "boots", "sneakers", "sedan", "apple"]
        matrix = model.embed_batch(words)
        quantized = quantize_rows(matrix, assume_normalized=True)
        exact = matrix @ matrix.T
        approx = quantized_similarity(quantized, quantized)
        assert np.abs(exact - approx).max() < 0.02

    def test_join_quantized_recall(self, model):
        left = model.embed_batch(["sneakers", "parka", "sedan"])
        right = model.embed_batch(["shoes", "jacket", "car", "apple"])
        exact = set(zip(*join_blocked(left, right, 0.9)[:2]))
        ql, qr = quantize_rows(left, True), quantize_rows(right, True)
        approx = set(zip(*join_quantized(ql, qr, 0.9)[:2]))
        assert exact <= approx  # guard band guarantees no false negatives

    def test_rejects_1d(self):
        with pytest.raises(IndexError_):
            quantize_rows(np.ones(4))

    def test_zero_rows_safe(self):
        matrix = np.zeros((2, 4), dtype=np.float32)
        quantized = quantize_rows(matrix, assume_normalized=True)
        assert np.all(quantized.codes == 0)


class TestTopKJoin:
    def test_exact_topk(self, model):
        left = model.embed_batch(["dog"])
        right = model.embed_batch(["canine", "puppy", "boots", "sedan"])
        li, ri, scores = join_topk(left, right, k=2)
        assert li.tolist() == [0, 0]
        assert set(ri.tolist()) == {0, 1}  # the two dog synonyms
        assert np.all(np.diff(scores) <= 0)

    def test_min_score_floor(self, model):
        left = model.embed_batch(["dog"])
        right = model.embed_batch(["canine", "boots", "sedan"])
        li, ri, _ = join_topk(left, right, k=3, min_score=0.9)
        assert ri.tolist() == [0]  # only canine clears the floor

    def test_topk_semantic_join_node(self, context, products_table,
                                     kb_table):
        scan_p = ScanNode("products", products_table.schema, qualifier="p")
        scan_k = ScanNode("kb", kb_table.schema, qualifier="k")
        plan = SemanticJoinNode(scan_p, scan_k, "p.ptype", "k.label",
                                "wiki-ft-100", 0.0, top_k=1)
        result = execute_plan(plan, context)
        # every product matches exactly its single best label
        by_product = {}
        for row in result.to_rows():
            by_product.setdefault(row["p.pid"], []).append(row["k.label"])
        assert all(len(labels) == 1 for labels in by_product.values())
        assert by_product[1] == ["shoes"]     # sneakers -> shoes
        assert by_product[3] == ["car"]       # sedan -> car

    def test_topk_via_builder(self, products_table, kb_table):
        from repro.engine.session import Session

        session = Session(seed=7)
        session.register_table("products", products_table)
        session.register_table("kb", kb_table)
        result = (session.table("products", alias="p")
                  .semantic_join(session.table("kb", alias="k"),
                                 "p.ptype", "k.label", threshold=0.0,
                                 top_k=2)
                  .execute())
        counts = {}
        for row in result.to_rows():
            counts[row["p.pid"]] = counts.get(row["p.pid"], 0) + 1
        assert all(count == 2 for count in counts.values())

    def test_top_k_validation(self, products_table, kb_table):
        from repro.errors import PlanError

        scan_p = ScanNode("products", products_table.schema, qualifier="p")
        scan_k = ScanNode("kb", kb_table.schema, qualifier="k")
        with pytest.raises(PlanError):
            SemanticJoinNode(scan_p, scan_k, "a", "b", "m", 0.5, top_k=0)


class TestTransferPlanner:
    @pytest.fixture()
    def planner(self):
        """Ethernet between nodes, NVLink to the local GPU (no bypass)."""
        from repro.hardware.devices import a100_gpu, ethernet_10g, nvlink, \
            xeon_cpu
        from repro.hardware.topology import HardwareTopology

        topology = HardwareTopology(
            [xeon_cpu("cpu0"), xeon_cpu("cpu1"), a100_gpu("gpu0")],
            [ethernet_10g("cpu0", "cpu1"), nvlink("cpu0", "gpu0")],
        )
        return TransferPlanner(topology)

    def test_small_transfer_uncompressed(self, planner):
        plan = planner.plan("cpu0", "cpu1", 1_000)
        assert plan.codec.name == "raw"

    def test_huge_transfer_over_slow_link_compressed(self, planner):
        plan = planner.plan("cpu0", "cpu1", 50e9)  # 10 GbE link
        assert plan.compressed

    def test_nvlink_never_compresses(self, planner):
        # cpu0-gpu0 NVLink at 250 GB/s beats every codec's compress rate
        crossover = planner.crossover_bytes("cpu0", "gpu0")
        assert crossover >= 1e12

    def test_crossover_monotone(self, planner):
        crossover = planner.crossover_bytes("cpu0", "cpu1")
        assert 1.0 < crossover < 1e12
        below = planner.plan("cpu0", "cpu1", crossover / 4)
        above = planner.plan("cpu0", "cpu1", crossover * 4)
        assert not below.compressed
        assert above.compressed

    def test_plan_time_beats_raw_when_compressed(self, planner):
        n_bytes = 50e9
        plan = planner.plan("cpu0", "cpu1", n_bytes)
        raw_planner = TransferPlanner(planner.topology, codecs=(RAW,))
        raw_plan = raw_planner.plan("cpu0", "cpu1", n_bytes)
        assert plan.seconds < raw_plan.seconds

    def test_codecs_well_formed(self):
        for codec in DEFAULT_CODECS:
            assert codec.ratio >= 1.0


class TestGenerativeSource:
    def test_generates_grounded_mentions(self, thesaurus):
        source = GenerativeModelSource(seed=73)
        table = source.generate("dog", 20)
        assert table.num_rows == 20
        dog_forms = {f for f in thesaurus["dog"].forms}
        for row in table.to_rows():
            assert row["mention"] in dog_forms
            assert row["mention"] in row["text"]
            assert row["true_concept"] == "dog"

    def test_hypernym_prompt_draws_hyponyms(self, thesaurus):
        source = GenerativeModelSource(seed=73)
        table = source.generate("clothes", 40)
        concepts = set(table.column("true_concept").tolist())
        assert concepts <= set(thesaurus["clothes"].children)
        assert len(concepts) >= 2

    def test_accounting(self):
        source = GenerativeModelSource(seed=73, seconds_per_sample=0.5)
        source.generate("dog", 4)
        assert source.samples_generated == 4
        assert source.simulated_seconds == pytest.approx(2.0)

    def test_deterministic(self):
        a = GenerativeModelSource(seed=73).generate("cat", 5)
        b = GenerativeModelSource(seed=73).generate("cat", 5)
        assert a.column("text").tolist() == b.column("text").tolist()

    def test_unknown_prompt(self):
        with pytest.raises(SourceError):
            GenerativeModelSource(seed=73).generate("blorp", 3)

    def test_samples_table_accumulates(self):
        source = GenerativeModelSource(seed=73)
        source.generate("dog", 3)
        source.generate("cat", 2)
        assert source.table("samples").num_rows == 5

    def test_federates_into_engine(self, thesaurus):
        from repro.core import ContextRichEngine

        engine = ContextRichEngine(seed=7)
        source = GenerativeModelSource(seed=73)
        source.generate("clothes", 30)
        engine.register_source(source)
        # generated mentions join with a clean table only semantically
        engine.register_table("categories", _category_table())
        result = engine.sql("""
            SELECT g.mention, c.category, similarity
            FROM genmodel.samples AS g
            SEMANTIC JOIN categories AS c
                ON g.mention ~ c.label THRESHOLD 0.7
        """)
        assert result.num_rows > 0
        assert all(row["c.category"] == "clothes"
                   for row in result.to_rows())


def _category_table():
    from repro.storage.table import Table

    return Table.from_dict({
        "label": ["clothes"],
        "category": ["clothes"],
    })
