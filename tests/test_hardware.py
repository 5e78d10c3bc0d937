"""Tests for the hardware layer: devices, topology, placement, simulator."""

import pytest

from repro.errors import HardwareError
from repro.hardware.devices import (
    DeviceKind,
    a100_gpu,
    infiniband,
    pcie4,
    tpu_v4,
    xeon_cpu,
)
from repro.hardware.placement import (
    PlacementOptimizer,
    estimate_row_bytes,
)
from repro.hardware.simulator import ExecutionSimulator
from repro.hardware.topology import HardwareTopology, standard_topologies
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.relational.logical import ScanNode, SemanticJoinNode


@pytest.fixture()
def topology():
    return standard_topologies()["cpu+2gpu+tpu"]


@pytest.fixture()
def model_heavy_plan(catalog):
    products = ScanNode("products", catalog.get("products").schema,
                        qualifier="p")
    kb = ScanNode("kb", catalog.get("kb").schema, qualifier="k")
    return SemanticJoinNode(products, kb, "p.ptype", "k.label",
                            "wiki-ft-100", 0.9)


@pytest.fixture()
def cost_model(catalog, registry):
    return CostModel(CardinalityEstimator(catalog, registry))


class TestDevices:
    def test_execution_seconds(self):
        cpu = xeon_cpu()
        assert cpu.execution_seconds(2.0e8, 0.0) == pytest.approx(1.0)

    def test_gpu_faster_on_model_work(self):
        cpu = xeon_cpu()
        gpu = a100_gpu()
        model_cost = 1.0e9
        assert gpu.execution_seconds(0, model_cost) < \
            cpu.execution_seconds(0, model_cost)

    def test_tpu_slow_relational(self):
        tpu = tpu_v4()
        cpu = xeon_cpu()
        assert tpu.execution_seconds(1e9, 0) > cpu.execution_seconds(1e9, 0)

    def test_storage_cannot_run_models(self):
        from repro.hardware.devices import nvme

        assert nvme().execution_seconds(0, 100.0) == float("inf")

    def test_link_transfer(self):
        link = pcie4("a", "b")
        one_gb = 1024**3
        seconds = link.transfer_seconds(one_gb)
        assert 0.02 < seconds < 0.1

    def test_device_kinds(self):
        assert xeon_cpu().kind == DeviceKind.CPU
        assert tpu_v4().kind == DeviceKind.TPU


class TestTopology:
    def test_standard_topologies_exist(self):
        topologies = standard_topologies()
        assert set(topologies) == {"cpu-only", "cpu+gpu", "cpu+2gpu+tpu"}

    def test_transfer_same_device_free(self, topology):
        assert topology.transfer_seconds("cpu0", "cpu0", 1e9) == 0.0

    def test_transfer_multi_hop(self, topology):
        direct = topology.transfer_seconds("cpu0", "gpu0", 1e9)
        two_hop = topology.transfer_seconds("cpu1", "gpu0", 1e9)
        assert two_hop > 0
        assert direct < two_hop or direct > 0

    def test_disconnected_rejected(self):
        with pytest.raises(HardwareError):
            HardwareTopology([xeon_cpu("a"), xeon_cpu("b")], [])

    def test_duplicate_device_rejected(self):
        with pytest.raises(HardwareError):
            HardwareTopology([xeon_cpu("a"), xeon_cpu("a")], [])

    def test_unknown_link_endpoint(self):
        with pytest.raises(HardwareError):
            HardwareTopology([xeon_cpu("a")], [infiniband("a", "ghost")])

    def test_unknown_device_lookup(self, topology):
        with pytest.raises(HardwareError):
            topology.device("quantum0")


class TestPlacement:
    def test_row_bytes(self, products_table):
        width = estimate_row_bytes(products_table.schema)
        assert width == 8 + 24 + 8 + 24

    def test_optimized_beats_cpu_only(self, topology, model_heavy_plan,
                                      cost_model):
        optimizer = PlacementOptimizer(topology, cost_model)
        simulator = ExecutionSimulator(topology, cost_model)
        best = optimizer.place(model_heavy_plan)
        cpu_only = optimizer.place_all_on(model_heavy_plan, "cpu0")
        best_time = simulator.simulate(model_heavy_plan, best).makespan
        cpu_time = simulator.simulate(model_heavy_plan, cpu_only).makespan
        assert best_time <= cpu_time * 1.05

    def test_placement_covers_every_node(self, topology, model_heavy_plan,
                                         cost_model):
        placement = PlacementOptimizer(topology, cost_model).place(
            model_heavy_plan)
        for node in model_heavy_plan.walk():
            assert id(node) in placement.assignment

    def test_model_ops_policy(self, topology, model_heavy_plan, cost_model):
        optimizer = PlacementOptimizer(topology, cost_model)
        placement = optimizer.place_model_ops_on(model_heavy_plan, "gpu0")
        assert placement.device_of(model_heavy_plan) == "gpu0"
        for child in model_heavy_plan.children:
            assert placement.device_of(child) == "cpu0"

    def test_describe_renders(self, topology, model_heavy_plan, cost_model):
        placement = PlacementOptimizer(topology, cost_model).place(
            model_heavy_plan)
        text = placement.describe(model_heavy_plan)
        assert "@" in text


class TestSimulator:
    def test_makespan_at_least_busy_time(self, topology, model_heavy_plan,
                                         cost_model):
        optimizer = PlacementOptimizer(topology, cost_model)
        simulator = ExecutionSimulator(topology, cost_model)
        placement = optimizer.place(model_heavy_plan)
        result = simulator.simulate(model_heavy_plan, placement)
        assert result.makespan > 0
        for device, busy in result.device_busy.items():
            assert busy <= result.makespan + 1e-9

    def test_timelines_cover_all_operators(self, topology, model_heavy_plan,
                                           cost_model):
        optimizer = PlacementOptimizer(topology, cost_model)
        simulator = ExecutionSimulator(topology, cost_model)
        placement = optimizer.place_all_on(model_heavy_plan, "cpu0")
        result = simulator.simulate(model_heavy_plan, placement)
        assert len(result.timelines) == len(list(model_heavy_plan.walk()))

    def test_children_finish_before_parent_starts(self, topology,
                                                  model_heavy_plan,
                                                  cost_model):
        optimizer = PlacementOptimizer(topology, cost_model)
        simulator = ExecutionSimulator(topology, cost_model)
        placement = optimizer.place(model_heavy_plan)
        result = simulator.simulate(model_heavy_plan, placement)
        by_label = {}
        for timeline in result.timelines:
            by_label.setdefault(timeline.node_label, timeline)
        root = by_label[model_heavy_plan.label()]
        for child in model_heavy_plan.children:
            assert by_label[child.label()].finish <= root.start + 1e-9

    def test_utilization_fractions(self, topology, model_heavy_plan,
                                   cost_model):
        optimizer = PlacementOptimizer(topology, cost_model)
        simulator = ExecutionSimulator(topology, cost_model)
        placement = optimizer.place(model_heavy_plan)
        result = simulator.simulate(model_heavy_plan, placement)
        for fraction in result.utilization().values():
            assert 0.0 <= fraction <= 1.0

    def test_accelerator_pays_model_shipping(self, topology,
                                             model_heavy_plan, cost_model):
        optimizer = PlacementOptimizer(topology, cost_model)
        simulator = ExecutionSimulator(topology, cost_model)
        on_gpu = optimizer.place_model_ops_on(model_heavy_plan, "gpu0")
        result = simulator.simulate(model_heavy_plan, on_gpu)
        assert result.bytes_transferred > 0
