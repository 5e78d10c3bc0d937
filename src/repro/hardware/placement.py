"""Cost-based operator placement over a hardware topology.

Tree dynamic programming: for every plan node and candidate device, the
best completion time is the node's execution time on that device plus, for
each child, the cheapest (child completion on its device + transfer of the
child's output + model-state shipping when a model operator first lands on
an accelerator).  Optimal for tree-shaped plans when device contention is
ignored; the :mod:`simulator` then evaluates the chosen placement with
contention to produce the reported makespans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.topology import HardwareTopology
from repro.optimizer.cost import CostModel
from repro.relational.logical import LogicalPlan
from repro.storage.schema import Schema
from repro.storage.types import DataType

#: Estimated bytes per value for row-size estimates.
_TYPE_BYTES = {
    DataType.INT64: 8,
    DataType.FLOAT64: 8,
    DataType.BOOL: 1,
    DataType.DATE: 8,
    DataType.STRING: 24,
}

#: Bytes of model state a model operator ships to an accelerator the
#: first time one lands there: the serialized synthetic pretrained model
#: (vocab + subword buckets at dim=100, float32).
MODEL_STATE_BYTES = 8_000_000


def is_model_operator(node: LogicalPlan) -> bool:
    """A node that embeds through a model (it declares one) — what may
    run on an accelerator and pays the model-state shipping there."""
    return bool(node.model_fields)


def estimate_row_bytes(schema: Schema) -> int:
    """Rough serialized width of one row of ``schema``."""
    return sum(_TYPE_BYTES[field.dtype] for field in schema.fields) or 8


@dataclass
class Placement:
    """A device assignment per plan node (keyed by ``id(node)``)."""

    assignment: dict[int, str] = field(default_factory=dict)
    estimated_seconds: float = 0.0

    def device_of(self, node: LogicalPlan) -> str:
        return self.assignment[id(node)]

    def devices_used(self) -> set[str]:
        return set(self.assignment.values())

    def describe(self, plan: LogicalPlan) -> str:
        lines = []

        def visit(node: LogicalPlan, indent: int) -> None:
            device = self.assignment.get(id(node), "?")
            lines.append("  " * indent + f"{node.label()}  @{device}")
            for child in node.children:
                visit(child, indent + 1)

        visit(plan, 0)
        return "\n".join(lines)


class PlacementOptimizer:
    """Chooses a device per operator to minimize modeled completion time."""

    def __init__(self, topology: HardwareTopology, cost_model: CostModel):
        self.topology = topology
        self.cost_model = cost_model

    def place(self, plan: LogicalPlan) -> Placement:
        """Optimal (contention-free) placement via tree DP."""
        devices = self.topology.compute_devices
        best: dict[tuple[int, str], float] = {}
        choice: dict[tuple[int, str], list[str]] = {}

        def solve(node: LogicalPlan) -> None:
            for child in node.children:
                solve(child)
            node_cost = self.cost_model.node_cost(node)
            model_operator = is_model_operator(node)
            for device in devices:
                execution = device.execution_seconds(node_cost.cpu,
                                                     node_cost.model)
                if model_operator:
                    execution += self._model_ship_seconds(device.name)
                total = execution + device.startup_seconds
                child_devices: list[str] = []
                for child in node.children:
                    child_bytes = self._output_bytes(child)
                    options = []
                    for child_device in devices:
                        base = best[(id(child), child_device.name)]
                        move = self.topology.transfer_seconds(
                            child_device.name, device.name, child_bytes)
                        options.append((base + move, child_device.name))
                    best_child = min(options)
                    total += best_child[0]
                    child_devices.append(best_child[1])
                best[(id(node), device.name)] = total
                choice[(id(node), device.name)] = child_devices

        solve(plan)
        # Root must deliver results to the host.
        root_bytes = self._output_bytes(plan)
        final_options = []
        for device in devices:
            deliver = self.topology.transfer_seconds(
                device.name, self.topology.host, root_bytes)
            final_options.append((best[(id(plan), device.name)] + deliver,
                                  device.name))
        total_seconds, root_device = min(final_options)

        placement = Placement(estimated_seconds=total_seconds)

        def assign(node: LogicalPlan, device: str) -> None:
            placement.assignment[id(node)] = device
            for child, child_device in zip(node.children,
                                           choice[(id(node), device)]):
                assign(child, child_device)

        assign(plan, root_device)
        return placement

    def place_all_on(self, plan: LogicalPlan, device_name: str) -> Placement:
        """Degenerate policy: every operator on one device."""
        placement = Placement()
        for node in plan.walk():
            placement.assignment[id(node)] = device_name
        return placement

    def place_model_ops_on(self, plan: LogicalPlan,
                           accelerator: str) -> Placement:
        """Static policy: model operators on the accelerator, rest on host."""
        placement = Placement()
        for node in plan.walk():
            device = accelerator if is_model_operator(node) \
                else self.topology.host
            placement.assignment[id(node)] = device
        return placement

    # ------------------------------------------------------------------
    def _output_bytes(self, node: LogicalPlan) -> float:
        rows = self.cost_model.estimator.estimate(node)
        return rows * estimate_row_bytes(node.schema)

    def _model_ship_seconds(self, device_name: str) -> float:
        if device_name == self.topology.host:
            return 0.0
        return self.topology.transfer_seconds(
            self.topology.host, device_name, MODEL_STATE_BYTES)
