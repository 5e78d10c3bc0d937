"""Deterministic execution simulator for placed plans.

Evaluates a :class:`~repro.hardware.placement.Placement` with *device
contention*: operators become ready when their inputs (plus transfers)
arrive, and each device executes one operator at a time in ready order.
Produces per-operator timelines, per-device busy time, and bytes moved per
link — the quantities the Figure-5 benchmark reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.hardware.placement import (
    MODEL_STATE_BYTES,
    Placement,
    estimate_row_bytes,
    is_model_operator,
)
from repro.hardware.topology import HardwareTopology
from repro.optimizer.cost import CostModel
from repro.relational.logical import LogicalPlan


@dataclass
class OperatorTimeline:
    node_label: str
    device: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class SimulationResult:
    makespan: float
    timelines: list[OperatorTimeline] = field(default_factory=list)
    device_busy: dict[str, float] = field(default_factory=dict)
    bytes_transferred: float = 0.0
    startup_seconds: float = 0.0

    def utilization(self) -> dict[str, float]:
        """Busy fraction per device over the makespan."""
        if self.makespan <= 0:
            return {device: 0.0 for device in self.device_busy}
        return {device: busy / self.makespan
                for device, busy in self.device_busy.items()}


class ExecutionSimulator:
    """List-scheduling simulation of a placed plan."""

    def __init__(self, topology: HardwareTopology, cost_model: CostModel):
        self.topology = topology
        self.cost_model = cost_model

    def simulate(self, plan: LogicalPlan,
                 placement: Placement) -> SimulationResult:
        result = SimulationResult(makespan=0.0)
        device_free: dict[str, float] = {
            name: 0.0 for name in self.topology.devices
        }
        # Startup: each used device pays its startup before first use.
        for device_name in placement.devices_used():
            device = self.topology.device(device_name)
            device_free[device_name] = device.startup_seconds
            result.startup_seconds += device.startup_seconds

        # Model-state shipping: once per (accelerator, query).
        shipped: set[str] = set()
        finish_time: dict[int, float] = {}

        # Ready queue ordered by (#unfinished children == 0, depth order).
        pending = list(plan.walk())
        order = {id(node): position
                 for position, node in enumerate(reversed(pending))}
        heap: list[tuple[int, int]] = []
        remaining_children = {id(node): len(node.children)
                              for node in pending}
        node_by_id = {id(node): node for node in pending}
        for node in pending:
            if not node.children:
                heapq.heappush(heap, (order[id(node)], id(node)))

        parents: dict[int, int] = {}
        for node in pending:
            for child in node.children:
                parents[id(child)] = id(node)

        while heap:
            _, node_id = heapq.heappop(heap)
            node = node_by_id[node_id]
            device_name = placement.assignment[node_id]
            device = self.topology.device(device_name)

            ready = device_free[device_name]
            for child in node.children:
                child_device = placement.assignment[id(child)]
                child_bytes = (self.cost_model.estimator.estimate(child)
                               * estimate_row_bytes(child.schema))
                move = self.topology.transfer_seconds(child_device,
                                                      device_name,
                                                      child_bytes)
                if child_device != device_name:
                    result.bytes_transferred += child_bytes
                ready = max(ready, finish_time[id(child)] + move)

            extra = 0.0
            if (is_model_operator(node)
                    and device_name != self.topology.host
                    and device_name not in shipped):
                extra = self.topology.transfer_seconds(
                    self.topology.host, device_name, MODEL_STATE_BYTES)
                shipped.add(device_name)
                result.bytes_transferred += MODEL_STATE_BYTES

            cost = self.cost_model.node_cost(node)
            duration = device.execution_seconds(cost.cpu, cost.model) + extra
            start = ready
            finish = start + duration
            device_free[device_name] = finish
            finish_time[node_id] = finish
            result.timelines.append(OperatorTimeline(node.label(),
                                                     device_name, start,
                                                     finish))
            result.device_busy[device_name] = (
                result.device_busy.get(device_name, 0.0) + duration)

            parent_id = parents.get(node_id)
            if parent_id is not None:
                remaining_children[parent_id] -= 1
                if remaining_children[parent_id] == 0:
                    heapq.heappush(heap, (order[parent_id], parent_id))

        root_finish = finish_time[id(plan)]
        root_device = placement.assignment[id(plan)]
        deliver = self.topology.transfer_seconds(
            root_device, self.topology.host,
            self.cost_model.estimator.estimate(plan)
            * estimate_row_bytes(plan.schema))
        result.makespan = root_finish + deliver
        return result
