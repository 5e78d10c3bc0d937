"""The unit plan nodes price themselves in (``LogicalPlan.node_cost``).

Apart from :mod:`repro.optimizer.cost`, which re-exports it beside the
:class:`~repro.optimizer.cost.CostModel`, so the plan IR builds costs
without importing the optimizer package (which imports the IR).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Cost:
    """Cost split by resource class; ``total`` drives decisions."""

    cpu: float = 0.0
    model: float = 0.0

    @property
    def total(self) -> float:
        return self.cpu + self.model

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.cpu + other.cpu, self.model + other.model)
