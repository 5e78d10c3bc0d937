"""Hardware-conscious optimization over simulated heterogeneous hardware.

Paper §VI: CPUs, GPUs, TPU-like inference accelerators, NPUs, NVMe storage
and InfiniBand interconnects (Figure 5) — the engine must "provision these
resources correctly ... place, split, and schedule the execution".

Real accelerators are not available in this environment, so the devices
are *analytical models* (documented substitution, DESIGN.md §2): each
device has throughputs per compute class, a startup cost, and model-state
shipping costs; links have bandwidth and latency.  What is real is the
*decision procedure*: a cost-based placement optimizer (tree DP over
device assignments) and a deterministic execution simulator that evaluates
any placement — which is exactly what the paper's §VI asks the optimizer
to do.

This is the Figure 5 simulation package: benchmarks, examples and tests
import it, no engine module does.
"""

from repro.hardware.devices import (
    Device,
    DeviceKind,
    Link,
    a100_gpu,
    infiniband,
    mobile_npu,
    nvlink,
    nvme,
    pcie3,
    pcie4,
    tpu_v4,
    xeon_cpu,
)
from repro.hardware.topology import HardwareTopology, standard_topologies
from repro.hardware.placement import Placement, PlacementOptimizer
from repro.hardware.simulator import ExecutionSimulator, SimulationResult

__all__ = [
    "Device",
    "DeviceKind",
    "Link",
    "a100_gpu",
    "infiniband",
    "mobile_npu",
    "nvlink",
    "nvme",
    "pcie3",
    "pcie4",
    "tpu_v4",
    "xeon_cpu",
    "HardwareTopology",
    "standard_topologies",
    "Placement",
    "PlacementOptimizer",
    "ExecutionSimulator",
    "SimulationResult",
]
