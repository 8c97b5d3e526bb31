"""Analytic machine model of the Frontier supercomputer (paper §4.1).

Numbers come from the paper and the published MI250X / Slingshot-11 specs:

* 1 node = 4 × MI250X = 8 GCDs ("GPUs"), 64 GB HBM each
* Infinity Fabric GPU-GPU: 50 GB/s between GCDs inside a node
* Slingshot-11: 100 GB/s injection per node (4 NICs), so 12.5 GB/s per GCD
  when all 8 GCDs communicate off-node simultaneously
* MI250X peak: 383 TFLOP/s bf16 per module → 191.5 per GCD; sustained
  efficiency for transformer training on Frontier is ~25–35 % (ORBIT
  reports similar), default 0.30.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["MachineSpec", "frontier"]

GiB = 1024**3


@dataclass(frozen=True)
class MachineSpec:
    """Capacities and link speeds of one machine type."""

    name: str
    gpus_per_node: int
    hbm_bytes: int                 # per GPU (GCD)
    intra_node_bw: float           # bytes/s per GPU pair, Infinity Fabric
    inter_node_bw_per_node: float  # bytes/s injection bandwidth per node
    peak_flops: float              # per GPU, bf16
    compute_efficiency: float      # sustained fraction of peak for GEMMs
    intra_latency: float = 2.0e-6  # seconds per collective step, in-node
    inter_latency: float = 8.0e-6  # seconds per collective step, cross-node

    @property
    def inter_node_bw_per_gpu(self) -> float:
        return self.inter_node_bw_per_node / self.gpus_per_node

    @property
    def sustained_flops(self) -> float:
        return self.peak_flops * self.compute_efficiency

    def nodes_for(self, gpus: int) -> int:
        return (gpus + self.gpus_per_node - 1) // self.gpus_per_node

    def with_efficiency(self, eff: float) -> "MachineSpec":
        return replace(self, compute_efficiency=eff)


def frontier() -> MachineSpec:
    """The OLCF Frontier node as described in paper §4.1."""
    return MachineSpec(
        name="frontier",
        gpus_per_node=8,
        hbm_bytes=64 * GiB,
        intra_node_bw=50e9,
        inter_node_bw_per_node=100e9,
        peak_flops=191.5e12,
        compute_efficiency=0.30,
    )
