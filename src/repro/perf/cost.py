"""The α–β pricing core shared by the analytic model and the SPMD runtime.

One :class:`CostModel` instance prices every collective the system issues —
the analytic layer (:func:`~repro.perf.comm_model.estimate_step_comm`)
and the runtime's :class:`~repro.perf.clock.VirtualClock` both delegate
here, so the two layers can cross-check each other byte-for-byte
(``tests/test_virtual_clock.py::TestWireParity``).

Pricing convention (§4.1, RCCL ring algorithms)::

    seconds = latency · steps(op, n)  +  wire_bytes(op, payload, n) / bandwidth

Latency **step counts** per op — the single source of truth the runtime and
the analytic model share (audited against the ring conventions documented in
:mod:`repro.dist.stats`):

=================  ============  ==================================================
op                 steps         why
=================  ============  ==================================================
``all_reduce``     ``2·(n−1)``   ring ReduceScatter pass + ring AllGather pass
``all_gather``     ``n−1``       one ring pass, shards rotate n−1 hops
``reduce_scatter`` ``n−1``       one ring pass
``broadcast``      ``n−1``       pipelined ring from the root
``all_to_all``     ``1``         **not** a serialized ring: every pair exchanges
                                 directly in a single concurrent round, so only
                                 one latency is paid (the volume term carries
                                 the per-peer payloads)
``barrier``        ``n−1``       latency-only ring pass, zero bytes
=================  ============  ==================================================

Topology placement: ranks map onto nodes contiguously
(``node = rank // gpus_per_node``); a group whose ranks all share a node
rides the intra-node fabric, anything else pays the per-GPU share of the
node injection bandwidth.  This is the same placement rule
:func:`~repro.perf.comm_model.estimate_step_comm` applies to the
TP-innermost :class:`~repro.parallel.DeviceMesh` layout, so analytic and
measured placements coincide by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..dist.stats import ring_wire_bytes
from .machine import MachineSpec

__all__ = ["CostModel", "MAX_DP_BUCKETS"]

#: Most buckets a DP gradient AllReduce is split into — the cap both the
#: eager replay and the autotuner's stand-in oracle pass to
#: :meth:`CostModel.bucket_cap`.
MAX_DP_BUCKETS = 4


@dataclass(frozen=True)
class CostModel:
    """Prices collectives (seconds + wire bytes) on one :class:`MachineSpec`."""

    machine: MachineSpec

    # -- the shared step-count table --------------------------------------
    def latency_steps(self, op: str, group_size: int) -> int:
        """Serialized latency rounds for one collective (see module table);
        a one-rank group pays none."""
        n = int(group_size)
        if n < 1:
            raise ValueError(f"group size must be >= 1, got {group_size}")
        if op == "all_reduce":
            return 2 * (n - 1)
        if op in ("all_gather", "reduce_scatter", "broadcast", "barrier"):
            return n - 1
        if op == "all_to_all":
            return 1 if n > 1 else 0
        raise ValueError(f"unknown collective op {op!r}")

    def wire_bytes(self, op: str, payload_bytes: int, group_size: int) -> int:
        """Per-rank ring wire volume (:func:`repro.dist.stats.ring_wire_bytes`)."""
        if op == "barrier":
            return 0
        return ring_wire_bytes(op, int(payload_bytes), group_size)

    # -- topology placement ------------------------------------------------
    def node_of(self, rank: int) -> int:
        return int(rank) // self.machine.gpus_per_node

    def intra_node(self, ranks: Sequence[int]) -> bool:
        """True when every rank of the group lives on one node."""
        return len({self.node_of(r) for r in ranks}) <= 1

    def link(self, intra_node: bool) -> tuple[float, float]:
        """(bandwidth bytes/s, latency s/step) of the bottleneck link."""
        m = self.machine
        if intra_node:
            return m.intra_node_bw, m.intra_latency
        return m.inter_node_bw_per_gpu, m.inter_latency

    # -- pricing -----------------------------------------------------------
    def collective_seconds(
        self, op: str, payload_bytes: float, group_size: int, intra_node: bool
    ) -> float:
        """Seconds for one collective; *payload_bytes* follows the per-op
        conventions of :mod:`repro.dist.stats`."""
        if group_size <= 1:
            return 0.0
        wire = self.wire_bytes(op, int(payload_bytes), group_size)
        bw, lat = self.link(intra_node)
        return lat * self.latency_steps(op, group_size) + wire / bw

    def collective_seconds_for(
        self, op: str, payload_bytes: float, ranks: Sequence[int]
    ) -> float:
        """Like :meth:`collective_seconds` with placement derived from the
        group's world ranks."""
        return self.collective_seconds(
            op, payload_bytes, len(ranks), self.intra_node(ranks)
        )

    def bucket_cap(
        self,
        op: str,
        payload_bytes: int,
        group_size: int,
        intra_node: bool,
        max_buckets: int,
    ) -> int:
        """Largest useful bucket count for splitting one collective.

        Every bucket re-pays the op's full latency rounds, so splitting
        only helps while each bucket's volume time stays above its latency
        time — the α–β form of real DDP's ~25 MB bucket-size heuristic.
        Latency-dominated payloads stay whole.  The single source of this
        decision for the eager replay and the autotuner's overlap oracle.
        """
        if max_buckets <= 1 or group_size <= 1:
            return 1
        bw, lat = self.link(intra_node)
        vol_t = self.wire_bytes(op, int(payload_bytes), group_size) / bw
        lat_t = lat * self.latency_steps(op, group_size)
        if lat_t <= 0.0:
            return max_buckets
        return min(max_buckets, max(1, int(vol_t / lat_t)))

    def compute_seconds(self, flops: float) -> float:
        """GEMM time at the machine's sustained throughput."""
        return float(flops) / self.machine.sustained_flops
