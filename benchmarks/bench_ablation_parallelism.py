"""Ablation — parallel-strategy composition and cost-model sensitivity.

Checks the design choices DESIGN.md calls out:

* SP is a valid alternative model-parallel axis for the D-CHAG front-end
  (§3.5) — and moves different traffic than TP;
* the hybrid mesh places TP inside a node and DP across (§6.3's locality
  argument) — quantified via the α–β model;
* sensitivity: the Fig. 16 ">2×" conclusion survives halving/doubling the
  batch-efficiency knee (``BATCH_EFF_HALF``) and the compute efficiency.
"""

import numpy as np
import pytest

from figutils import print_table
from repro.dist import run_spmd_world
from repro.nn import ViTEncoder
from repro.parallel import ParallelContext, scatter_sequence, sequence_parallel, tensor_parallel
from repro.perf import (
    CostModel,
    MachineSpec,
    ParallelPlan,
    frontier,
    named_model,
)
from repro.perf.throughput import global_batch_throughput
from repro.tensor import Tensor

D, DEPTH, HEADS, B, N = 32, 2, 4, 2, 8
MACHINE = frontier()


def measure_traffic(kind: str, world: int = 2):
    x = np.random.default_rng(1).standard_normal((B, N, D)).astype(np.float32)

    def fn(comm):
        ctx = ParallelContext(comm)
        serial = ViTEncoder(D, DEPTH, HEADS, np.random.default_rng(42))
        if kind == "tp":
            out = tensor_parallel(ctx, serial)(Tensor(x))
        else:
            out = sequence_parallel(ctx, serial)(scatter_sequence(ctx, Tensor(x)))
        (out * out).mean().backward()

    _, w = run_spmd_world(fn, world)
    return w.traffic


class TestSPvsTP:
    def test_tp_uses_allreduce_sp_uses_alltoall(self):
        tp = measure_traffic("tp").ops_histogram()
        sp = measure_traffic("sp").ops_histogram()
        assert set(tp) == {"all_reduce"}
        assert set(sp) == {"all_to_all"}

    def test_sp_moves_fewer_bytes_per_rank(self):
        """Ulysses all-to-alls move 1/sp of the activation where TP
        all-reduces move ~2× of it."""
        tp = measure_traffic("tp").wire_bytes(rank=0)
        sp = measure_traffic("sp").wire_bytes(rank=0)
        assert sp < tp


class TestLocality:
    def test_intra_node_collective_cheaper(self):
        payload = 64 << 20
        cost = CostModel(MACHINE)
        for op in ("all_reduce", "all_gather"):
            fast = cost.collective_seconds(op, payload, 8, intra_node=True)
            slow = cost.collective_seconds(op, payload, 8, intra_node=False)
            assert slow > 3 * fast  # IF 50 GB/s vs 12.5 GB/s per GCD

    def test_hybrid_prefers_node_local_tp(self):
        """A TP16 replica (2 nodes) pays inter-node prices; TP8 stays on
        Infinity Fabric — the §6.3 placement argument."""
        from repro.perf import Workload, estimate_step_comm

        model = named_model("7B")
        w = Workload(500, 8)
        t8 = estimate_step_comm(model, w, ParallelPlan("tp", tp=8), MACHINE).tp_time
        t16 = estimate_step_comm(model, w, ParallelPlan("tp", tp=16), MACHINE).tp_time
        assert t16 > 2.5 * t8


class TestModelSensitivity:
    BASELINE = ParallelPlan("tp", tp=16, dp=64)
    HYBRID = ParallelPlan("dchag", tp=8, dchag_kind="linear", dp=128)

    def _gain(self, machine: MachineSpec, global_batch: int = 2048) -> float:
        model = named_model("7B")
        base = global_batch_throughput(model, 500, self.BASELINE, machine, global_batch)
        hybrid = global_batch_throughput(model, 500, self.HYBRID, machine, global_batch)
        return hybrid / base - 1.0

    def test_fig16_conclusion_stable_under_efficiency(self):
        for eff in (0.15, 0.3, 0.5):
            assert self._gain(MACHINE.with_efficiency(eff)) > 1.0, eff

    def test_fig16_conclusion_stable_under_batch_knee(self):
        import repro.perf.throughput as tp_mod

        original = tp_mod.BATCH_EFF_HALF
        try:
            for knee in (2.0, 4.0, 8.0):
                tp_mod.BATCH_EFF_HALF = knee
                assert self._gain(MACHINE) > 1.0, knee
        finally:
            tp_mod.BATCH_EFF_HALF = original

    def test_gain_shrinks_with_faster_interconnect(self):
        """If Slingshot were as fast as Infinity Fabric, the baseline's
        cross-node penalty — part of D-CHAG's edge — shrinks."""
        from dataclasses import replace

        fast_net = replace(MACHINE, inter_node_bw_per_node=50e9 * 8)
        assert self._gain(fast_net) < self._gain(MACHINE)


def test_ablation_parallelism_print_and_benchmark(benchmark):
    def collect():
        tp = measure_traffic("tp")
        sp = measure_traffic("sp")
        return [
            ["TP", str(tp.ops_histogram()), tp.wire_bytes(rank=0)],
            ["SP (Ulysses)", str(sp.ops_histogram()), sp.wire_bytes(rank=0)],
        ]

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    print_table(
        "Ablation — TP vs SP traffic for the same encoder (2 ranks)",
        ["strategy", "collectives", "wire bytes/rank"],
        rows,
        note="§3.5: D-CHAG composes with either axis; SP trades AllReduce "
        "for lighter all-to-alls",
    )
