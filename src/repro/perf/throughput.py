"""Throughput estimator: sustained TFLOPs/sec and the "performance gain over
TP-only" metric of Figs. 9, 13, 15 and 16.

Mechanism (this is what the paper's gains actually come from, §6.2):

1. Each plan runs the **largest micro-batch that fits** in HBM.  D-CHAG
   frees the tokenization/aggregation memory, so it runs bigger batches.
2. GEMM efficiency **saturates with batch**: small micro-batches leave the
   GPUs starved (``eff = peak_eff · B/(B + B_half)``).
3. Exposed communication is amortized over the micro-batch; a global batch
   larger than what fits is served by gradient accumulation.
4. Throughput is quoted in **useful** FLOPs — the serial reference model's
   FLOPs per sample × samples/s — so all plans are compared in a common
   currency (redundant TP tokenization and D-CHAG's extra partial layers
   cost time but don't inflate the numerator).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from typing import TYPE_CHECKING

from .comm_model import CommBreakdown, estimate_step_comm
from .flops import TRAIN_MULT, estimate_flops
from .machine import MachineSpec
from .memory_model import MemoryBreakdown, estimate_memory
from .modelcfg import ModelConfig
from .plan import ParallelPlan, Precision, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .overlap import DerivedOverlaps

__all__ = [
    "StepEstimate",
    "estimate_step",
    "sustained_estimate",
    "throughput_gain",
    "max_batch_per_replica",
    "BATCH_EFF_HALF",
    "MICRO_BATCH_CAP",
]

BATCH_EFF_HALF = 4.0     # micro-batch at which GEMM efficiency is half of peak
MICRO_BATCH_CAP = 64     # largest micro-batch the runtime will attempt


def batch_efficiency(machine: MachineSpec, micro_batch: int) -> float:
    """Saturating sustained-efficiency curve in the per-GPU micro-batch."""
    return machine.compute_efficiency * micro_batch / (micro_batch + BATCH_EFF_HALF)


@functools.lru_cache(maxsize=4096)
def max_batch_per_replica(
    model: ModelConfig,
    channels: int,
    plan: ParallelPlan,
    machine: MachineSpec,
    precision: Precision = Precision(),
    limit: int = MICRO_BATCH_CAP,
) -> int:
    """Largest micro-batch that still fits per GPU (0 ⇒ plan infeasible) —
    the lever Hybrid D-CHAG uses to raise TFLOPs/sec in §6.2.

    Memoized (every argument is a frozen dataclass): the configuration
    search asks for the same (model, plan, machine) fit both when
    enumerating candidates and inside every throughput evaluation, and the
    memory-model binary search is the search's single hottest analytic
    call.
    """
    lo = 0
    hi = 1
    while hi <= limit and estimate_memory(
        model, Workload(channels, hi), plan, precision
    ).fits(machine):
        lo = hi
        hi *= 2
    hi = min(hi, limit + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if estimate_memory(model, Workload(channels, mid), plan, precision).fits(machine):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class StepEstimate:
    """One plan's sustained operating point."""

    plan: ParallelPlan
    micro_batch: int
    memory: MemoryBreakdown
    compute_seconds: float     # per micro-batch, per replica
    comm: CommBreakdown
    useful_flops: float        # serial-model FLOPs for this micro-batch
    fits: bool

    @property
    def step_seconds(self) -> float:
        return self.compute_seconds + self.comm.total

    @property
    def samples_per_second(self) -> float:
        """Per replica."""
        if not self.fits:
            return 0.0
        return self.micro_batch / self.step_seconds

    @property
    def tflops_per_gpu(self) -> float:
        """Sustained useful TFLOP/s per GPU (0 when the plan does not fit)."""
        if not self.fits:
            return 0.0
        return self.useful_flops / self.step_seconds / self.plan.gpus_per_replica / 1e12

    @property
    def tflops_total(self) -> float:
        return self.tflops_per_gpu * self.plan.total_gpus

    def tflops_per_node(self, machine: MachineSpec) -> float:
        return self.tflops_per_gpu * machine.gpus_per_node


def _useful_flops(model: ModelConfig, workload: Workload) -> float:
    """Serial reference-model training FLOPs for one micro-batch."""
    return TRAIN_MULT * estimate_flops(model, workload, ParallelPlan("serial")).total


def estimate_step(
    model: ModelConfig,
    workload: Workload,
    plan: ParallelPlan,
    machine: MachineSpec,
    precision: Precision = Precision(),
    overlaps: "DerivedOverlaps | None" = None,
) -> StepEstimate:
    """Estimate a step at an explicit micro-batch (``workload.batch``).

    ``overlaps`` replaces the assumed dp/fsdp overlap fractions with ones
    derived from a virtual-clock run (:func:`repro.perf.overlap.derive_overlaps`).
    """
    memory = estimate_memory(model, workload, plan, precision)
    own = TRAIN_MULT * estimate_flops(model, workload, plan).total
    eff = batch_efficiency(machine, workload.batch)
    compute = own / (machine.peak_flops * eff)
    comm = estimate_step_comm(model, workload, plan, machine, precision, overlaps=overlaps)
    return StepEstimate(
        plan=plan,
        micro_batch=workload.batch,
        memory=memory,
        compute_seconds=float(compute),
        comm=comm,
        useful_flops=_useful_flops(model, workload),
        fits=memory.fits(machine),
    )


def sustained_estimate(
    model: ModelConfig,
    channels: int,
    plan: ParallelPlan,
    machine: MachineSpec,
    precision: Precision = Precision(),
    micro_batch: int | None = None,
    overlaps: "DerivedOverlaps | None" = None,
) -> StepEstimate:
    """Estimate at the best (largest fitting) micro-batch for this plan."""
    b = micro_batch if micro_batch is not None else max_batch_per_replica(
        model, channels, plan, machine, precision
    )
    if b == 0:
        # Report the infeasible single-sample point (fits=False ⇒ 0 TFLOPs).
        return estimate_step(model, Workload(channels, 1), plan, machine, precision, overlaps)
    return estimate_step(model, Workload(channels, b), plan, machine, precision, overlaps)


def throughput_gain(
    model: ModelConfig,
    channels: int,
    plan: ParallelPlan,
    baseline: ParallelPlan,
    machine: MachineSpec,
    precision: Precision = Precision(),
) -> float:
    """Fractional per-GPU sustained-throughput gain of *plan* over *baseline*
    (``0.6`` ⇒ "60 % improvement", the form Figs. 9/13 quote).

    ``inf`` when only the baseline OOMs, ``nan`` when both do, ``-1.0`` when
    the candidate itself OOMs.
    """
    ours = sustained_estimate(model, channels, plan, machine, precision)
    base = sustained_estimate(model, channels, baseline, machine, precision)
    if not base.fits and not ours.fits:
        return float("nan")
    if not base.fits:
        return float("inf")
    if not ours.fits:
        return -1.0
    return ours.tflops_per_gpu / base.tflops_per_gpu - 1.0


def global_batch_throughput(
    model: ModelConfig,
    channels: int,
    plan: ParallelPlan,
    machine: MachineSpec,
    global_batch: int,
    precision: Precision = Precision(),
    overlaps: "DerivedOverlaps | None" = None,
) -> float:
    """Total sustained useful TFLOP/s at a fixed global batch (Fig. 16).

    The global batch spreads over ``dp`` replicas; whatever exceeds a
    replica's largest fitting micro-batch is served by gradient
    accumulation (more micro-steps, same efficiency, one DP AllReduce per
    optimizer step so its cost amortizes).  ``overlaps`` replaces the
    assumed dp/fsdp hidden fractions with derived ones — the autotuner
    passes each candidate's own simulated fractions through here.
    """
    if global_batch % plan.dp != 0:
        raise ValueError(f"global batch {global_batch} not divisible by dp={plan.dp}")
    per_replica = global_batch // plan.dp
    b_max = max_batch_per_replica(model, channels, plan, machine, precision)
    if b_max == 0:
        return 0.0
    est = estimate_step(
        model, Workload(channels, min(per_replica, b_max)), plan, machine, precision,
        overlaps=overlaps,
    )
    return _accumulated_tflops(est, per_replica)


def _accumulated_tflops(est: StepEstimate, per_replica: int) -> float:
    """Total useful TFLOP/s serving *per_replica* samples per replica in
    micro-steps of ``est.micro_batch`` (gradient accumulation)."""
    if not est.fits:
        return 0.0
    n_micro = -(-per_replica // est.micro_batch)
    # DP sync happens once per optimizer step; non-DP comm per micro-step.
    micro_time = (
        est.compute_seconds + est.comm.tp_time + est.comm.gather_time
        + est.comm.sp_time + est.comm.fsdp_time
    )
    step_time = n_micro * micro_time + est.comm.dp_time
    useful = est.useful_flops * n_micro * est.plan.dp
    return useful / step_time / 1e12
