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

from .comm_model import (
    CommBreakdown,
    CommEvent,
    _expose,
    _exposed_seconds,
    _overlap_pair,
    _price_comm,
    step_comm_schedule,
)
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
    def tflops_per_gpu(self) -> float:
        """Sustained useful TFLOP/s per GPU (0 when the plan does not fit)."""
        if not self.fits:
            return 0.0
        return self.useful_flops / self.step_seconds / self.plan.gpus_per_replica / 1e12

    def tflops_per_node(self, machine: MachineSpec) -> float:
        return self.tflops_per_gpu * machine.gpus_per_node


def _useful_flops(model: ModelConfig, workload: Workload) -> float:
    """Serial reference-model training FLOPs for one micro-batch."""
    return TRAIN_MULT * estimate_flops(model, workload, ParallelPlan("serial")).total


@dataclass(frozen=True)
class _PricedStep:
    """One (plan, micro-batch) priced with no dp/fsdp overlap applied.

    Everything here is independent of the overlap fractions — memory, the
    compute seconds, the collective schedule and its un-overlapped per-axis
    seconds and wire bytes — so one pricing serves every overlap pair:
    :meth:`estimate` and :meth:`tflops` only discount the FSDP and DP
    seconds (:func:`~repro.perf.comm_model._exposed_seconds`).
    """

    plan: ParallelPlan
    micro_batch: int
    memory: MemoryBreakdown
    compute_seconds: float
    comm: CommBreakdown            # un-overlapped: dp/fsdp fractions 0
    useful_flops: float
    fits: bool
    schedule: list[CommEvent]

    def estimate(self, overlaps: "DerivedOverlaps | None" = None) -> StepEstimate:
        """The :class:`StepEstimate` at *overlaps* (None ⇒ the constants)."""
        return StepEstimate(
            plan=self.plan,
            micro_batch=self.micro_batch,
            memory=self.memory,
            compute_seconds=self.compute_seconds,
            comm=_expose(self.comm, *_overlap_pair(overlaps)),
            useful_flops=self.useful_flops,
            fits=self.fits,
        )

    def tflops(self, per_replica: int, overlaps: "DerivedOverlaps | None" = None) -> float:
        """Total useful TFLOP/s serving *per_replica* samples per replica in
        micro-steps of ``micro_batch`` (gradient accumulation), at *overlaps*."""
        if not self.fits:
            return 0.0
        comm = self.comm
        fsdp_time, dp_time = _exposed_seconds(comm, *_overlap_pair(overlaps))
        n_micro = -(-per_replica // self.micro_batch)
        # DP sync happens once per optimizer step; non-DP comm per micro-step.
        micro_time = (
            self.compute_seconds + comm.tp_time + comm.gather_time
            + comm.sp_time + fsdp_time
        )
        step_time = n_micro * micro_time + dp_time
        useful = self.useful_flops * n_micro * self.plan.dp
        return useful / step_time / 1e12


def _price_step(
    model: ModelConfig,
    workload: Workload,
    plan: ParallelPlan,
    machine: MachineSpec,
    precision: Precision,
    useful_flops: float | None = None,
) -> _PricedStep:
    """Price one step at ``workload.batch`` once, before any overlap."""
    memory = estimate_memory(model, workload, plan, precision)
    own = TRAIN_MULT * estimate_flops(model, workload, plan).total
    eff = batch_efficiency(machine, workload.batch)
    compute = own / (machine.peak_flops * eff)
    schedule = step_comm_schedule(model, workload, plan, precision)
    if useful_flops is None:
        useful_flops = _useful_flops(model, workload)
    return _PricedStep(
        plan=plan,
        micro_batch=workload.batch,
        memory=memory,
        compute_seconds=float(compute),
        comm=_price_comm(schedule, plan, machine),
        useful_flops=useful_flops,
        fits=memory.fits(machine),
        schedule=schedule,
    )


class _PriceBook:
    """The priced steps of one (model, channels, machine, precision), each
    distinct (plan, micro-batch) priced once.

    A book lives for one search, one sweep or one overlap oracle and is
    dropped with it — never module-level, so a fresh call prices cold.
    Useful FLOPs depend on the batch alone and are kept per batch.
    """

    __slots__ = ("model", "channels", "machine", "precision", "_steps", "_useful")

    def __init__(
        self,
        model: ModelConfig,
        channels: int,
        machine: MachineSpec,
        precision: Precision,
    ) -> None:
        self.model = model
        self.channels = channels
        self.machine = machine
        self.precision = precision
        self._steps: dict[tuple[ParallelPlan, int], _PricedStep] = {}
        self._useful: dict[int, float] = {}

    def step(self, plan: ParallelPlan, batch: int) -> _PricedStep:
        priced = self._steps.get((plan, batch))
        if priced is None:
            workload = Workload(self.channels, batch)
            useful = self._useful.get(batch)
            if useful is None:
                useful = self._useful[batch] = _useful_flops(self.model, workload)
            priced = self._steps[plan, batch] = _price_step(
                self.model, workload, plan, self.machine, self.precision, useful
            )
        return priced

    def throughput(
        self,
        plan: ParallelPlan,
        b_max: int,
        global_batch: int,
        overlaps: "DerivedOverlaps | None",
    ) -> float:
        """:func:`global_batch_throughput` of *plan*, whose largest fitting
        micro-batch is *b_max* (> 0), from this book's pricing."""
        per_replica = global_batch // plan.dp
        return self.step(plan, min(per_replica, b_max)).tflops(per_replica, overlaps)


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
    The step is priced once with nothing hidden (memory, FLOPs, the
    collective schedule and its α–β seconds) and the two fractions are
    applied last; the search and the sweep keep those pricings for a whole
    call and re-expose them per overlap pair.
    """
    return _price_step(model, workload, plan, machine, precision).estimate(overlaps)


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
    assumed dp/fsdp hidden fractions with derived ones.  The autotuner
    scores each candidate the same way (:meth:`_PriceBook.throughput`),
    from one price book per call.
    """
    if global_batch % plan.dp != 0:
        raise ValueError(f"global batch {global_batch} not divisible by dp={plan.dp}")
    b_max = max_batch_per_replica(model, channels, plan, machine, precision)
    if b_max == 0:
        return 0.0
    book = _PriceBook(model, channels, machine, precision)
    return book.throughput(plan, b_max, global_batch, overlaps)

