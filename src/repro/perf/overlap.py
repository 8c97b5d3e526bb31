"""Derive dp/fsdp communication-overlap fractions from virtual timelines.

The analytic model (:func:`~repro.perf.comm_model.estimate_step_comm`)
discounts DP and FSDP communication by an overlap fraction — the share a
real implementation hides under compute (bucketed DP gradient AllReduce
issued during backward; the next FSDP unit's AllGather prefetched during the
current unit's forward).  Those fractions used to be assumed constants
(0.8 / 0.5); this module derives them from the per-rank timelines a
virtual-clock run records.

Two derivation sources, picked per axis by what the run simulated:

* ``"measured"`` — the run used an **issue-queue clock**
  (:class:`~repro.perf.clock.VirtualClock` with the axis' phase in
  ``eager_phases``): collectives were dispatched at record time and
  completed concurrently with charged compute, so each one carries its own
  *exposed* seconds.  The hidden fraction is then read off the schedule
  directly, ``1 − exposed / busy`` (``busy`` = channel occupancy, the pure
  α–β cost), and :func:`derive_bucket_exposures` reports it **per bucket**
  (per dp gradient bucket / per fsdp unit gather).
* ``"bound"`` — the run was blocking (communication serializes after
  compute; the time-parity reference the analytic model and
  :func:`~repro.perf.calibrate.measure_plan` ``eager=False`` are checked
  against): the best available estimate is the eager upper bound
  ``min(C, K) / C`` from the axis' total collective wall-time ``C`` and
  the compute ``K`` that could hide it.

Phase conventions:

========================  ==================================================
phase                     producer
========================  ==================================================
``"dp_sync"``             :func:`repro.dist.average_gradients` under
                          ``comm.phase_scope("dp_sync")``, or the DP buckets
                          of :func:`~repro.perf.calibrate.measure_plan`
``"fsdp_gather"``         :class:`repro.parallel.FSDPModel` unit materialize
``"forward"``             compute charged during forward
``"backward"``            compute charged before the DP gradient sync
========================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "DP_SYNC_PHASE",
    "FSDP_GATHER_PHASE",
    "FORWARD_PHASE",
    "BACKWARD_PHASE",
    "OVERLAP_PHASES",
    "BucketExposure",
    "OverlapReport",
    "DerivedOverlaps",
    "phase_comm_seconds",
    "derive_bucket_exposures",
    "derive_overlap",
    "derive_overlaps",
]

DP_SYNC_PHASE = "dp_sync"
FSDP_GATHER_PHASE = "fsdp_gather"
FORWARD_PHASE = "forward"
BACKWARD_PHASE = "backward"

#: The phases an eager issue-queue simulation overlaps with compute — pass
#: ``VirtualClock(machine, eager_phases=OVERLAP_PHASES)`` to simulate
#: bucketed-DDP / FSDP-prefetch scheduling.  TP collectives stay blocking
#: (critical path), matching the analytic model's overlap-0 treatment.
OVERLAP_PHASES = frozenset({DP_SYNC_PHASE, FSDP_GATHER_PHASE})


@dataclass(frozen=True)
class BucketExposure:
    """One communication bucket's schedule-accurate exposure.

    A *bucket* is the *i*-th collective a rank issues in the phase (dp
    gradient bucket *i*, fsdp unit *i*'s gather); values are means over the
    ranks that issued it.  ``comm_seconds`` is channel occupancy (the pure
    α–β cost), ``exposed_seconds`` the stall the drain actually charged.
    """

    phase: str
    op: str
    index: int
    comm_seconds: float
    exposed_seconds: float

    @property
    def hidden_fraction(self) -> float:
        """Share of this bucket's cost hidden under compute, in [0, 1]."""
        if self.comm_seconds <= 0.0:
            return 0.0
        return min(1.0, max(0.0, 1.0 - self.exposed_seconds / self.comm_seconds))


@dataclass(frozen=True)
class OverlapReport:
    """Derived overlap of one communication axis against one compute phase."""

    comm_phase: str
    compute_phase: str
    comm_seconds: float      # mean per-rank collective wall-time on the axis
    compute_seconds: float   # mean per-rank compute available to hide it
    overlap: float           # derived hidden fraction in [0, 1]
    exposed_seconds: float = -1.0  # mean per-rank exposed comm (measured only)
    source: str = "bound"    # "measured" (issue queue) or "bound" (min(C,K)/C)


@dataclass(frozen=True)
class DerivedOverlaps:
    """The pair :func:`~repro.perf.comm_model.estimate_step_comm` consumes.

    ``buckets`` carries the per-bucket exposure detail when the run used an
    issue-queue clock (empty for blocking runs) — the aggregate ``dp`` /
    ``fsdp`` fractions are what the analytic model consumes, the buckets
    are the evidence.
    """

    dp: OverlapReport
    fsdp: OverlapReport
    buckets: tuple[BucketExposure, ...] = ()

    @property
    def dp_overlap(self) -> float:
        return self.dp.overlap

    @property
    def fsdp_overlap(self) -> float:
        return self.fsdp.overlap

    def buckets_for(self, phase: str) -> tuple[BucketExposure, ...]:
        return tuple(b for b in self.buckets if b.phase == phase)


def phase_comm_seconds(world: Any, phase: str, rank: int) -> float:
    """One rank's summed collective wall-time (``vend − vstart``) in *phase*.

    Only completed virtual-clock-stamped records contribute; includes time
    spent waiting for stragglers (that wait is real exposure too).  Reads
    the :class:`~repro.dist.stats.TrafficLog` bucket totals (O(buckets)).
    """
    return world.traffic.totals(phase=phase, rank=rank).vseconds


def _require_clock(world: Any):
    clock = getattr(world, "clock", None)
    if clock is None:
        raise ValueError("overlap derivation needs a world run with a virtual clock")
    return clock


def derive_bucket_exposures(world: Any, phase: str) -> list[BucketExposure]:
    """Per-bucket exposure of one eagerly-simulated phase.

    Bucket *i* aggregates the *i*-th :class:`~repro.perf.clock.CommInterval`
    each rank issued in *phase* (SPMD programs issue the same schedule on
    every rank), averaging cost and exposure over the ranks that reached
    it.  Empty for phases the clock did not simulate eagerly.
    """
    clock = _require_clock(world)
    if phase not in clock.eager_phases:
        return []
    per_rank = [
        clock.comm_intervals(rank=r, phase=phase)
        for r in range(clock.world_size)
    ]
    per_rank = [ivs for ivs in per_rank if ivs]
    if not per_rank:
        return []
    buckets: list[BucketExposure] = []
    depth = max(len(ivs) for ivs in per_rank)
    for i in range(depth):
        stack = [ivs[i] for ivs in per_rank if len(ivs) > i]
        buckets.append(
            BucketExposure(
                phase=phase,
                op=stack[0].op,
                index=i,
                comm_seconds=sum(iv.seconds for iv in stack) / len(stack),
                exposed_seconds=sum(iv.exposed for iv in stack) / len(stack),
            )
        )
    return buckets


def derive_overlap(world: Any, comm_phase: str, compute_phase: str) -> OverlapReport:
    """Derive one axis' hidden fraction from a finished virtual-clock world.

    *world* is the :class:`~repro.dist.World` of a ``run_spmd(...,
    clock=VirtualClock(machine))`` run whose collectives were phase-tagged.
    If the clock simulated *comm_phase* eagerly the fraction is **measured**
    from per-bucket exposure (``1 − exposed/busy``); otherwise it falls back
    to the ``min(C, K)/C`` **bound**.  Per-rank seconds are averaged over
    the ranks that issued any communication in *comm_phase* (in a mesh world
    every rank does).
    """
    clock = _require_clock(world)
    if comm_phase in clock.eager_phases:
        busy: dict[int, float] = {}
        exposed: dict[int, float] = {}
        for r in range(clock.world_size):
            if clock.comm_count(r, comm_phase):
                busy[r] = clock.comm_busy_seconds(rank=r, phase=comm_phase)
                exposed[r] = clock.exposed_seconds(rank=r, phase=comm_phase)
        if busy:
            comm = sum(busy.values()) / len(busy)
            exp = sum(exposed.values()) / len(exposed)
            compute = sum(
                clock.compute_seconds(rank=r, phase=compute_phase) for r in busy
            ) / len(busy)
            overlap = 0.0
            if comm > 0.0:
                overlap = min(1.0, max(0.0, 1.0 - exp / comm))
            return OverlapReport(
                comm_phase=comm_phase,
                compute_phase=compute_phase,
                comm_seconds=comm,
                compute_seconds=compute,
                overlap=overlap,
                exposed_seconds=exp,
                source="measured",
            )
        return OverlapReport(comm_phase, compute_phase, 0.0, 0.0, 0.0, 0.0, "measured")
    # Blocking phase: every settled interval has ``exposed == end − issue``,
    # the collective's wall-time including straggler wait.  Size-1 groups
    # never touch the clock and aborted collectives never settle, so neither
    # contributes; barriers are priced by the clock but move no data.
    per_rank: dict[int, float] = {}
    for rank in range(clock.world_size):
        ivs = [
            iv.exposed
            for iv in clock.comm_intervals(rank=rank, phase=comm_phase)
            if iv.op != "barrier"
        ]
        if ivs:
            per_rank[rank] = sum(ivs)
    comm = sum(per_rank.values()) / len(per_rank) if per_rank else 0.0
    if comm <= 0.0:
        # No communication in the phase: nothing to hide, overlap 0.
        return OverlapReport(comm_phase, compute_phase, 0.0, 0.0, 0.0)
    compute = sum(
        clock.compute_seconds(rank=rank, phase=compute_phase) for rank in per_rank
    ) / len(per_rank)
    return OverlapReport(
        comm_phase=comm_phase,
        compute_phase=compute_phase,
        comm_seconds=comm,
        compute_seconds=compute,
        overlap=min(comm, compute) / comm,
    )


def derive_overlaps(world: Any) -> DerivedOverlaps:
    """Derive both fractions with the standard phase conventions.

    DP gradient AllReduce hides under backward compute; FSDP forward
    AllGathers hide under forward compute.  Axes with no traffic report
    overlap 0 — feeding that into :func:`estimate_step_comm` simply leaves
    the (absent) axis priced at zero anyway.  Eagerly-simulated runs also
    attach the per-bucket exposure evidence.

    *world* may be a live :class:`~repro.dist.World` **or** a replayed
    timeline (:class:`~repro.perf.schedule.ReplayResult`): both paths read
    only the ``.clock``'s archived intervals and totals.
    """
    return DerivedOverlaps(
        dp=derive_overlap(world, DP_SYNC_PHASE, BACKWARD_PHASE),
        fsdp=derive_overlap(world, FSDP_GATHER_PHASE, FORWARD_PHASE),
        buckets=tuple(
            derive_bucket_exposures(world, DP_SYNC_PHASE)
            + derive_bucket_exposures(world, FSDP_GATHER_PHASE)
        ),
    )
