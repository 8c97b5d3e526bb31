"""Measured replay: the analytic/measured contract at plan scale.

:func:`measure_plan` writes the exact
:func:`~repro.perf.comm_model.step_comm_schedule` of a hybrid
(tp × sp × fsdp × dp) plan as a step program per rank
(:class:`~repro.perf.schedule.CapturedSchedule`, on the
:class:`~repro.parallel.DeviceMesh` rank layout) and runs it through a real
world, returning per-axis measured wire/seconds plus derived overlap
fractions; the measured fig-15/16 benchmarks sweep factorizations through
it.  :mod:`repro.perf.schedule` replays the same written schedule without
a world, making the same clock calls on one thread.  With ``eager=True`` the step runs on an
**issue-queue clock**: FSDP gathers prefetch under forward compute and the
DP gradient AllReduce is split into buckets issued *during* backward — the
derived overlaps then come from per-bucket measured exposure instead of
the ``min(comm, compute)`` bound.

:func:`_issue` issues one ring collective with an exact per-rank payload;
``tests/test_virtual_clock.py::TestWireParity`` drives every ring op
through it at 2/4/8 ranks, intra- and inter-node, and checks measured wire
bytes and virtual seconds equal the :class:`~repro.perf.cost.CostModel`
exactly.  ``TestMeasuredPlans`` and ``TestEagerMeasuredPlans`` gate
:func:`measure_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dist import run_spmd_world
from .clock import VirtualClock
from .comm_model import (
    CommBreakdown,
    axis_group_sizes,
    estimate_step_comm,
    step_comm_schedule,
)
from .cost import MAX_DP_BUCKETS, CostModel
from .flops import TRAIN_MULT, estimate_flops
from .machine import MachineSpec, frontier
from .modelcfg import ModelConfig
from .overlap import OVERLAP_PHASES, DerivedOverlaps, derive_overlaps, phase_comm_seconds
from .plan import ParallelPlan, Precision, Workload
from .schedule import CapturedSchedule, ScheduleEvent, _checked_scale
from .throughput import batch_efficiency

__all__ = [
    "RING_OPS",
    "MeasuredComm",
    "measure_plan",
]

#: The collectives whose wire accounting the analytic model prices.
RING_OPS = ("all_reduce", "all_gather", "reduce_scatter", "broadcast", "all_to_all")

#: Schedule axis → traffic phase stamped by the measured replay.  The sp
#: phases match what the live :mod:`repro.parallel.sp` wrapper stamps, so
#: the analytic/simulated/measured books reconcile against real SP worlds.
AXIS_PHASES = {
    "tp": "tp",
    "gather": "gather",
    "sp": "sp_a2a",
    "sp_gather": "sp_gather",
    "sp_scatter": "sp_scatter",
    "fsdp": "fsdp_gather",
    "dp": "dp_sync",
}

#: Schedule axis → the mesh group that carries it.
_AXIS_GROUPS = {
    "tp": "tp",
    "gather": "tp",
    "sp": "sp",
    "sp_gather": "sp",
    "sp_scatter": "sp",
    "fsdp": "fsdp",
    "dp": "dp",
}

#: Axes whose collectives block on the critical path in the eager replay —
#: TP AllReduces, the channel gather and the Ulysses SP collectives all
#: produce activations the next op consumes immediately.
BLOCKING_AXES = ("tp", "gather", "sp", "sp_gather", "sp_scatter")


def _issue(comm, op: str, payload_bytes: int, group, scratch: dict) -> None:
    """Issue one collective with exactly *payload_bytes* of per-rank payload
    (uint8 buffers, so any integer byte count is representable).

    *scratch* is the calling rank's buffer cache: input and ``out=``
    buffers are allocated once per (kind, size) and reused across calls,
    so :func:`measure_plan` measures the runtime's steady-state data path
    (warm buffers, zero allocations per collective) instead of the
    allocator.
    """
    n = group.size

    def buffer(kind: str, nbytes: int) -> np.ndarray:
        key = (kind, nbytes)
        buf = scratch.get(key)
        if buf is None:
            buf = scratch[key] = np.zeros(nbytes, dtype=np.uint8)
        return buf

    buf = buffer("in", payload_bytes)
    if op == "all_reduce":
        comm.all_reduce(buf, group=group, out=buffer("out", payload_bytes))
    elif op == "all_gather":
        # In place, as all_gather_into_tensor: this rank's slot is its input.
        me = group.rank_index(comm.rank)
        outs = [buf if i == me else buffer(f"ag{i}", payload_bytes) for i in range(n)]
        comm.all_gather(buf, group=group, out=outs)
    elif op == "reduce_scatter":
        comm.reduce_scatter(buf, group=group, out=buffer("rs", payload_bytes // n))
    elif op == "broadcast":
        root = group.ranks[0]
        comm.broadcast(
            buf if comm.rank == root else None, root=root, group=group,
            out=buffer("bc", payload_bytes),
        )
    elif op == "all_to_all":
        outs = [buffer(f"aa{i}", payload_bytes // n) for i in range(n)]
        comm.all_to_all(np.split(buf, n), group=group, out=outs)
    else:
        raise ValueError(f"unknown ring collective {op!r}")


@dataclass(frozen=True)
class MeasuredComm:
    """One plan's step replayed through a real DeviceMesh world."""

    plan: ParallelPlan
    world_size: int
    wire: dict[str, int]          # per-rank measured wire bytes by axis, per step
    seconds: dict[str, float]     # per-rank measured collective seconds by axis, per step
    step_seconds: float           # virtual makespan per step (compute + exposed comm)
    overlaps: DerivedOverlaps
    predicted: CommBreakdown      # analytic, overlap 0 (raw comm)
    eager: bool = False           # issue-queue replay (overlaps are measured)
    n_steps: int = 1              # steps the world actually ran
    rank_times: tuple[float, ...] = ()  # final per-rank virtual clocks (whole run)
    schedule: object | None = None  # CapturedSchedule when capture=True
    world: object | None = None     # the finished World when keep_world=True

    @property
    def comm_seconds(self) -> float:
        return sum(self.seconds.values())

    def wire_matches_predicted(self) -> bool:
        return all(
            self.wire.get(axis, 0) == predicted
            for axis, predicted in self.predicted.wire_by_axis().items()
        )


def _dp_bucket_payloads(payload: int, group_size: int, buckets: int) -> list[int]:
    """Split a DP AllReduce payload into bucket payloads, wire-exactly.

    Ring wire volume is ``2·(n−1)·p // n`` — linear in *p* only when every
    bucket stays divisible by *n*, so chunks are floored to multiples of
    the group size and the remainder rides the last bucket.  Payloads that
    cannot split exactly (not divisible by *n*, or smaller than one chunk
    per bucket) stay whole: parity with the unsplit analytic prediction
    beats bucketing fidelity.
    """
    if buckets <= 1 or group_size <= 1 or payload % group_size:
        return [payload]
    base = (payload // buckets) // group_size * group_size
    if base <= 0:
        return [payload]
    chunks = [base] * (buckets - 1)
    chunks.append(payload - base * (buckets - 1))
    return chunks


def _write_step(
    model: ModelConfig,
    workload: Workload,
    plan: ParallelPlan,
    machine: MachineSpec,
    precision: Precision = Precision(),
    eager: bool = False,
    dp_buckets: int | None = None,
    compute_scale: float = 1.0,
) -> CapturedSchedule:
    """Write one step of *plan* as a :class:`CapturedSchedule`, rank by rank.

    Each rank's program is the :func:`step_comm_schedule` collectives on
    its own mesh groups, phase-tagged per axis, with forward/backward
    compute charged around them, by :func:`measure_plan`'s rules.  A
    zero-second charge is left out, as ``Communicator.charge_compute``
    skips it.
    """
    from ..parallel.mesh import _layout  # runtime import: parallel pulls nn

    scale = _checked_scale(compute_scale)
    events = step_comm_schedule(model, workload, plan, precision)
    sizes = axis_group_sizes(plan)
    for ev in events:
        if ev.op in ("reduce_scatter", "all_to_all") and ev.payload_bytes % sizes[ev.axis]:
            raise ValueError(
                f"{ev.op} payload {ev.payload_bytes} not divisible by group size "
                f"{sizes[ev.axis]}: pick shapes whose payloads split evenly or the "
                "padded-collective convention breaks exact wire parity"
            )
    colls = [(ev.axis, ev.op, ev.payload_bytes) for ev in events for _ in range(ev.count)]
    own = TRAIN_MULT * estimate_flops(model, workload, plan).total
    compute = own / (machine.peak_flops * batch_efficiency(machine, workload.batch))
    compute *= scale
    fwd_seconds, bwd_seconds = compute / 3.0, 2.0 * compute / 3.0
    cost = CostModel(machine)
    written: list[ScheduleEvent] = []
    for rank in range(plan.total_gpus):
        _, mesh = _layout(rank, plan.tp, plan.sp, plan.fsdp, plan.dp)

        def charge(seconds: float, phase: str) -> None:
            if seconds > 0.0:
                written.append(ScheduleEvent("compute", rank, phase=phase, seconds=seconds))

        def issue(axis: str, op: str, payload: int) -> None:
            written.append(ScheduleEvent(
                "coll", rank, op=op, phase=AXIS_PHASES[axis], payload_bytes=payload,
                group=mesh[_AXIS_GROUPS[axis]],
            ))

        if not eager:
            charge(fwd_seconds, "forward")
            for c in colls:
                if c[0] != "dp":
                    issue(*c)
            charge(bwd_seconds, "backward")
            for c in colls:
                if c[0] == "dp":
                    issue(*c)
            continue
        # Critical-path collectives first: TP AllReduces, the channel
        # gather and the Ulysses SP collectives block exactly as in a
        # Megatron-style implementation.
        for c in colls:
            if c[0] in BLOCKING_AXES:
                issue(*c)
        # Forward: dispatch each FSDP gather, then hide it under the next
        # slice of forward compute (the prefetch schedule).
        gathers = [c for c in colls if c[:2] == ("fsdp", "all_gather")]
        for c in gathers:
            issue(*c)
            charge(fwd_seconds / len(gathers), "forward")
        if not gathers:
            charge(fwd_seconds, "forward")
        # Backward: each gradient collective is ready only after its slice
        # of backward compute — charge first, then dispatch (bucketed DDP).
        grads: list[tuple[str, str, int]] = []
        for axis, op, payload in colls:
            if (axis, op) == ("dp", "all_reduce"):
                k = dp_buckets if dp_buckets is not None else cost.bucket_cap(
                    op, payload, plan.dp, cost.intra_node(mesh["dp"]), MAX_DP_BUCKETS
                )
                grads.extend((axis, op, p) for p in _dp_bucket_payloads(payload, plan.dp, k))
            elif axis == "dp" or (axis == "fsdp" and op != "all_gather"):
                grads.append((axis, op, payload))
        for c in grads:
            charge(bwd_seconds / len(grads), "backward")
            issue(*c)
        if not grads:
            charge(bwd_seconds, "backward")
        # The end-of-step drain charges whatever exposure the schedule
        # failed to hide (run_spmd finalizes each rank too, but the
        # explicit drain marks the optimizer boundary inside the step, so
        # a replayed step settles at the same point).
        written.append(ScheduleEvent("drain", rank))
    return CapturedSchedule(
        plan.total_gpus, OVERLAP_PHASES if eager else frozenset(), tuple(written)
    )


def measure_plan(
    model: ModelConfig,
    workload: Workload,
    plan: ParallelPlan,
    machine: MachineSpec | None = None,
    precision: Precision = Precision(),
    eager: bool = False,
    dp_buckets: int | None = None,
    compute_scale: float = 1.0,
    workspace: dict | None = None,
    n_steps: int = 1,
    capture: bool = False,
    keep_world: bool = False,
) -> MeasuredComm:
    """Run one step's collective schedule through a real SPMD world.

    The step is first written down as a :class:`CapturedSchedule`: each
    rank issues the events of :func:`step_comm_schedule` on its own mesh
    groups (the :class:`~repro.parallel.DeviceMesh` layout the plan
    prescribes, TP innermost), phase-tagged per axis, with forward/backward
    compute charged around them (⅓ / ⅔ of the plan's step FLOPs at the
    plan's batch efficiency).  Every rank of a real world then executes its
    own events.  Returns measured per-axis wire/seconds — comparable
    byte-for-byte with :func:`estimate_step_comm` — plus overlap fractions
    derived from the run's own timelines.

    ``eager=False`` (default) keeps the blocking step: communication
    serializes after compute, measured collective seconds equal the
    analytic un-overlapped total, and the derived overlaps are the
    ``min(comm, compute)`` bound.  ``eager=True`` writes the step the way
    an overlapped implementation runs it, on an issue-queue clock:

    * TP, channel-gather and Ulysses SP collectives stay blocking
      (critical path);
    * FSDP gathers are dispatched eagerly, each *before* a slice of
      forward compute (prefetch under the current unit's work);
    * the FSDP gradient ReduceScatter and the DP AllReduce — the latter
      split into wire-exact buckets — are dispatched during backward, each
      *after* the compute slice that produced its gradients (bucketed-DDP
      scheduling).  ``dp_buckets=None`` picks the bucket count with
      :meth:`~repro.perf.cost.CostModel.bucket_cap` (at most
      :data:`~repro.perf.cost.MAX_DP_BUCKETS`); an int splits into exactly
      that many — what a scaled-down stand-in passes when the real plan's
      volume/latency ratio justifies it (see
      :func:`~repro.perf.autotune.simulated_overlaps`);
    * an end-of-step drain settles what is still in flight.

    Exposure is whatever the end-of-step drain cannot hide, so
    ``overlaps`` carries **measured per-bucket** fractions
    (:class:`~repro.perf.overlap.BucketExposure`) and ``step_seconds`` is
    the overlapped makespan.  Wire accounting is identical in both modes.

    ``compute_scale`` (finite, ``>= 0``) multiplies the charged
    forward/backward seconds, so a scaled-down world can reproduce a larger
    plan's compute/comm balance (overlap fractions depend on exactly that
    ratio).  The autotuner's oracle writes its stand-in steps at ``1.0``
    and turns the same knob at replay time
    (:class:`~repro.perf.schedule.ReplayVariant`).

    ``workspace`` is an optional caller-held dict that carries each rank's
    collective buffers across calls: a sweep (or a benchmark loop) that
    runs many plans reuses warm preallocated buffers instead of
    first-touching a fresh working set per world.  Results are unaffected —
    only the allocator traffic changes.

    ``n_steps`` runs the step that many times in one world (the reported
    ``wire``/``seconds``/``step_seconds`` stay **per step**; ``rank_times``
    carries the whole run's final per-rank clocks).  ``capture=True``
    attaches the written one-step schedule: :func:`repro.perf.schedule.replay`
    advances it arbitrarily many steps on one thread, through the same
    clock calls, bitwise equal to this world run for as many steps.

    ``keep_world=True`` attaches the finished world to the result — the
    observability layer reads its clock intervals and traffic log
    (:func:`repro.obs.commvol.comm_volume_report`,
    :func:`repro.obs.trace.chrome_trace`).
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    machine = machine if machine is not None else frontier()
    schedule = _write_step(
        model, workload, plan, machine, precision, eager, dp_buckets, compute_scale
    )
    programs = [schedule.events_for(rank) for rank in range(schedule.world_size)]
    clock = VirtualClock(machine, eager_phases=schedule.eager_phases)

    def fn(comm):
        program = programs[comm.rank]
        groups = {ev.group: comm.group(ev.group) for ev in program if ev.kind == "coll"}
        # Per-rank buffer cache: the run reuses warm input/out buffers
        # across the schedule, measuring the runtime's steady-state data
        # path rather than the host allocator.  A caller-held *workspace*
        # extends the reuse across worlds (sweeps, benchmark repetitions).
        scratch: dict = {} if workspace is None else workspace.setdefault(comm.rank, {})
        for _ in range(n_steps):
            for ev in program:
                if ev.kind == "coll":
                    comm.phase = ev.phase
                    _issue(comm, ev.op, ev.payload_bytes, groups[ev.group], scratch)
                elif ev.kind == "compute":
                    comm.charge_compute(ev.seconds, phase=ev.phase, label=ev.label)
                else:
                    comm.drain_comm()
        return comm.now()

    _, world = run_spmd_world(fn, plan.total_gpus, clock=clock)
    sizes = axis_group_sizes(plan)
    wire = {
        axis: world.traffic.wire_bytes(phase=phase, rank=0) // n_steps
        for axis, phase in AXIS_PHASES.items()
        if sizes[axis] > 1
    }
    seconds = {
        axis: phase_comm_seconds(world, phase, rank=0) / n_steps
        for axis, phase in AXIS_PHASES.items()
        if sizes[axis] > 1
    }
    predicted = estimate_step_comm(
        model, workload, plan, machine, precision, dp_overlap=0.0, fsdp_overlap=0.0
    )
    return MeasuredComm(
        plan=plan,
        world_size=plan.total_gpus,
        wire=wire,
        seconds=seconds,
        step_seconds=clock.elapsed() / n_steps,
        overlaps=derive_overlaps(world),
        predicted=predicted,
        eager=eager,
        n_steps=n_steps,
        rank_times=tuple(clock.times()),
        schedule=schedule if capture else None,
        world=world if keep_world else None,
    )
