"""Step-schedule replay: write one step as events, replay N cheaply.

A steady-state training step repeats an identical schedule of compute
charges and collectives.  A :class:`CapturedSchedule` writes one step down
as per-rank event lists — :func:`~repro.perf.calibrate.measure_plan`
writes its step from :func:`~repro.perf.comm_model.step_comm_schedule`,
and its live world executes those very events rank by rank — and this
module re-executes such a schedule on one thread, with no world:

``CapturedSchedule`` → :class:`ReplayProgram` → ``VirtualClock`` calls

* **Lower once.**  Which rank issues what, in which order, depends only on
  the schedule — never on the machine, the cost model or the compute scale.
  :class:`ReplayProgram` walks the per-rank cursors through a rendezvous
  table exactly once and emits the :class:`~repro.perf.clock.VirtualClock`
  calls a live world makes for those events, in an order that respects
  each rank's program and every group join.
* **Run on a clock.**  The calls are made on a fresh ``VirtualClock`` once
  per :class:`ReplayVariant` (a machine and a compute scale).  The clock's
  live methods are the only timing arithmetic, so the replayed timeline
  of step *k* is **bitwise identical** to a live threaded run of the same
  events for *k* steps (virtual times are pure functions of program order;
  see the determinism note in :mod:`repro.perf.clock`), and
  ``ReplayResult.clock`` answers every query a live clock answers —
  totals, archived intervals, ``timeline()`` for the trace exporter.

Write → replay::

    sched = measure_plan(model, workload, plan, machine, eager=True,
                         capture=True).schedule     # the step, as events
    result = replay(sched, machine, n_steps=1000)   # one thread, no world
    result.clock.times()  # == measure_plan(..., n_steps=1000).rank_times

:func:`replay` prices one variant, :func:`replay_many` amortizes one
lowering over many.  The autotuner's overlap oracle
(``repro.perf.autotune.simulated_overlaps``, which ``sweep_replay`` ranks
thousand-candidate sweeps through) writes one stand-in step per shape,
keeps its lowered :class:`ReplayProgram` and runs it once per new variant;
it starts no threaded world.

Phase conventions (mirrors :mod:`repro.perf.overlap`):

    =============  =======================  =================================
    phase          issued by                replay/overlap meaning
    =============  =======================  =================================
    ``forward``    forward compute charges  compute that hides fsdp_gather
    ``backward``   backward compute charges compute that hides dp_sync
    ``dp_sync``    DP gradient AllReduce    eager under ``OVERLAP_PHASES``
    ``fsdp_gather`` FSDP param AllGather    eager under ``OVERLAP_PHASES``
    ``tp``         TP activation AllReduce  blocking (critical path)
    ``gather``     head-gather AllGather    blocking (critical path)
    =============  =======================  =================================

Event kinds (the live calls each stands for): ``compute`` (charge seconds
onto the rank timeline, ``Communicator.charge_compute``), ``coll``
(join a group collective: ``start = max(bids)``, ``end = start + cost``;
one on a one-rank group leaves the clock alone),
and ``drain`` (settle the rank's eager issue queue,
``Communicator.drain_comm``).  Dependencies are
implicit in the per-rank program order plus the cross-rank ``coll`` group
joins, so the flat list *is* the dependency graph.

``tests/test_schedule_replay.py`` checks replay against live threaded runs
bitwise: times, archived intervals, timelines and overlaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .clock import VirtualClock
from .machine import MachineSpec

__all__ = [
    "ScheduleEvent",
    "CapturedSchedule",
    "ReplayResult",
    "ReplayVariant",
    "ReplayProgram",
    "ScheduleReplayError",
    "replay",
    "replay_many",
]

_KINDS = frozenset({"compute", "coll", "drain"})


class ScheduleReplayError(RuntimeError):
    """A schedule could not be replayed (mismatched groups,
    an op disagreement inside a group slot, or a collective some member
    never joins).

    Carries the failure's coordinates so drivers can localize a mismatched
    schedule without parsing the message: ``rank`` (the rank whose program
    failed, or the first blocked rank for a deadlock), ``index`` (its
    0-based event position), and ``op`` (the offending event's op, ``""``
    for opless kinds).  All three also appear in the rendered text.
    """

    def __init__(
        self,
        message: str,
        rank: int | None = None,
        index: int | None = None,
        op: str = "",
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.index = index
        self.op = op


@dataclass(frozen=True)
class ScheduleEvent:
    """One event of one rank's step program.

    Field usage by kind — unused fields hold their defaults:

    ``compute``: ``phase``, ``label``, ``seconds``
    ``coll``:    ``op``, ``phase``, ``payload_bytes`` (this rank's bid),
                 ``group`` (world-rank tuple)
    ``drain``:   (no payload)
    """

    kind: str
    rank: int
    op: str = ""
    phase: str = ""
    label: str = ""
    seconds: float = 0.0
    payload_bytes: int = 0
    group: tuple[int, ...] = ()


@dataclass(frozen=True)
class CapturedSchedule:
    """One step as a flat event list.

    Events are stored in per-rank program order, concatenated in rank
    order; :meth:`events_for` recovers one rank's program.  The schedule
    carries the eager-phase set it was written for, so a replay runs the
    same issue-queue semantics.
    """

    world_size: int
    eager_phases: frozenset[str] = frozenset()
    events: tuple[ScheduleEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {self.world_size}")
        for ev in self.events:
            if ev.kind not in _KINDS:
                raise ValueError(f"unknown schedule event kind {ev.kind!r}")
            if not 0 <= ev.rank < self.world_size:
                raise ValueError(
                    f"event rank {ev.rank} out of range for world of size "
                    f"{self.world_size}"
                )
            if ev.seconds < 0.0:
                raise ValueError(f"compute seconds must be >= 0, got {ev.seconds}")

    def events_for(self, rank: int) -> tuple[ScheduleEvent, ...]:
        """One rank's program, in issue order."""
        return tuple(ev for ev in self.events if ev.rank == rank)

    @property
    def n_collectives(self) -> int:
        return sum(1 for ev in self.events if ev.kind == "coll")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CapturedSchedule(world={self.world_size}, "
            f"events={len(self.events)}, colls={self.n_collectives}, "
            f"eager={sorted(self.eager_phases)})"
        )


@dataclass(frozen=True)
class ReplayResult:
    """The outcome of a replay: the clock it ran on plus metadata.

    Quacks enough like a :class:`~repro.dist.World` (it has ``.clock``)
    that :func:`repro.perf.overlap.derive_overlaps` and the trace exporter
    accept it directly — the bound path falls back to clock aggregates
    since a replay carries no traffic log.
    """

    schedule: CapturedSchedule
    clock: VirtualClock
    n_steps: int

    def times(self) -> list[float]:
        """Per-rank virtual completion times after ``n_steps`` replays."""
        return self.clock.times()

    @property
    def elapsed(self) -> float:
        """Virtual makespan of the whole replay (slowest rank)."""
        return self.clock.elapsed()

    @property
    def step_seconds(self) -> float:
        """Mean virtual seconds per replayed step."""
        return self.elapsed / self.n_steps

    def overlaps(self):
        """Derive overlap fractions from the replayed timeline."""
        from .overlap import derive_overlaps  # local: overlap imports clock too

        return derive_overlaps(self)


@dataclass(frozen=True)
class ReplayVariant:
    """One pricing of a lowered program: a machine (``None`` prices
    :func:`~repro.perf.machine.frontier`) and a compute scale that
    multiplies every compute charge of the schedule (``1.0`` leaves charges
    bitwise untouched)."""

    machine: MachineSpec | None = None
    compute_scale: float = 1.0

    def __post_init__(self) -> None:
        _checked_scale(self.compute_scale)


def _checked_scale(scale: float) -> float:
    """The one ``compute_scale`` rule, shared with
    :func:`~repro.perf.calibrate.measure_plan`: a finite float ``>= 0``."""
    s = float(scale)
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError(f"compute_scale must be finite and >= 0, got {scale}")
    return s


_CHARGE, _ARRIVE, _COLL, _DRAIN = range(4)


class ReplayProgram:
    """A :class:`CapturedSchedule` lowered to the clock calls a live world
    would make.

    Lowering walks each rank's program with a cursor for ``n_steps`` (plus
    the rank-exit drains): collectives wait in a rendezvous table until
    every group member's cursor reaches them — the protocol the threaded
    runtime runs under its slot lock — so the order in which the ranks meet
    at each collective is worked out once.  Each event becomes the
    :class:`~repro.perf.clock.VirtualClock` calls the runtime makes for it:
    ``charge`` for a compute event; ``collective_arrival`` plus ``now`` (the
    issue time) as each member arrives, then, once the group is complete,
    one ``collective_seconds`` priced at ``start = max(bids)`` and a
    ``collective_complete`` per member; ``drain`` for a drain event and at
    rank exit.  A one-rank group makes no clock call, as
    ``Communicator``'s rendezvous leaves the clock alone for it.

    :meth:`run` makes those calls on a fresh clock per
    :class:`ReplayVariant`, so a replay and a live run share one timing
    arithmetic.  The issue-queue semantics are the schedule's own: a replay
    runs its ``eager_phases``.  Raises :class:`ScheduleReplayError` at
    construction if the schedule deadlocks (a collective some member never
    joins), names a group the issuing rank is not in, or its members
    disagree on the op of a group's next collective.
    """

    def __init__(
        self,
        schedule: CapturedSchedule,
        n_steps: int = 1,
    ) -> None:
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        self.schedule = schedule
        self.n_steps = int(n_steps)
        self.eager_phases = frozenset(schedule.eager_phases)
        n = schedule.world_size
        programs = [schedule.events_for(r) for r in range(n)]
        lengths = [len(p) for p in programs]
        ops: list[tuple] = []
        pos = [0] * n  # per-rank cursors, rewound at each step
        # Rendezvous table: group ranks -> (op, {rank: (phase, payload
        # bid)}).  One open slot per group suffices: a rank blocks on its
        # group's collective, so no group can have two generations in
        # flight at once.
        slots: dict[tuple[int, ...], tuple[str, dict[int, tuple[str, int]]]] = {}

        def advance(rank: int) -> bool:
            """Walk one rank's cursor until it blocks; True if it moved."""
            evs = programs[rank]
            moved = False
            while pos[rank] < lengths[rank]:
                ev = evs[pos[rank]]
                if ev.kind == "compute":
                    ops.append((_CHARGE, rank, float(ev.seconds), ev.phase, ev.label))
                elif ev.kind == "drain":
                    ops.append((_DRAIN, rank))
                elif rank not in ev.group:  # "coll"
                    raise ScheduleReplayError(
                        f"rank {rank} event {pos[rank]} ({ev.op!r}): issued a "
                        f"collective on group {ev.group} it is not a member of",
                        rank=rank, index=pos[rank], op=ev.op,
                    )
                elif len(ev.group) > 1:
                    key = ev.group
                    op_name, arrivals = slots.setdefault(key, (ev.op, {}))
                    if rank in arrivals:
                        return moved  # still blocked awaiting the rest of the group
                    if op_name != ev.op:
                        raise ScheduleReplayError(
                            f"rank {rank} event {pos[rank]} ({ev.op!r}): group "
                            f"{key} rendezvous mismatch — peers opened the slot "
                            f"with {op_name!r}",
                            rank=rank, index=pos[rank], op=ev.op,
                        )
                    ops.append((_ARRIVE, rank, ev.op, ev.phase))
                    arrivals[rank] = (ev.phase, ev.payload_bytes)
                    if len(arrivals) < len(key):
                        return True  # blocked awaiting the rest of the group
                    # Last arriver: price once (the group payload is the
                    # max bid), complete for every member, and push every
                    # member's cursor past its coll event.
                    del slots[key]
                    payload = max(bid for _, bid in arrivals.values())
                    members = tuple((m, arrivals[m][0]) for m in key)
                    ops.append((_COLL, ev.op, payload, key, members))
                    for member in key:
                        pos[member] += 1
                    moved = True
                    continue
                pos[rank] += 1
                moved = True
            return moved

        for _ in range(self.n_steps):
            pos[:] = [0] * n
            while True:
                progressed = False
                for rank in range(n):
                    if pos[rank] < lengths[rank]:
                        progressed = advance(rank) or progressed
                if all(pos[r] >= lengths[r] for r in range(n)):
                    break
                if not progressed:
                    stuck = [
                        (r, pos[r], programs[r][pos[r]])
                        for r in range(n)
                        if pos[r] < lengths[r]
                    ]
                    detail = "; ".join(
                        f"rank {r} event {i}: {ev.kind}"
                        + (f" {ev.op!r}" if ev.op else "")
                        + (f" group={ev.group}" if ev.kind == "coll" else "")
                        for r, i, ev in stuck
                    )
                    first_rank, first_index, first_ev = stuck[0]
                    raise ScheduleReplayError(
                        f"schedule deadlocked; blocked cursors: {detail}",
                        rank=first_rank, index=first_index, op=first_ev.op,
                    )
        ops.extend((_DRAIN, rank) for rank in range(n))  # rank exit, like run_spmd
        self._ops = tuple(ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplayProgram(world={self.schedule.world_size}, "
            f"steps={self.n_steps}, ops={len(self._ops)})"
        )

    def run(self, variants: Sequence[ReplayVariant]) -> list[ReplayResult]:
        """Price the program once per variant; one ReplayResult each."""
        results = []
        for v in variants:
            if not isinstance(v, ReplayVariant):
                raise TypeError(f"expected ReplayVariant, got {type(v).__name__}")
            clock = VirtualClock(v.machine, eager_phases=self.eager_phases)
            self._execute(clock, float(v.compute_scale))
            results.append(
                ReplayResult(schedule=self.schedule, clock=clock, n_steps=self.n_steps)
            )
        return results

    def _execute(self, clock: VirtualClock, scale: float) -> None:
        """Make the program's clock calls on *clock*, every charge scaled
        by *scale*."""
        n = self.schedule.world_size
        clock.bind(n)
        charge, arrive, now = clock.charge, clock.collective_arrival, clock.now
        price, complete, drain = (
            clock.collective_seconds, clock.collective_complete, clock.drain
        )
        bids = [0.0] * n    # a rank has at most one collective open at a time
        issues = [0.0] * n
        for op in self._ops:
            code = op[0]
            if code == _CHARGE:
                charge(op[1], op[2] * scale, op[3], op[4])
            elif code == _ARRIVE:
                r = op[1]
                bids[r] = arrive(r, op[2], op[3])
                issues[r] = now(r)
            elif code == _COLL:
                _, name, payload, group, members = op
                start = bids[group[0]]
                for r in group:
                    if bids[r] > start:
                        start = bids[r]
                end = start + price(name, payload, group)
                for r, phase in members:
                    complete(r, name, phase, issues[r], start, end, payload, group)
            else:
                drain(op[1])


def replay(
    schedule: CapturedSchedule,
    machine: MachineSpec | None = None,
    n_steps: int = 1,
    compute_scale: float = 1.0,
) -> ReplayResult:
    """Replay *n_steps* of *schedule* under one pricing; see :class:`ReplayProgram`.

    With the ``machine`` a live world ran the schedule on, the replayed
    timeline of step *k* is bitwise equal to that live run of *k* steps.
    ``compute_scale`` multiplies every compute charge — the knob the
    autotuner's replay oracle turns to re-price a schedule for a different
    model size without writing it again.
    """
    variant = ReplayVariant(machine=machine, compute_scale=compute_scale)
    return ReplayProgram(schedule, n_steps).run([variant])[0]


def replay_many(
    schedule: CapturedSchedule,
    variants: Sequence[ReplayVariant],
    n_steps: int = 1,
) -> list[ReplayResult]:
    """Lower once, price many: :func:`replay` for a list of variants.

    ``replay_many(sched, [ReplayVariant(machine=m, compute_scale=s)])[0]``
    equals ``replay(sched, m, compute_scale=s)``; an N-variant call
    amortizes one lowering over every variant.  A caller that meets its
    variants one at a time keeps the :class:`ReplayProgram` and calls
    :meth:`ReplayProgram.run` per variant instead, as the autotuner's
    overlap oracle does.
    """
    return ReplayProgram(schedule, n_steps).run(variants)
