"""Step-schedule replay: write one step as events, replay N cheaply.

A steady-state training step repeats an identical schedule of compute
charges and collectives.  A :class:`CapturedSchedule` writes one step down
as per-rank event lists — :func:`~repro.perf.calibrate.measure_plan`
writes its step from :func:`~repro.perf.comm_model.step_comm_schedule`,
and its live world executes those very events rank by rank — and this
module re-executes such a schedule as **pure event arithmetic**, in one
pipeline:

``CapturedSchedule`` → :class:`ReplayProgram` → float kernel → ``VirtualClock``

* **Lower once.**  Which rank issues what, in which order, depends only on
  the schedule — never on the machine, the cost model or the compute scale.
  :class:`ReplayProgram` walks the per-rank cursors through a rendezvous
  table exactly once and emits a linear program of arithmetic ops with
  every dependency (collective joins, drain order) already resolved.
* **Run one kernel.**  The program is executed as straight-line python-float
  arithmetic, once per :class:`ReplayVariant` (a machine and a compute
  scale).  It performs the float operations the live
  :class:`~repro.perf.clock.VirtualClock` performs under the threaded
  runtime, in the same per-rank order, so the replayed timeline of step *k*
  is **bitwise identical** to a live threaded run of the same events for
  *k* steps (virtual times are pure functions of program order; see the
  determinism note in :mod:`repro.perf.clock`).
* **Read out through the clock.**  The kernel's output is loaded into a real
  ``VirtualClock`` (:meth:`~repro.perf.clock.VirtualClock.load_timeline`),
  so ``ReplayResult.clock`` answers every query a live clock answers —
  totals, archived intervals, ``timeline()`` for the trace exporter.

Write → replay::

    sched = measure_plan(model, workload, plan, machine, eager=True,
                         capture=True).schedule     # the step, as events
    result = replay(sched, machine, n_steps=1000)   # pure arithmetic
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
(join a group collective: ``start = max(bids)``, ``end = start + cost``),
and ``drain`` (settle the rank's eager issue queue,
``Communicator.drain_comm``).  Dependencies are
implicit in the per-rank program order plus the cross-rank ``coll`` group
joins, so the flat list *is* the dependency graph.

``tests/test_schedule_replay.py`` checks replay against live threaded runs
bitwise: times, archived intervals, timelines and overlaps.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
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
    """The outcome of a replay: the loaded clock plus metadata.

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
        return self.elapsed / self.n_steps if self.n_steps else 0.0

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


_C_CHARGE, _C_BID_BLOCK, _C_BID_EAGER, _C_COLL, _C_DRAIN = range(5)


class ReplayProgram:
    """A :class:`CapturedSchedule` lowered to a linear op program.

    Lowering walks each rank's program with a cursor for
    ``n_steps`` (plus the rank-exit drains): collectives wait in a
    rendezvous table until every group member's cursor reaches them — the
    protocol the threaded runtime runs under its slot lock — and every
    clock effect becomes one arithmetic op: compute charges, arrival bids,
    collective completions (a max over the group's bid slots) and drain
    settlements.  Slot arenas (bids / pending) are free-listed, so their
    size is the schedule's peak concurrency, not its length; one recorded
    span per charge and per settled collective is the only per-event state
    kept.

    The issue-queue semantics are the schedule's own: a replay runs its
    ``eager_phases``.

    :meth:`run` prices the program for any list of :class:`ReplayVariant`.
    Raises :class:`ScheduleReplayError` at construction if the schedule
    deadlocks (a collective some member never joins), names a group the
    issuing rank is not in, or its members disagree on the op of a group's
    next collective.
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
        self.eager_phases = eager_set = frozenset(schedule.eager_phases)
        n = schedule.world_size
        programs = [schedule.events_for(r) for r in range(n)]
        lengths = [len(p) for p in programs]

        ops: list[tuple] = []
        cost_keys: dict[tuple[str, int, tuple[int, ...]], int] = {}
        free_bid: list[int] = []
        free_pend: list[int] = []
        hwm = [0, 0]  # arena high-water marks: bid / pend

        def alloc(free: list[int], which: int) -> int:
            if free:
                return free.pop()
            s = hwm[which]
            hwm[which] = s + 1
            return s

        # Recorded spans, per rank in program order — the rows the kernel's
        # output is zipped with for the clock's read-outs.
        charges: list[list[tuple]] = [[] for _ in range(n)]   # (cid, phase, label, seconds)
        archives: list[list[tuple]] = [[] for _ in range(n)]  # (aid, op, phase, kid)
        n_spans = [0, 0]  # charge / archive ids handed out

        def archive(rank: int, op_name: str, phase: str, kid: int) -> int:
            aid = n_spans[1]
            n_spans[1] = aid + 1
            archives[rank].append((aid, op_name, phase, kid))
            return aid

        # Structural stand-in for the clock's per-rank pending FIFO (issue
        # order is completion order on the one serial channel, see
        # VirtualClock).
        pending: list[deque] = [deque() for _ in range(n)]

        def emit_drain(rank: int) -> None:
            q = pending[rank]
            while q:
                pslot, op_name, phase, kid = q.popleft()
                ops.append((_C_DRAIN, rank, pslot, archive(rank, op_name, phase, kid)))
                free_pend.append(pslot)

        pos = [0] * n  # per-rank cursors, rewound at each step
        # Rendezvous table: group ranks -> (op, {rank: (bid slot, pend
        # slot, payload bid, phase)}).  One open slot per group
        # suffices: a rank blocks on its group's collective, so no
        # group can have two generations in flight at once.
        slots: dict[tuple[int, ...], tuple[str, dict[int, tuple]]] = {}

        def advance(rank: int) -> bool:
            """Walk one rank's cursor until it blocks; True if it moved."""
            evs = programs[rank]
            moved = False
            while pos[rank] < lengths[rank]:
                ev = evs[pos[rank]]
                kind = ev.kind
                if kind == "compute":
                    cid = n_spans[0]
                    n_spans[0] = cid + 1
                    seconds = float(ev.seconds)
                    charges[rank].append((cid, ev.phase, ev.label, seconds))
                    ops.append((_C_CHARGE, rank, seconds, cid))
                elif kind == "drain":
                    emit_drain(rank)
                elif kind == "coll":
                    key = ev.group
                    if rank not in key:
                        raise ScheduleReplayError(
                            f"rank {rank} event {pos[rank]} ({ev.op!r}): issued a "
                            f"collective on group {key} it is not a member of",
                            rank=rank, index=pos[rank], op=ev.op,
                        )
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
                    if ev.op != "barrier" and ev.phase in eager_set:
                        bslot = alloc(free_bid, 0)
                        pslot = alloc(free_pend, 1)
                        ops.append((_C_BID_EAGER, rank, bslot, pslot))
                    else:
                        # A blocking arrival drains first: the serial
                        # channel could not start it earlier anyway.
                        emit_drain(rank)
                        bslot = alloc(free_bid, 0)
                        ops.append((_C_BID_BLOCK, rank, bslot))
                        pslot = -1
                    arrivals[rank] = (bslot, pslot, ev.payload_bytes, ev.phase)
                    if len(arrivals) < len(key):
                        return True  # blocked awaiting the rest of the group
                    # Last arriver: price once (the group payload is the
                    # max bid), complete for every member, and push every
                    # member's cursor past its coll event.
                    del slots[key]
                    payload = max(a[2] for a in arrivals.values())
                    kid = cost_keys.setdefault(
                        (ev.op, payload, key), len(cost_keys)
                    )
                    members = []
                    for member in key:
                        m_b, m_p, _m_payload, m_phase = arrivals[member]
                        if m_p >= 0:
                            pending[member].append((m_p, ev.op, m_phase, kid))
                            members.append((member, m_b, m_p, -1))
                        else:
                            members.append(
                                (member, m_b, -1,
                                 archive(member, ev.op, m_phase, kid))
                            )
                        pos[member] += 1
                        free_bid.append(m_b)
                    ops.append((_C_COLL, kid, tuple(members)))
                    moved = True
                    continue
                else:  # pragma: no cover - CapturedSchedule rejects unknown kinds
                    raise ScheduleReplayError(f"unknown event kind {kind!r}")
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
        for rank in range(n):
            emit_drain(rank)  # rank-exit drain, like run_spmd

        self._ops = tuple(ops)
        self._cost_keys = tuple(cost_keys)  # dicts keep first-use order == id order
        self._n_bid, self._n_pend = hwm
        self._n_charges, self._n_archives = n_spans
        self._charges = charges
        self._archives = archives

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplayProgram(world={self.schedule.world_size}, "
            f"steps={self.n_steps}, ops={len(self._ops)}, "
            f"arenas=(bid={self._n_bid}, pend={self._n_pend}))"
        )

    def run(self, variants: Sequence[ReplayVariant]) -> list[ReplayResult]:
        """Price the program once per variant; one ReplayResult each."""
        results = []
        for v in variants:
            if not isinstance(v, ReplayVariant):
                raise TypeError(f"expected ReplayVariant, got {type(v).__name__}")
            clock = VirtualClock(v.machine, eager_phases=self.eager_phases)
            scale = float(v.compute_scale)
            times, *recorded = self._execute(
                scale, [clock.collective_seconds(*key) for key in self._cost_keys]
            )
            clock.load_timeline(times, partial(self._spans, scale, *recorded))
            results.append(
                ReplayResult(schedule=self.schedule, clock=clock, n_steps=self.n_steps)
            )
        return results

    def _execute(self, scale: float, cvals: list) -> tuple:
        """The kernel: one variant as straight-line python-float arithmetic.

        Each branch is the float arithmetic of the VirtualClock method it
        names, operand for operand — that is what keeps the result bitwise
        equal to a live run.  Returns the final per-rank times plus the
        recorded spans: every charge's start and every settled collective's
        issue / start / end / exposed, indexed by span id.
        """
        n = self.schedule.world_size
        t = [0.0] * n
        chan = [0.0] * n
        bids = [0.0] * self._n_bid
        pend_i = [0.0] * self._n_pend
        pend_s = [0.0] * self._n_pend
        pend_e = [0.0] * self._n_pend
        c_start = [0.0] * self._n_charges
        a_issue = [0.0] * self._n_archives
        a_start = [0.0] * self._n_archives
        a_end = [0.0] * self._n_archives
        a_exp = [0.0] * self._n_archives
        for op in self._ops:
            code = op[0]
            if code == _C_CHARGE:  # charge
                _, r, sec, cid = op
                tv = t[r]
                c_start[cid] = tv
                t[r] = tv + sec * scale
            elif code == _C_COLL:  # rendezvous max + collective_complete per member
                _, kid, members = op
                start = bids[members[0][1]]
                for m in members[1:]:
                    b = bids[m[1]]
                    if b > start:
                        start = b
                end = start + cvals[kid]
                for r, b, p, aid in members:
                    if chan[r] < end:
                        chan[r] = end
                    if p >= 0:  # eager: joins the pending queue
                        pend_s[p] = start
                        pend_e[p] = end
                    else:  # blocking: full wait exposed, rank stalls to end
                        issue = bids[b]
                        exp = end - issue
                        a_issue[aid] = issue
                        a_start[aid] = start
                        a_end[aid] = end
                        a_exp[aid] = exp if exp > 0.0 else 0.0
                        if t[r] < end:
                            t[r] = end
            elif code == _C_BID_EAGER:  # collective_arrival, eager
                _, r, b, p = op
                tv = t[r]
                cv = chan[r]
                bids[b] = tv if tv >= cv else cv
                pend_i[p] = tv
            elif code == _C_BID_BLOCK:  # collective_arrival, blocking (post-drain)
                _, r, b = op
                bids[b] = t[r]
            else:  # _C_DRAIN: one pending entry of drain
                _, r, p, aid = op
                e = pend_e[p]
                d = e - t[r]
                a_issue[aid] = pend_i[p]
                a_start[aid] = pend_s[p]
                a_end[aid] = e
                if d > 0.0:
                    a_exp[aid] = d
                    t[r] = e
        return t, c_start, a_issue, a_start, a_end, a_exp

    def _spans(self, scale, c_start, a_issue, a_start, a_end, a_exp) -> list[tuple]:
        """One variant's recorded spans as the per-rank ``(charges,
        collectives)`` rows :meth:`VirtualClock.load_timeline` folds."""
        keys = self._cost_keys
        return [
            (
                [
                    (phase, label, c_start[cid], seconds * scale)
                    for cid, phase, label, seconds in self._charges[rank]
                ],
                [
                    (op, phase, a_issue[aid], a_start[aid], a_end[aid],
                     a_exp[aid], keys[kid][1], keys[kid][2])
                    for aid, op, phase, kid in self._archives[rank]
                ],
            )
            for rank in range(self.schedule.world_size)
        ]


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
