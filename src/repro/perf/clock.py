"""Deterministic virtual clock for the SPMD runtime.

``run_spmd(fn, n, clock=VirtualClock(machine))`` makes every collective in
:mod:`repro.dist.runtime` advance a simulated per-rank clock: the group's
members synchronize to ``max(arrival times) + CostModel seconds`` and every
traffic record is stamped with virtual start/end times.  Ranks charge local
compute with :meth:`Communicator.charge_compute`, which appends a
:class:`ComputeInterval` to the rank's timeline.

Eager issue queues
------------------

By default every collective is **blocking** in virtual time: the issuing
rank's clock advances to the group-wide completion before its program
continues.  Passing ``eager_phases={"dp_sync", "fsdp_gather"}`` turns the
clock into an **issue-queue simulation** for those phases: a collective
issued inside an eager phase is *dispatched* at record time onto the rank's
outstanding communication channel (one serial channel per rank, the NCCL
stream analogue) and completes concurrently with subsequently charged
compute.  The issuing rank's compute clock does **not** advance at dispatch;
instead the in-flight interval sits in the rank's pending queue until a
synchronization point *drains* it:

* a blocking collective (any op whose phase is not eager, and every
  ``barrier``) drains the queue first — channels are serial, so it could not
  start before the queue cleared anyway;
* an explicit :meth:`drain` (``Communicator.drain_comm``);
* rank exit (:func:`repro.dist.run_spmd` finalizes each rank's clock).

At drain time each pending interval is charged its **exposed** seconds — the
part of its completion the rank actually stalls on, ``max(0, end − clock)``
processed in channel order — and archived as a :class:`CommInterval`.  The
sum of exposures is exactly the communication a perfectly-eager schedule
fails to hide, which is what :func:`repro.perf.overlap.derive_overlap` turns
into per-bucket overlap fractions (replacing the aggregate
``min(comm, compute)`` bound).

Scheduling model: a collective *starts* at ``max over members of
max(issue time, channel-free time)`` and *ends* ``CostModel seconds`` later;
every member's channel is busy until then.  Causality invariants (pinned by
``tests/test_dist_properties.py``): ``issue ≤ start``, ``end = start +
cost``, ``0 ≤ exposed ≤ end − issue``.

Determinism: virtual times are pure functions of each rank's *program
order* — compute charges plus the maxima taken at collective rendezvous —
never of wall-clock time or thread scheduling, so repeated runs of the same
world produce bitwise-identical timelines (eager or not).  Step-schedule
replay (:class:`repro.perf.schedule.ReplayProgram`) rests on this: it makes
the same calls on one thread, in an order that keeps each rank's program
and every group join.

Thread-safety contract (by construction, no locks needed): ``bind`` runs
before the rank threads start; ``now``/``charge``/``sync``/``drain`` touch
only the calling rank's own slot; the cross-rank ``max`` over arrival bids
happens inside the runtime's rendezvous, where the group lock orders every
bid before the last arriver reads them and each waiter reads the result
only after the last arriver opened its gate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Collection, Sequence

from .cost import CostModel
from .machine import MachineSpec, frontier

__all__ = ["ComputeInterval", "CommInterval", "VirtualClock"]


@dataclass(frozen=True)
class ComputeInterval:
    """One charged compute span on a rank's virtual timeline."""

    rank: int
    phase: str
    label: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CommInterval:
    """One priced collective on a rank's virtual timeline.

    ``issue`` is the rank's clock when it dispatched the collective,
    ``start``/``end`` the group-wide channel occupancy (``end − start`` is
    exactly the α–β cost), and ``exposed`` the stall this rank paid for it:
    the full wait for a blocking collective, the drained remainder
    ``max(0, end − clock at drain)`` for an eager one (0 when compute fully
    hid it).

    ``payload_bytes`` is the group-wide payload the rendezvous priced (the
    max over member bids), ``wire_bytes`` this rank's ring wire volume for
    it, ``intra`` the link class the group rode (every member on one
    node), and ``group`` the member world ranks — the identity the trace
    exporter uses to tie one collective's per-rank intervals into a single
    flow.
    """

    rank: int
    op: str
    phase: str
    issue: float
    start: float
    end: float
    exposed: float
    payload_bytes: int
    wire_bytes: int
    intra: bool
    group: tuple[int, ...]

    @property
    def seconds(self) -> float:
        """Channel occupancy — the collective's priced cost."""
        return self.end - self.start

    @property
    def hidden(self) -> float:
        """Seconds of this collective the rank did *not* stall on."""
        return max(0.0, (self.end - self.issue) - self.exposed)

    @property
    def link(self) -> str:
        """Link class as the observability layer names it."""
        return "intra" if self.intra else "inter"


class VirtualClock:
    """Per-rank simulated time driven by one shared :class:`CostModel`.

    A clock belongs to **one world at a time**: :class:`~repro.dist.World`
    calls :meth:`bind` at construction, which resets the timelines.  Read
    ``times()`` / ``compute_intervals()`` / ``comm_intervals()`` between
    runs, not across them.

    ``eager_phases`` selects the traffic phases whose collectives are
    dispatched onto the per-rank issue queues instead of blocking (see the
    module docstring); ``barrier`` is always blocking regardless.
    """

    def __init__(
        self,
        machine: MachineSpec | None = None,
        eager_phases: Collection[str] | None = None,
    ) -> None:
        self.machine = machine = machine if machine is not None else frontier()
        self.cost = CostModel(machine)
        self.eager_phases = frozenset(eager_phases) if eager_phases else frozenset()
        self._times: list[float] = []
        self._compute: list[list[ComputeInterval]] = []
        # Issue-queue state: per-rank serial-channel free time, the in-flight
        # (pending) collectives, and the archive of drained/blocking ones.
        # Pending is a FIFO because issue order IS completion order on the
        # one serial channel: bid >= chan_free >= every previous end.
        self._chan_free: list[float] = []
        # (op, phase, issue, start, end, payload, wire, intra, group)
        self._pending: list[deque[tuple]] = []
        self._comm: list[list[CommInterval]] = []
        # Running per-(rank, phase) totals so overlap derivation reads
        # aggregates in O(1) instead of rescanning interval lists.
        self._compute_tot: list[dict[str, float]] = []
        self._busy_tot: list[dict[str, float]] = []
        self._exposed_tot: list[dict[str, float]] = []
        self._count_tot: list[dict[str, int]] = []
        # Running per-rank comm-volume totals keyed by (op, phase, intra):
        # (count, wire_bytes, busy_seconds).  The export hook the
        # observability layer (repro.obs.commvol) reads without rescanning
        # interval lists.
        self._vol_tot: list[dict[tuple[str, str, bool], tuple[int, int, float]]] = []
        # (op, payload, group) → (wire_bytes, intra, collective_seconds):
        # steady-state schedules reissue the same few collectives thousands
        # of times per step, and every *member* prices wire volume at
        # completion — memoized per clock (the cost model and its MachineSpec
        # are fixed for the clock's lifetime; spec tweaks go through
        # dataclasses.replace and build a fresh clock).  Rank threads price
        # under their world's run token (repro.dist.runtime); a fill that
        # still raced, from a rank unwinding an abort, only recomputes.
        self._price_memo: dict[tuple[str, int, tuple], tuple[int, bool, float]] = {}

    # -- world plumbing (called by repro.dist.runtime) ---------------------
    def bind(self, world_size: int) -> None:
        """Attach to a fresh world: zero all per-rank timelines."""
        n = int(world_size)
        self._times = [0.0] * n
        self._compute = [[] for _ in range(n)]
        self._chan_free = [0.0] * n
        self._pending = [deque() for _ in range(n)]
        self._comm = [[] for _ in range(n)]
        self._compute_tot = [{} for _ in range(n)]
        self._busy_tot = [{} for _ in range(n)]
        self._exposed_tot = [{} for _ in range(n)]
        self._count_tot = [{} for _ in range(n)]
        self._vol_tot = [{} for _ in range(n)]

    @property
    def world_size(self) -> int:
        return len(self._times)

    def now(self, rank: int) -> float:
        return self._times[rank]

    def sync(self, rank: int, t: float) -> None:
        """Advance *rank* to time *t* (never backwards)."""
        if t > self._times[rank]:
            self._times[rank] = t

    def charge(
        self, rank: int, seconds: float, phase: str = "compute", label: str = ""
    ) -> tuple[float, float]:
        """Append a compute interval to *rank*'s timeline; returns (start, end).

        Charged compute runs concurrently with any in-flight eager
        collectives — that concurrency is the whole point of the issue
        queue — so pending entries are left untouched; they settle at the
        next drain point.
        """
        if seconds < 0.0:
            raise ValueError(f"compute seconds must be >= 0, got {seconds}")
        start = self._times[rank]
        end = start + seconds
        self._times[rank] = end
        self._compute[rank].append(
            ComputeInterval(rank=rank, phase=phase, label=label, start=start, end=end)
        )
        tot = self._compute_tot[rank]
        tot[phase] = tot.get(phase, 0.0) + seconds
        return start, end

    def _price(
        self, op: str, payload_bytes: int, grp: tuple
    ) -> tuple[int, bool, float]:
        """Memoized ``(wire_bytes, intra, seconds)`` for one collective shape."""
        key = (op, int(payload_bytes), grp)
        hit = self._price_memo.get(key)
        if hit is None:
            if len(grp) > 1:
                wire = self.cost.wire_bytes(op, int(payload_bytes), len(grp))
                intra = self.cost.intra_node(grp)
            else:
                wire, intra = 0, True
            secs = self.cost.collective_seconds_for(op, payload_bytes, grp)
            hit = self._price_memo[key] = (wire, intra, secs)
        return hit

    def collective_seconds(
        self, op: str, payload_bytes: int, ranks: Sequence[int]
    ) -> float:
        """α–β cost of one collective over the given world ranks (memoized)."""
        grp = ranks if isinstance(ranks, tuple) else tuple(ranks)
        return self._price(op, payload_bytes, grp)[2]

    # -- issue-queue engine (called by the runtime's rendezvous) -----------
    def is_eager(self, op: str, phase: str) -> bool:
        """Whether a collective of this (op, phase) dispatches eagerly."""
        return op != "barrier" and phase in self.eager_phases

    def collective_arrival(self, rank: int, op: str, phase: str) -> float:
        """This rank's arrival bid for the group-wide start maximum.

        Blocking collectives drain the rank's pending queue first (the
        serial channel could not start them earlier anyway), so their bid is
        the post-drain clock; eager ones bid ``max(clock, channel free)``
        without advancing anything.
        """
        if self.is_eager(op, phase):
            return max(self._times[rank], self._chan_free[rank])
        self.drain(rank)
        return self._times[rank]

    def collective_complete(
        self,
        rank: int,
        op: str,
        phase: str,
        issue: float,
        start: float,
        end: float,
        payload_bytes: int,
        ranks: Sequence[int],
    ) -> None:
        """Record one priced collective for *rank*.

        ``start``/``end`` are the group-wide channel occupancy computed at
        rendezvous (``start = max(bids)``, ``end = start + cost``).  A
        blocking collective stalls the rank to ``end`` and archives its full
        wait as exposed; an eager one only occupies the channel and joins
        the pending queue (exposure settled at drain).

        ``payload_bytes`` (the group max bid) and ``ranks`` (the group's
        world ranks) stamp the archived interval with its wire volume and
        link class; virtual times do not depend on them.
        """
        grp = ranks if isinstance(ranks, tuple) else tuple(ranks)
        wire, intra, _ = self._price(op, payload_bytes, grp)
        self._chan_free[rank] = max(self._chan_free[rank], end)
        if self.is_eager(op, phase):
            self._pending[rank].append(
                (op, phase, issue, start, end, int(payload_bytes), wire, intra, grp)
            )
            return
        self._archive(
            rank, op, phase, issue, start, end, max(0.0, end - issue),
            int(payload_bytes), wire, intra, grp,
        )
        self.sync(rank, end)

    def _archive(
        self, rank: int, op: str, phase: str, issue: float, start: float,
        end: float, exposed: float, payload: int, wire: int, intra: bool,
        group: tuple[int, ...],
    ) -> None:
        """Record one settled collective and fold it into the totals."""
        self._comm[rank].append(
            CommInterval(
                rank=rank, op=op, phase=phase, issue=issue, start=start, end=end,
                exposed=exposed, payload_bytes=payload, wire_bytes=wire,
                intra=intra, group=group,
            )
        )
        busy = self._busy_tot[rank]
        busy[phase] = busy.get(phase, 0.0) + (end - start)
        exp = self._exposed_tot[rank]
        exp[phase] = exp.get(phase, 0.0) + exposed
        cnt = self._count_tot[rank]
        cnt[phase] = cnt.get(phase, 0) + 1
        vol = self._vol_tot[rank]
        key = (op, phase, intra)
        c, w, busy_s = vol.get(key, (0, 0, 0.0))
        vol[key] = (c + 1, w + wire, busy_s + (end - start))

    def drain(self, rank: int) -> float:
        """Settle *rank*'s pending queue; returns the post-drain clock.

        Pending collectives settle in issue (= completion) order, each
        charged ``max(0, end − running clock)`` exposed seconds.
        """
        queue = self._pending[rank]
        if queue:
            w = self._times[rank]
            while queue:
                op, phase, issue, start, end, payload, wire, intra, grp = (
                    queue.popleft()
                )
                exposed = max(0.0, end - w)
                w = max(w, end)
                self._archive(
                    rank, op, phase, issue, start, end, exposed, payload, wire,
                    intra, grp,
                )
            self._times[rank] = w
        return self._times[rank]

    def finalize_rank(self, rank: int) -> None:
        """Rank exit hook: drain so ``times()`` is the true makespan."""
        self.drain(rank)

    # -- read-out ----------------------------------------------------------
    def times(self) -> list[float]:
        """Per-rank virtual completion times (a copy)."""
        return list(self._times)

    def elapsed(self) -> float:
        """The world's virtual makespan: the slowest rank's clock."""
        return max(self._times, default=0.0)

    def compute_intervals(
        self, rank: int | None = None, phase: str | None = None
    ) -> list[ComputeInterval]:
        ranks = range(len(self._compute)) if rank is None else (rank,)
        out: list[ComputeInterval] = []
        for r in ranks:
            out.extend(
                iv for iv in self._compute[r] if phase is None or iv.phase == phase
            )
        return out

    def compute_seconds(
        self, rank: int | None = None, phase: str | None = None
    ) -> float:
        """Total charged compute, from the running totals (O(ranks))."""
        return self._total(self._compute_tot, rank, phase)

    def _total(
        self, tables: list[dict[str, float]], rank: int | None, phase: str | None
    ) -> float:
        ranks = range(len(tables)) if rank is None else (rank,)
        if phase is None:
            return sum(sum(tables[r].values()) for r in ranks)
        return sum(tables[r].get(phase, 0.0) for r in ranks)

    def comm_intervals(
        self, rank: int | None = None, phase: str | None = None
    ) -> list[CommInterval]:
        """Settled collectives in issue order (pendings only after drain)."""
        ranks = range(len(self._comm)) if rank is None else (rank,)
        out: list[CommInterval] = []
        for r in ranks:
            out.extend(iv for iv in self._comm[r] if phase is None or iv.phase == phase)
        return out

    def exposed_seconds(
        self, rank: int | None = None, phase: str | None = None
    ) -> float:
        """Total communication stall (see :class:`CommInterval.exposed`),
        from the running totals (O(ranks))."""
        return self._total(self._exposed_tot, rank, phase)

    def comm_busy_seconds(
        self, rank: int | None = None, phase: str | None = None
    ) -> float:
        """Total channel occupancy, Σ(end − start) — the pure α–β cost —
        from the running totals (O(ranks))."""
        return self._total(self._busy_tot, rank, phase)

    def comm_count(self, rank: int, phase: str | None = None) -> int:
        """Number of settled collectives on *rank*'s timeline (O(1))."""
        if phase is None:
            return sum(self._count_tot[rank].values())
        return self._count_tot[rank].get(phase, 0)

    # -- observability export hooks (consumed by repro.obs) ----------------
    def timeline(self, rank: int) -> list[ComputeInterval | CommInterval]:
        """One rank's full archived timeline, time-ordered.

        Compute and settled comm intervals merged and sorted by
        ``(start, end)`` — the flat view the trace exporter
        (:mod:`repro.obs.trace`) lowers to Chrome trace tracks.  Eager
        collectives still in the pending queue are not included; drain (or
        let :func:`repro.dist.run_spmd` finalize the rank) first.
        """
        merged: list[ComputeInterval | CommInterval] = [
            *self._compute[rank], *self._comm[rank]
        ]
        merged.sort(key=lambda iv: (iv.start, iv.end))
        return merged

    def comm_volumes(
        self, rank: int | None = None
    ) -> dict[tuple[str, str, bool], tuple[int, int, float]]:
        """Settled comm volumes by ``(op, phase, intra)`` from running totals.

        Values are ``(count, wire_bytes, busy_seconds)`` — ``wire_bytes``
        is the per-rank ring wire volume and ``busy_seconds`` the pure α–β
        channel occupancy, both independent of overlap.  With ``rank=None``
        the totals are summed over every rank.  O(buckets), never rescans
        interval lists — the comm-volume report's *simulated* column
        (:func:`repro.obs.commvol.comm_volume_report`) reads this.
        """
        ranks = range(len(self._vol_tot)) if rank is None else (rank,)
        out: dict[tuple[str, str, bool], tuple[int, int, float]] = {}
        for r in ranks:
            for key, (c, w, s) in self._vol_tot[r].items():
                oc, ow, os_ = out.get(key, (0, 0, 0.0))
                out[key] = (oc + c, ow + w, os_ + s)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualClock(machine={self.machine.name!r}, "
            f"world={self.world_size}, elapsed={self.elapsed():.3e}s, "
            f"eager={sorted(self.eager_phases)})"
        )
