"""The threaded SPMD runtime: one Python thread per simulated rank.

:func:`run_spmd` spawns ``world_size`` threads, hands each a
:class:`Communicator`, and joins them.  Collectives rendezvous per process
group: the *n*-th collective a rank issues on a group meets the *n*-th
collective of every other member, the last arriver reduces the contributions
**in group-rank order** (so results are bitwise identical on every rank and
across repeated runs — the invariant D-CHAG's replicated final layer relies
on, §3.3), and everyone leaves with a private copy.

Failure semantics: an exception on any rank aborts the whole world.  Blocked
peers poll an abort flag while waiting, so a barrier whose partner died
raises instead of deadlocking, and :func:`run_spmd` re-raises the original
failure as :class:`SpmdError` ("rank N failed: ...").  A rank that issues a
*different* collective than its peers on the same group slot fails fast with
a mismatch error rather than timing out.

Worlds are fully isolated: every :func:`run_spmd` call builds a fresh
:class:`World` with its own groups and
:class:`~repro.dist.stats.TrafficLog`, so concurrent worlds driven from
different threads never interfere.

Virtual clock: ``run_spmd(..., clock=VirtualClock(machine))`` attaches a
deterministic simulated clock (:class:`repro.perf.clock.VirtualClock`, held
to the :class:`SimClock` protocol — this module never imports it).  Every
collective then advances the member ranks to ``max(arrival times) + α–β
collective cost``, every traffic record carries virtual ``vstart``/``vend``
stamps, and ranks can charge compute intervals with
:meth:`Communicator.charge_compute` — the substrate from which
:mod:`repro.perf.overlap` derives communication/compute overlap fractions
instead of assuming them.  Timelines depend only on program order (never on
thread scheduling), so repeated runs are bitwise identical.

Reliance on the GIL: shared state is guarded by locks except for these
accesses, which are lock-free because the GIL makes one read or write of a
list cell, attribute or dict item atomic:

* ``_Slot.done`` — the last arriver sets it before opening any gate, and
  waiters read it in the poll-timeout path of the wait loop;
* ``_Slot.values[me]`` / ``_Slot.value_errors[me]`` — each waiter picks up
  (and clears) its own cell after the wake;
* :class:`repro.perf.clock.VirtualClock` fills its price memo dict from every
  member rank without a lock (a lost race recomputes the same value).

:class:`World` therefore refuses to start on a free-threaded interpreter.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from typing import Any, Callable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from .stats import TrafficLog, TrafficRecord, ring_wire_bytes

__all__ = [
    "SpmdError",
    "ProcessGroup",
    "World",
    "Communicator",
    "run_spmd",
    "run_spmd_world",
    "split_sizes",
]

# How often blocked ranks re-check the abort flag.  Completions open each
# waiter's gate directly, so this only bounds abort latency, not collective
# latency.
_POLL_S = 0.05

_DEFAULT_TIMEOUT_S = 120.0

_REDUCE_OPS = ("sum", "mean", "max", "min")


class SpmdError(RuntimeError):
    """A simulated SPMD world failed (rank exception, misuse, or timeout).

    When raised by :func:`run_spmd_world` the error carries post-mortem
    context for elastic supervisors: ``rank`` is the world rank that failed
    (``-1`` for driver-side timeouts), and ``world`` is the dead
    :class:`World`, whose ``rank_status`` and ``traffic`` survive the abort.
    """

    rank: int = -1
    world: "World | None" = None


class _Aborted(BaseException):
    """Internal: unwinds a rank thread after the world aborted.

    Derives from BaseException so user-level ``except Exception`` blocks
    inside rank functions cannot swallow the shutdown.
    """


class ProcessGroup:
    """An ordered subset of world ranks that communicates collectively.

    The *i*-th entry of ``ranks`` is group-rank *i*; reductions accumulate in
    this order, which is what makes them deterministic.
    """

    __slots__ = ("world", "ranks", "size", "_index", "_state")

    def __init__(self, world: "World", ranks: tuple[int, ...]) -> None:
        self.world = world
        self.ranks = ranks
        self.size = len(ranks)
        self._index = {r: i for i, r in enumerate(ranks)}
        self._state = world._group_state(ranks)

    def rank_index(self, world_rank: int) -> int:
        """This world rank's position within the group."""
        try:
            return self._index[world_rank]
        except KeyError:
            raise SpmdError(f"rank {world_rank} is not a member of group {list(self.ranks)}") from None

    def __contains__(self, world_rank: int) -> bool:
        return world_rank in self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessGroup(ranks={list(self.ranks)})"


#: Rendezvous slots per group, reused generationally.  Ranks on one group
#: can only ever span two consecutive collective slots (a rank issues slot
#: k+1 only after consuming slot k, and slot k completes only once every
#: member consumed slot k−1), so a ring of 4 can never collide.
_SLOT_RING = 4


class _Slot:
    """One collective rendezvous: the n-th collective issued on a group.

    Slots live in a fixed per-group ring and are re-initialized in place
    when their generation comes around again (``gen`` is the sequence
    number currently occupying the slot).  Completion is a **batched
    wake**: the last arriver runs the reduction, distributes every
    member's private return value into ``values`` while all peers are
    still blocked, then releases each waiter's pre-locked **gate**.
    Waiters pick their value up lock-free (see the module docstring).
    """

    __slots__ = (
        "gen",
        "signature",
        "data",
        "consumers",
        "arrived",
        "done",
        "gates",
        "values",
        "value_errors",
        "error",
        "arrivals",
        "payload_max",
        "start",
        "finish",
    )

    def __init__(self, size: int) -> None:
        self.gen = -1
        # One pre-locked gate per member.  Waiters block on their own
        # gate's timed acquire; the last arriver releases each peer's gate
        # after ``done`` is set.  A raw lock handoff is the cheapest wake
        # CPython offers — no per-wait waiter-lock allocation, no
        # Condition list bookkeeping — and the rendezvous-bound collective
        # floor is exactly this wake path times the group size.
        self.gates = [threading.Lock() for _ in range(size)]
        for gate in self.gates:
            gate.acquire()
        self.data: list[Any] = [None] * size
        self.consumers: list[Any] = [None] * size
        self.values: list[Any] = [None] * size
        self.value_errors: list[BaseException | None] = [None] * size
        self.arrivals: list[float] = [0.0] * size
        self.signature: tuple = ()
        self.arrived = 0
        self.done = False
        self.error: BaseException | None = None
        self.payload_max = 0
        self.start = -1.0
        self.finish = -1.0

    def recycle(self, gen: int, signature: tuple, size: int) -> None:
        """Re-initialize for sequence number *gen* (under the group lock)."""
        self.gen = gen
        self.signature = signature
        # Re-lock any gate whose release went unconsumed (its waiter left
        # via the poll timeout after observing ``done``).  No thread can
        # be blocked on this slot's gates here: every member consumed this
        # slot's previous generation long ago (see the ring invariant).
        for gate in self.gates:
            gate.acquire(False)
        self.data = [None] * size
        self.consumers = [None] * size
        self.values = [None] * size
        self.value_errors = [None] * size
        self.arrived = 0
        self.done = False
        self.error = None
        self.payload_max = 0
        self.start = -1.0
        self.finish = -1.0


class _GroupState:
    """Shared rendezvous state for one ranks-tuple (lazily created).

    ``lock`` guards only the brief arrival/consumption bookkeeping; waiting
    happens on each member's own slot gate, and reductions run on the last
    arriver's thread with no lock held at all.
    """

    __slots__ = ("lock", "ring", "next_seq")

    def __init__(self, size: int) -> None:
        self.lock = threading.Lock()
        self.ring = [_Slot(size) for _ in range(_SLOT_RING)]
        # Per-group-rank count of collectives issued on this group so far.
        self.next_seq = [0] * size


@runtime_checkable
class SimClock(Protocol):
    """What the runtime calls on a virtual clock.

    :class:`repro.perf.clock.VirtualClock` is the implementation and
    documents the semantics; the protocol exists so :class:`World` can
    reject anything else up front instead of every call site probing.
    """

    capturing: bool

    def bind(self, world_size: int) -> None: ...
    def now(self, rank: int) -> float: ...
    def charge(
        self, rank: int, seconds: float, phase: str = ..., label: str = ...
    ) -> tuple[float, float]: ...
    def collective_seconds(
        self, op: str, payload_bytes: int, ranks: Sequence[int]
    ) -> float: ...
    def collective_arrival(self, rank: int, op: str, phase: str) -> float: ...
    def collective_complete(
        self, rank: int, op: str, phase: str, issue: float, start: float,
        end: float, payload_bytes: int = ..., ranks: Sequence[int] = ...,
    ) -> None: ...
    def drain(self, rank: int) -> float: ...
    def finalize_rank(self, rank: int) -> None: ...
    def capture_collective(
        self, rank: int, op: str, phase: str, payload_bytes: int,
        ranks: Sequence[int],
    ) -> None: ...
    def capture_drain(self, rank: int) -> None: ...


class World:
    """Shared state of one SPMD run: groups, traffic, abort flag.

    ``failure_plan`` is any object exposing ``check(rank, step)`` (see
    :class:`repro.elastic.FailurePlan`); ranks consult it through
    :meth:`Communicator.tick` so tests can script deterministic crashes.
    ``rank_status`` records each rank's clean exit state — ``"running"``,
    ``"ok"``, ``"failed"`` (the rank that raised) or ``"aborted"`` (peers
    unwound by the abort) — and stays readable after the world dies.

    ``clock`` is an optional virtual clock (a :class:`SimClock`, checked
    here once so no call site probes for methods); when installed, every
    collective advances the simulated per-rank timelines and stamps its
    traffic records with virtual start/end times.
    """

    def __init__(
        self,
        size: int,
        failure_plan: Any | None = None,
        clock: SimClock | None = None,
    ) -> None:
        if not getattr(sys, "_is_gil_enabled", lambda: True)():
            raise RuntimeError(
                "repro.dist relies on the GIL for its lock-free reads (listed in "
                "the repro.dist.runtime docstring); run it on a GIL-enabled "
                "interpreter"
            )
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        if clock is not None and not isinstance(clock, SimClock):
            raise TypeError(
                f"clock must implement the SimClock protocol "
                f"(repro.perf.clock.VirtualClock), got {type(clock).__name__}"
            )
        self.size = size
        self.traffic = TrafficLog()
        self.failure_plan = failure_plan
        self.clock = clock
        if clock is not None:
            clock.bind(size)
        self.rank_status: list[str] = ["running"] * size
        self._lock = threading.Lock()
        self._group_states: dict[tuple[int, ...], _GroupState] = {}
        self._abort_event = threading.Event()
        self._failure: tuple[int, BaseException] | None = None
        self.default_group = ProcessGroup(self, tuple(range(size)))

    # -- group bookkeeping -------------------------------------------------
    def _group_state(self, ranks: tuple[int, ...]) -> _GroupState:
        with self._lock:
            state = self._group_states.get(ranks)
            if state is None:
                state = self._group_states[ranks] = _GroupState(len(ranks))
            return state

    def group(self, ranks: Sequence[int]) -> ProcessGroup:
        ranks = tuple(int(r) for r in ranks)
        if len(set(ranks)) != len(ranks):
            raise SpmdError(f"duplicate ranks in group {list(ranks)}")
        if not ranks:
            raise SpmdError("cannot create an empty process group")
        for r in ranks:
            if not 0 <= r < self.size:
                raise SpmdError(f"rank {r} out of range for world of size {self.size}")
        return ProcessGroup(self, ranks)

    # -- failure handling ----------------------------------------------------
    @property
    def aborted(self) -> bool:
        return self._abort_event.is_set()

    @property
    def failed_ranks(self) -> list[int]:
        """World ranks whose thread raised (not peers unwound by the abort)."""
        return [r for r, s in enumerate(self.rank_status) if s == "failed"]

    def abort(self, rank: int, exc: BaseException) -> None:
        """Record the first failure and wake every blocked rank."""
        with self._lock:
            if self._failure is None:
                self._failure = (rank, exc)
        self._abort_event.set()
        with self._lock:
            states = list(self._group_states.values())
        for state in states:
            # Wake every blocked waiter immediately: they observe the slot
            # still not done, re-check the abort flag, and unwind.
            for slot in state.ring:
                for gate in slot.gates:
                    if gate.locked():
                        try:
                            gate.release()
                        except RuntimeError:
                            pass  # lost the race with the last arriver (or a second abort)

    def _check_abort(self) -> None:
        if self._abort_event.is_set():
            raise _Aborted()


def split_sizes(total: int, parts: int) -> tuple[int, ...]:
    """Partition *total* elements over *parts* ranks, remainder spread first.

    The shared uneven-sharding convention (``np.array_split``): the first
    ``total % parts`` ranks own one extra element, all blocks contiguous.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    base, rem = divmod(total, parts)
    return tuple(base + 1 if i < rem else base for i in range(parts))


def _check_out(out: np.ndarray, shape: tuple, dtype, what: str) -> None:
    """``out=`` buffers must match exactly: silent broadcasting or casting
    would corrupt results that NCCL would have rejected."""
    if not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != dtype:
        got = (
            f"{out.shape}/{out.dtype}" if isinstance(out, np.ndarray) else type(out).__name__
        )
        raise SpmdError(
            f"{what} out buffer mismatch: expected shape {shape} dtype {dtype}, got {got}"
        )


def _check_mean_dtype(op: str, arr: np.ndarray) -> None:
    """A mean of integer arrays would be cast back and silently truncate."""
    if op == "mean" and not np.issubdtype(arr.dtype, np.floating):
        raise SpmdError(
            f"mean reduction requires a floating-point array, got dtype {arr.dtype}; "
            "cast before reducing or use op='sum'"
        )


def _reduce(arrays: list[np.ndarray], op: str) -> np.ndarray:
    """Reduce in list order — fixed group-rank order, hence deterministic.

    Contributions are not snapshotted, because every contributing rank is
    still blocked inside the rendezvous while this runs; the reduction must
    therefore never mutate its inputs.  The first pairwise op allocates the
    output and every later op accumulates into it in place: the same
    left-to-right pairwise sequence as reducing into a copy, hence bitwise
    identical.
    """
    shapes = {a.shape for a in arrays}
    if len(shapes) > 1:
        raise SpmdError(f"mismatched shapes in reduction: {sorted(shapes)}")
    dtypes = {a.dtype for a in arrays}
    if len(dtypes) > 1:
        # The result is cast to group-rank-0's dtype; mixed inputs would be
        # silently truncated (e.g. float contributions into an int buffer).
        raise SpmdError(f"mismatched dtypes in reduction: {sorted(map(str, dtypes))}")
    if len(arrays) == 1:  # a solo group: every consume copies the result
        return arrays[0]
    out = np.empty_like(arrays[0])  # an array even for 0-d contributions
    if op in ("sum", "mean"):
        np.add(arrays[0], arrays[1], out=out)
        for a in arrays[2:]:
            out += a
        if op == "mean":
            out /= len(arrays)  # float-only; int mean is rejected at the call site
    elif op == "max":
        np.maximum(arrays[0], arrays[1], out=out)
        for a in arrays[2:]:
            np.maximum(out, a, out=out)
    elif op == "min":
        np.minimum(arrays[0], arrays[1], out=out)
        for a in arrays[2:]:
            np.minimum(out, a, out=out)
    else:  # validated at the call site; defensive here
        raise SpmdError(f"unknown reduce op {op!r}")
    return out


class Communicator:
    """One rank's handle on the world — the RCCL substitute.

    All collectives take an optional ``group``; ``None`` means the world
    group.  ``phase`` is a free-form label ("forward", "backward", ...)
    stamped on every traffic record this rank emits.
    """

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        self.phase = ""
        self._pool = None

    @property
    def pool(self):
        """This rank's site-keyed collective buffer pool (lazily created).

        Lifetime matches the world's; FSDP's unit gather keys into it via
        :func:`repro.dist.pool.site_key` to reuse ``out=`` buffers across
        steps (see :mod:`repro.dist.pool` for which sites may be pooled).
        """
        if self._pool is None:
            from .pool import BufferPool

            self._pool = BufferPool()
        return self._pool

    # -- plumbing ----------------------------------------------------------
    def group(self, ranks: Sequence[int]) -> ProcessGroup:
        """Create (or re-attach to) the process group over *ranks*."""
        return self.world.group(ranks)

    def tick(self, step: int) -> None:
        """Consult the world's failure plan at a step boundary.

        Trainers call this once per training step; a scripted
        :class:`~repro.elastic.FailurePlan` raises on its (rank, step) match,
        which aborts the world exactly like a real rank loss.  A no-op when
        the world has no plan installed.
        """
        plan = self.world.failure_plan
        if plan is not None:
            plan.check(self.rank, step)

    def _resolve(self, group: ProcessGroup | None) -> ProcessGroup:
        group = group if group is not None else self.world.default_group
        if self.rank not in group:
            raise SpmdError(
                f"rank {self.rank} called a collective on foreign group {list(group.ranks)}"
            )
        return group

    def _log(
        self,
        op: str,
        payload_bytes: int,
        group_size: int,
        vstart: float = -1.0,
        vend: float = -1.0,
    ) -> None:
        payload = int(payload_bytes)
        self.world.traffic.add(
            TrafficRecord(
                rank=self.rank,
                op=op,
                phase=self.phase,
                payload_bytes=payload,
                wire_bytes=ring_wire_bytes(op, payload, group_size),
                group_size=group_size,
                vstart=vstart,
                vend=vend,
            )
        )

    def _vnow(self) -> float:
        """This rank's virtual time (``-1`` without a clock)."""
        clock = self.world.clock
        return clock.now(self.rank) if clock is not None else -1.0

    def _rendezvous(
        self,
        group: ProcessGroup,
        signature: tuple,
        contribution,
        compute: Callable[[list], Any],
        payload_bytes: int = 0,
        consume: Callable[[Any], Any] | None = None,
    ) -> tuple[Any, float, float]:
        """Join the group's next collective slot; return this rank's value.

        Batched-wake protocol: the last arriver runs ``compute(data)`` over
        the group-rank-ordered contribution list with **no lock held**, so
        a large reduction never serializes unrelated groups.  It then runs
        every member's ``consume(result)`` itself, while all peers are still
        blocked inside the rendezvous, and finally opens each waiter's
        pre-locked gate; waiters pick their value up without a lock.

        Contributions are *not* snapshotted: every contributing rank stays
        blocked until distribution finished, so *compute* and the *consume*
        closures see stable inputs and may copy straight out of peers' live
        buffers.  Neither may mutate a contribution, and no value handed
        back may alias one.  *consume* turns the shared compute result into
        one rank's private value; one that raises fails only its own rank
        (the error is re-raised there verbatim) while peers complete
        normally.  ``consume=None`` hands every rank the compute result
        itself (barrier: ``None``).

        Returns ``(value, vstart, vend)``: this rank's virtual issue time
        and the group-wide virtual completion (slowest arrival bid +
        collective cost priced by the world's clock), both ``-1.0`` without
        a clock.  With a clock, op name ``signature[0]`` is priced over the
        largest per-rank payload bid (the padded-collective convention); a
        *blocking* collective advances every member's clock to the shared
        completion, while one issued inside an eager clock phase (see
        :class:`repro.perf.clock.VirtualClock` ``eager_phases``) only joins
        the rank's outstanding issue queue — its exposure is settled at the
        next drain point, and the rank's compute clock keeps running.

        A one-rank group returns at once, stamped ``vstart == vend == now``,
        without a lock, a clock bid, a capture or a completion.
        """
        size = group.size
        if size == 1:
            # A blocking arrival would drain the eager queue and so change
            # timelines (and the pins that read them): leave the clock alone.
            result = compute([contribution])
            now = self._vnow()
            return (result if consume is None else consume(result)), now, now
        state = group._state
        me = group.rank_index(self.rank)
        clock = self.world.clock
        op = signature[0]
        if clock is not None:
            # Schedule capture: record the issue at this rank's program
            # position (before any clock state moves) so a replay can
            # re-drive the very same arrival/complete protocol.
            if clock.capturing:
                clock.capture_collective(
                    self.rank, op, self.phase, payload_bytes, group.ranks
                )
            # The arrival bid feeds the group-wide start maximum.  It is
            # not the rank's compute clock: an eager dispatch bids its
            # channel-free time, a blocking op drains the queue first.
            bid = clock.collective_arrival(self.rank, op, self.phase)
            vstart = clock.now(self.rank)
        else:
            bid = vstart = -1.0
        with state.lock:
            seq = state.next_seq[me]
            state.next_seq[me] = seq + 1
            slot = state.ring[seq % _SLOT_RING]
            if slot.gen != seq:
                # First arrival of this generation; the previous occupant
                # (seq − _SLOT_RING) was fully consumed long ago (ranks can
                # span at most two consecutive slots, see _SLOT_RING).
                slot.recycle(seq, signature, size)
            elif slot.signature != signature:
                raise SpmdError(
                    f"collective mismatch on group {list(group.ranks)} slot {seq}: "
                    f"rank {self.rank} issued {signature[0]!r} but peers issued "
                    f"{slot.signature[0]!r}"
                )
            slot.data[me] = contribution
            slot.consumers[me] = consume
            if payload_bytes > slot.payload_max:
                slot.payload_max = int(payload_bytes)
            if clock is not None:
                slot.arrivals[me] = bid
            slot.arrived += 1
            last = slot.arrived == size
        if last:
            # Compute + distribution run with no lock held: every member is
            # blocked in this rendezvous, so slot.data (and every buffer it
            # references, including peers' out= targets captured by their
            # consume closures) is stable until the wake below.
            error: BaseException | None = None
            try:
                result = compute(slot.data)
            except BaseException as exc:  # surfaces on every member rank
                error = exc
            else:
                values = slot.values
                value_errors = slot.value_errors
                for i, fn in enumerate(slot.consumers):
                    if fn is None:
                        values[i] = result
                        continue
                    try:
                        values[i] = fn(result)
                    except BaseException as exc:  # fails rank i only
                        value_errors[i] = exc
            start = finish = -1.0
            if clock is not None:
                start = max(slot.arrivals)
                finish = start + clock.collective_seconds(
                    op, slot.payload_max, group.ranks
                )
            # Drop contribution and closure references before the wake so
            # the slot never pins live buffers (or callers' out= targets)
            # while the group idles.
            slot.data = []
            slot.consumers = []
            slot.error = error
            slot.start, slot.finish = start, finish
            slot.done = True  # published before the gates open (GIL write order)
            gates = slot.gates
            for i in range(size):
                if i != me:
                    try:
                        gates[i].release()
                    except RuntimeError:
                        pass  # a concurrent world abort opened this gate first
        else:
            gate = slot.gates[me]
            while not slot.done:
                # A successful acquire means the last arriver opened our gate
                # (``done`` is already visible) or a world abort did; a
                # timeout is just the abort-flag poll backstop.
                if gate.acquire(True, _POLL_S) and slot.done:
                    break
                self.world._check_abort()
        error = slot.error
        start, finish = slot.start, slot.finish
        # Group-wide priced payload (max bid), read under the same
        # published-before-done guarantee as start/finish: it stamps the
        # clock's archived interval with wire volume and link class.
        group_payload = slot.payload_max
        value = None
        if error is None:
            # Lock-free pickup: each rank touches only its own cell.
            # Clearing it releases this rank's value reference without
            # waiting for the ring slot's generation to come around again.
            verr = slot.value_errors[me]
            if verr is not None:
                raise verr
            value = slot.values[me]
            slot.values[me] = None
        if clock is not None and finish >= 0.0:
            clock.collective_complete(
                self.rank, op, self.phase, vstart, start, finish,
                payload_bytes=group_payload, ranks=group.ranks,
            )
        if error is not None:
            raise SpmdError(f"collective failed: {error}") from error
        return value, vstart, finish

    def _run_collective(
        self,
        group: ProcessGroup,
        signature: tuple,
        contribution,
        compute: Callable[[list], Any],
        payload_bytes: int,
        consume: Callable[[Any], Any] | None = None,
    ):
        """Rendezvous + traffic accounting for one logged collective.

        A collective that fails or is unwound by a world abort is **still
        logged** (with ``vend=-1.0``, marking it incomplete) so post-mortem
        traffic accounting across a failure boundary sees every op each
        rank issued — the convention the elastic recovery-cost benchmarks
        rely on.
        """
        op = signature[0]
        try:
            result, vs, ve = self._rendezvous(
                group, signature, contribution, compute, payload_bytes, consume
            )
        except BaseException:
            self._log(op, payload_bytes, group.size, self._vnow(), -1.0)
            raise
        self._log(op, payload_bytes, group.size, vs, ve)
        return result

    # -- virtual clock -----------------------------------------------------
    def now(self) -> float:
        """This rank's virtual time (``-1.0`` when no clock is installed)."""
        return self._vnow()

    def charge_compute(
        self, seconds: float, phase: str = "compute", label: str = ""
    ) -> tuple[float, float] | None:
        """Advance this rank's virtual clock by a compute interval.

        The parallel wrappers (:class:`~repro.parallel.DataParallel`,
        :class:`~repro.parallel.FSDPModel`) call this so rank timelines interleave compute with communication and
        :mod:`repro.perf.overlap` can derive overlap fractions.  Returns the
        ``(start, end)`` virtual interval, or ``None`` when the world has no
        clock (a no-op, so instrumented code runs unchanged without one).
        """
        clock = self.world.clock
        if clock is None or seconds <= 0.0:
            return None
        return clock.charge(self.rank, float(seconds), phase=phase, label=label)

    def drain_comm(self) -> float:
        """Settle this rank's outstanding eager collectives (a sync point).

        With an issue-queue clock (``VirtualClock(..., eager_phases=...)``)
        this advances the rank past every in-flight collective, charging
        each its exposed seconds — the virtual analogue of
        ``stream.synchronize()``.  Returns the rank's (possibly advanced)
        virtual time; a no-op without a clock or with a fully blocking one.
        The runtime drains automatically at rank exit and before every
        blocking collective, so explicit calls only matter at mid-step sync
        points (e.g. before reading an optimizer step's wall time).
        """
        clock = self.world.clock
        if clock is None:
            return -1.0
        if clock.capturing:
            clock.capture_drain(self.rank)
        return clock.drain(self.rank)

    @contextlib.contextmanager
    def phase_scope(self, phase: str) -> Iterator[None]:
        """Stamp every traffic record issued inside with *phase*."""
        prev = self.phase
        self.phase = phase
        try:
            yield
        finally:
            self.phase = prev

    # -- collectives -------------------------------------------------------
    def barrier(self, group: ProcessGroup | None = None) -> None:
        """Block until every group member reaches the same barrier call.

        Not logged as traffic (it moves no payload), but with a clock it
        still costs its latency steps and synchronizes the group's virtual
        timelines to the slowest arrival.
        """
        group = self._resolve(group)
        self._rendezvous(group, ("barrier",), None, lambda data: None)

    def all_reduce(
        self,
        array,
        op: str = "sum",
        group: ProcessGroup | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Reduce *array* over the group; every rank gets the full result.

        ``out`` receives the result in place (shape and dtype must match
        exactly) and is returned — steady-state callers that reduce into
        preallocated buffers (gradient accumulators, replay scratch) keep
        their result in that buffer across steps.  ``out`` may alias
        *array*: the reduction never writes contributions.
        """
        group = self._resolve(group)
        if op not in _REDUCE_OPS:
            raise SpmdError(f"unknown reduce op {op!r} (expected one of {_REDUCE_OPS})")
        arr = np.asarray(array)  # no snapshot: peers stay blocked while we reduce
        _check_mean_dtype(op, arr)
        if out is not None:
            _check_out(out, arr.shape, arr.dtype, "all_reduce")

        if out is None:
            consume = np.ndarray.copy  # every rank gets a private copy
        else:

            def consume(result: np.ndarray) -> np.ndarray:
                np.copyto(out, result)
                return out

        return self._run_collective(
            group,
            ("all_reduce", op),
            arr,
            lambda data: _reduce(data, op),
            payload_bytes=arr.nbytes,
            consume=consume,
        )

    def all_gather(
        self,
        array,
        group: ProcessGroup | None = None,
        out: Sequence[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Gather every rank's array; returns private copies in group order.

        ``out`` — one preallocated buffer per group rank, exact shape and
        dtype match — receives the parts in place (the list is returned).
        Parts are copied straight out of the peers' live buffers during
        batched-wake distribution (every member is still blocked inside the
        collective while copies run), so no intermediate snapshot is ever
        taken.  ``out`` buffers must not overlap the *array* of any other
        rank — aliasing your own contribution is allowed.
        """
        group = self._resolve(group)
        arr = np.asarray(array)
        if out is not None:
            if len(out) != group.size:
                raise SpmdError(
                    f"all_gather out must supply exactly {group.size} buffers, "
                    f"got {len(out)}"
                )
            me = group.rank_index(self.rank)
            for i, o in enumerate(out):
                if not isinstance(o, np.ndarray) or not np.may_share_memory(o, arr):
                    continue
                # Only the rank's own slot may alias its input, and only
                # *exactly* (same memory, shape and strides — the copy is
                # then a no-op): a partial overlap would mutate the live
                # contribution while distribution is still copying peers'
                # parts from it.
                exact = o is arr or (
                    o.shape == arr.shape
                    and o.strides == arr.strides
                    and o.__array_interface__["data"] == arr.__array_interface__["data"]
                )
                if i != me or not exact:
                    raise SpmdError(
                        "all_gather out buffers must not overlap this rank's "
                        "input (peers copy it live during distribution); "
                        "only out[me] exactly aliasing the input is allowed"
                    )

        def consume(parts: list) -> list[np.ndarray]:
            if out is None:
                # Parts are peers' live buffers: always copy (a reference
                # would be mutable by its contributor after the wake).
                return [np.array(p, copy=True) for p in parts]
            # All-or-nothing: validate every buffer before writing any, so
            # a mismatch never leaves the caller's buffers half-clobbered.
            for o, p in zip(out, parts):
                _check_out(o, p.shape, p.dtype, "all_gather")
            for o, p in zip(out, parts):
                np.copyto(o, p)
            return list(out)

        return self._run_collective(
            group,
            ("all_gather",),
            arr,
            lambda data: data,  # distribution copies from the live contributions
            payload_bytes=arr.nbytes,
            consume=consume,
        )

    def all_gather_concat(
        self, array, group: ProcessGroup | None = None, axis: int = 0
    ) -> np.ndarray:
        """AllGather then concatenate along *axis* (one logged collective)."""
        return np.concatenate(self.all_gather(array, group=group), axis=axis)

    def reduce_scatter(
        self,
        array,
        op: str = "sum",
        group: ProcessGroup | None = None,
        axis: int = 0,
        sizes: Sequence[int] | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Reduce over the group, return this rank's slice of *axis*.

        With *sizes* (one entry per group rank, summing to the axis length)
        the split may be uneven; without it, a non-divisible axis falls back
        to the remainder convention of :func:`split_sizes` (first ``r`` ranks
        get one extra element).  Uneven splits are executed as *padded*
        collectives — every chunk is padded to the largest, the ring moves
        the padded volume (which is what the traffic log charges), and the
        pad is stripped before the result is returned.  ``out`` receives
        this rank's slice in place (exact shape/dtype match) and is
        returned.
        """
        group = self._resolve(group)
        if op not in _REDUCE_OPS:
            raise SpmdError(f"unknown reduce op {op!r} (expected one of {_REDUCE_OPS})")
        arr = np.asarray(array)  # no snapshot: the reduction never aliases inputs
        _check_mean_dtype(op, arr)
        n = group.size
        dim = arr.shape[axis]
        if sizes is None:
            chunk_sizes = split_sizes(dim, n)
        else:
            chunk_sizes = tuple(int(s) for s in sizes)
            if len(chunk_sizes) != n:
                raise SpmdError(
                    f"reduce_scatter sizes must have one entry per group rank "
                    f"({n}), got {len(chunk_sizes)}"
                )
            if any(s < 0 for s in chunk_sizes) or sum(chunk_sizes) != dim:
                raise SpmdError(
                    f"reduce_scatter sizes {list(chunk_sizes)} do not partition "
                    f"axis {axis} of size {dim}"
                )
        # Padded-collective accounting: with uneven chunks the ring moves
        # max(chunk) per rank per step, i.e. n·max(chunk) total elements.
        padded_dim = max(chunk_sizes) * n if chunk_sizes else 0
        payload = arr.nbytes if dim == 0 else (arr.nbytes // dim) * padded_dim
        me = group.rank_index(self.rank)
        lo = int(sum(chunk_sizes[:me]))
        idx = [slice(None)] * arr.ndim
        idx[axis] = slice(lo, lo + chunk_sizes[me])
        idx = tuple(idx)
        if out is not None:
            shape = list(arr.shape)
            shape[axis] = chunk_sizes[me]
            _check_out(out, tuple(shape), arr.dtype, "reduce_scatter")

        def consume(full: np.ndarray) -> np.ndarray:
            if out is not None:
                np.copyto(out, full[idx])
                return out
            # Every rank copies its slice: a view would pin the n-times-larger
            # reduce buffer and could be non-contiguous.
            return full[idx].copy()

        return self._run_collective(
            group,
            ("reduce_scatter", op, axis, chunk_sizes),
            arr,
            lambda data: _reduce(data, op),
            payload_bytes=payload,
            consume=consume,
        )

    def broadcast(
        self,
        value,
        root: int,
        group: ProcessGroup | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Every rank receives a copy of the *root* world-rank's payload.

        ``out`` receives the payload in place (exact shape/dtype match,
        validated against the root's payload at completion) and is
        returned — parameter broadcasts write straight into the live
        parameter buffers instead of allocating a copy to assign from.
        """
        group = self._resolve(group)
        root_index = group.rank_index(root)
        payload = np.asarray(value) if self.rank == root else None

        def compute(data: list) -> np.ndarray:
            contributed = data[root_index]
            if contributed is None:
                raise SpmdError(f"broadcast root rank {root} supplied no payload")
            # The root's live buffer: distribution copies from it per rank
            # while the root is still blocked — no shared snapshot.
            return contributed

        def consume(r: np.ndarray) -> np.ndarray:
            if out is not None:
                _check_out(out, r.shape, r.dtype, "broadcast")
                np.copyto(out, r)
                return out
            # r is the root's live buffer: always detach with a copy.
            return np.array(r, copy=True)

        bid = payload.nbytes if payload is not None else 0
        try:
            result, vs, ve = self._rendezvous(
                group, ("broadcast", root), payload, compute, bid, consume
            )
        except BaseException:
            # Failed/aborted broadcasts still log (vend=-1), like every
            # other collective; non-root ranks only know their zero bid.
            self._log("broadcast", bid, group.size, self._vnow(), -1.0)
            raise
        self._log("broadcast", result.nbytes, group.size, vs, ve)
        return result

    def all_to_all(
        self,
        sends,
        group: ProcessGroup | None = None,
        out: Sequence[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Transpose: element *i* of the result is what group-rank *i* sent
        to this rank (their ``sends[my_group_index]``).

        ``out`` — one preallocated buffer per group rank, exact shape and
        dtype match — receives the incoming chunks in place.
        """
        group = self._resolve(group)
        n = group.size
        if len(sends) != n:
            raise SpmdError(f"all_to_all needs exactly {n} send buffers, got {len(sends)}")
        if out is not None and len(out) != n:
            raise SpmdError(f"all_to_all out must supply exactly {n} buffers, got {len(out)}")
        contribution = [np.asarray(s) for s in sends]
        payload = sum(c.nbytes for c in contribution)
        me = group.rank_index(self.rank)

        def consume(matrix: list) -> list[np.ndarray]:
            if out is None:
                # Cells are peers' live send buffers: copy this rank's
                # column out during distribution.
                return [np.array(matrix[i][me], copy=True) for i in range(n)]
            # All-or-nothing: validate every buffer before writing any.
            for i in range(n):
                cell = matrix[i][me]
                _check_out(out[i], cell.shape, cell.dtype, "all_to_all")
            for i in range(n):
                np.copyto(out[i], matrix[i][me])
            return list(out)

        return self._run_collective(
            group,
            ("all_to_all",),
            contribution,
            # Live send matrix: cell (i, j) is copied out only by group-rank
            # j's distribution step — exactly the n² cells that are needed.
            lambda data: data,
            payload_bytes=payload,
            consume=consume,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(rank={self.rank}, size={self.size})"


def run_spmd_world(
    fn: Callable[..., Any],
    world_size: int,
    *args,
    timeout: float | None = None,
    failure_plan: Any | None = None,
    clock: SimClock | None = None,
) -> tuple[list, World]:
    """Run ``fn(comm, *args)`` on every rank of a fresh world.

    Returns ``(results, world)`` with results in rank order; the world
    exposes ``traffic``, ``rank_status`` and ``default_group`` for
    post-mortem inspection.  Raises :class:`SpmdError` if any rank fails or
    the run exceeds *timeout* seconds (default 120); the error carries the
    failed ``rank`` and the dead ``world``.  ``failure_plan`` installs a
    scripted-crash plan consulted by :meth:`Communicator.tick`; ``clock``
    installs a virtual clock (e.g. :class:`repro.perf.clock.VirtualClock`)
    that prices every collective and produces deterministic per-rank
    simulated timelines.
    """
    timeout = _DEFAULT_TIMEOUT_S if timeout is None else float(timeout)
    world = World(world_size, failure_plan=failure_plan, clock=clock)
    results: list = [None] * world_size

    def runner(rank: int) -> None:
        comm = Communicator(world, rank)
        try:
            results[rank] = fn(comm, *args)
            if clock is not None:
                # Settle any in-flight eager collectives so the clock's
                # times() report the true per-rank makespan.
                clock.finalize_rank(rank)
            world.rank_status[rank] = "ok"
        except _Aborted:
            world.rank_status[rank] = "aborted"
        except BaseException as exc:
            world.rank_status[rank] = "failed"
            world.abort(rank, exc)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"spmd-rank-{r}", daemon=True)
        for r in range(world_size)
    ]
    start = time.monotonic()
    for t in threads:
        t.start()
    timed_out = False
    try:
        for t in threads:
            remaining = timeout - (time.monotonic() - start)
            t.join(max(0.0, remaining))
            if t.is_alive():
                timed_out = True
                break
    except BaseException as exc:
        # The driver thread was interrupted (Ctrl-C, a per-test alarm, ...):
        # tear the world down so rank threads stop executing fn and polling.
        world.abort(-1, exc)
        for t in threads:
            t.join(1.0)
        raise
    if timed_out:
        world.abort(-1, TimeoutError(f"SPMD world timed out after {timeout:g}s"))
        grace = 5.0
        for t in threads:
            t.join(grace)
    failure = world._failure
    if failure is not None:
        rank, exc = failure
        if rank < 0:
            err = SpmdError(
                f"SPMD world timed out after {timeout:g}s "
                "(likely a deadlocked or mismatched collective)"
            )
        else:
            err = SpmdError(f"rank {rank} failed: {type(exc).__name__}: {exc}")
        err.rank = rank
        err.world = world
        raise err from exc
    return results, world


def run_spmd(
    fn: Callable[..., Any],
    world_size: int,
    *args,
    timeout: float | None = None,
    failure_plan: Any | None = None,
    clock: SimClock | None = None,
) -> list:
    """Like :func:`run_spmd_world` but returns only the per-rank results."""
    results, _ = run_spmd_world(
        fn,
        world_size,
        *args,
        timeout=timeout,
        failure_plan=failure_plan,
        clock=clock,
    )
    return results
