"""The threaded SPMD runtime: one Python thread per simulated rank.

:func:`run_spmd` spawns ``world_size`` threads, hands each a
:class:`Communicator`, and joins them.  Collectives rendezvous per process
group: the *n*-th collective a rank issues on a group meets the *n*-th
collective of every other member, the last arriver reduces the contributions
**in group-rank order** (so results are bitwise identical on every rank and
across repeated runs — the invariant D-CHAG's replicated final layer relies
on, §3.3), and everyone leaves with a private result.

Failure semantics: an exception on any rank aborts the whole world.  The
abort sets a flag and wakes every rank blocked in a collective, which
checks the flag before each sleep, so a barrier whose partner died raises
instead of deadlocking, and :func:`run_spmd` re-raises the original
failure as :class:`SpmdError` ("rank N failed: ...").  A rank that issues a
*different* collective than its peers on the same group slot fails fast with
a mismatch error rather than timing out.

Worlds are fully isolated: every :func:`run_spmd` call builds a fresh
:class:`World` with its own groups and
:class:`~repro.dist.stats.TrafficLog`, so concurrent worlds driven from
different threads never interfere.

``out=`` buffers: every collective can deliver into caller-owned buffers,
one per cell it receives, and then returns them.  Each must match its
cell's shape and dtype exactly, and all are checked before any is written.
Results are copied or reduced straight out of the peers' live contributions
during distribution, so one rule, checked when a rank issues the
collective, keeps them from corrupting what peers still read: an ``out``
buffer may share memory with this rank's own contribution only if it is
*exactly* (same view) the cell the rank receives from itself — an in-place
``all_gather`` slot, ``sends[me]`` for ``all_to_all``, the root's payload
for ``broadcast``, the input (or, for ``reduce_scatter``, its own slice)
for a reduction.  That cell is not copied.  A copy collective
(``all_gather``, ``all_to_all``, ``broadcast``) rejects any other overlap
with :class:`SpmdError`; a reduction (``all_reduce``, ``reduce_scatter``)
falls back to a fresh result plus a copy, as it does for the exact alias
at group-rank ≥ 2, whose input the fixed order reads only after its first
op wrote the destination.  An ``out`` must never overlap another rank's
contribution.

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

Run token: each :class:`World` has one lock that a rank thread holds
whenever it runs rank code.  It gives the token up while it waits in a
collective, while it reduces and copies as the last arriver, and when it
exits, and takes it back (polling the abort flag) before it returns to rank
code.  A collective wait itself does not poll: each rank sleeps on its own
gate, a lock that the last arriver or an abort opens.  Python and numpy from
different ranks never interleave, so threads stop trading the GIL on every
numpy call, while a large copy (which releases the GIL) still overlaps
another rank's compute.  Reductions keep their fixed group-rank order, so
results do not depend on which rank runs first.  Rank code may block only in
collectives: waiting on a peer any other way keeps the token and deadlocks.

Reliance on the GIL: shared state is guarded by locks or by the run token
(rank code and clock updates run under it, except in a rank unwinding from
an abort) except for these
accesses, which are lock-free because the GIL makes one read or write of a
list cell or attribute atomic:

* ``_Slot.done`` — the last arriver sets it before opening any gate, and
  waiters read it when they enter the wait loop and after each wake,
  neither under the token;
* ``_Slot.error`` / ``start`` / ``finish`` / ``payload_max`` — final
  before the last arriver sets ``done``; each waiter reads them after;
* ``_Slot.values[me]`` / ``_Slot.value_errors[me]`` — written by the last
  arriver off the token; each waiter picks up (and clears) its own cell;
* ``World._holder`` — written only by the token's holder, read by ranks
  checking whether they hold it and by the timeout message.

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

# How often a rank queued for the run token re-checks the abort flag
# (collective waits do not poll; see World._gates).  It bounds only how fast
# a rank unwinds while a peer keeps the token after an abort.
_POLL_S = 0.05

_DEFAULT_TIMEOUT_S = 120.0

#: Each reduction's pairwise ufunc, applied left to right by :func:`_reduce`
#: (a mean is a sum divided once at the end).
_REDUCE_OPS = {"sum": np.add, "mean": np.add, "max": np.maximum, "min": np.minimum}


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
    still blocked, sets ``done``, then opens each waiter's rank gate
    (:attr:`World._gates`).  Waiters pick their value up lock-free (see
    the module docstring).
    """

    __slots__ = (
        "gen",
        "signature",
        "data",
        "consumers",
        "arrived",
        "done",
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
    happens on each member's own rank gate, and reductions run on the last
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
        end: float, payload_bytes: int, ranks: Sequence[int],
    ) -> None: ...
    def drain(self, rank: int) -> float: ...
    def finalize_rank(self, rank: int) -> None: ...


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
        self._token = threading.Lock()  # the run token (module docstring)
        self._holder = -1  # the rank holding it, -1 for none
        # One pre-locked gate per rank: a rank waiting in a collective
        # sleeps on its own gate, and the last arriver or an abort opens it.
        # A raw lock handoff is the cheapest wake CPython offers.
        self._gates = [threading.Lock() for _ in range(size)]
        for gate in self._gates:
            gate.acquire()
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
        for gate in self._gates:
            # Wake each rank once: a waiter finds its slot not done, sees
            # the flag and unwinds.
            try:
                gate.release()
            except RuntimeError:
                pass  # already open; its rank checks the flag before it sleeps

    def _blocked(self) -> list[str]:
        """Every rank still waiting in a collective, read from the slots,
        and the rank holding the run token."""
        with self._lock:
            states = list(self._group_states.items())
        holder = self._holder
        blocked = [(holder, f"rank {holder} holds the run token")] if holder >= 0 else []
        for ranks, state in states:
            with state.lock:
                for slot in state.ring:
                    if slot.gen >= 0 and not slot.done:
                        where = (f"in {slot.signature[0]} on group {list(ranks)} "
                                 f"({slot.arrived}/{len(ranks)} arrived)")
                        blocked += [(r, f"rank {r} {where}") for i, r in enumerate(ranks)
                                    if state.next_seq[i] > slot.gen]
        return [line for _, line in sorted(blocked)]

    def _check_abort(self) -> None:
        if self._abort_event.is_set():
            raise _Aborted()

    def _take_turn(self, rank: int) -> None:
        """Block until *rank* holds the run token, polling the abort flag.

        After an abort the rank still takes a free token and runs on to its
        next collective, as it would without the token; it unwinds here only
        while a peer (asleep, or past a driver timeout) keeps the token.
        """
        token = self._token
        while not token.acquire(True, _POLL_S):
            if self._abort_event.is_set():
                if not token.acquire(False):
                    raise _Aborted()
                break
        self._holder = rank

    def _end_turn(self, rank: int) -> None:
        """Hand the run token on; a no-op unless *rank* holds it."""
        if self._holder == rank:
            self._holder = -1
            self._token.release()


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


def _check_reduce(op: str, arr: np.ndarray) -> None:
    """Reject an unknown op, and a mean of integers (cast back, it would
    silently truncate)."""
    if op not in _REDUCE_OPS:
        raise SpmdError(f"unknown reduce op {op!r} (expected one of {tuple(_REDUCE_OPS)})")
    if op == "mean" and not np.issubdtype(arr.dtype, np.floating):
        raise SpmdError(
            f"mean reduction requires a floating-point array, got dtype {arr.dtype}; "
            "cast before reducing or use op='sum'"
        )


def _same_view(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether *a* and *b* are the same memory, shape and strides."""
    return a is b or (a.shape == b.shape and a.strides == b.strides
                      and a.__array_interface__["data"] == b.__array_interface__["data"])


def _overlaps(outs: Sequence, live: Sequence[np.ndarray], me: int, own: np.ndarray) -> bool:
    """The ``out=`` overlap rule (module docstring): whether a buffer in
    *outs* shares memory with this rank's live contribution *live* and is
    not ``outs[me]`` being exactly *own*, the cell this rank receives from
    itself.  Non-arrays are left to :func:`_check_out`.

    Two different arrays that each own their memory share none: that case
    is settled before ``np.may_share_memory``, which drops the GIL and so
    invites a thread switch on every call.
    """
    return any(
        isinstance(o, np.ndarray) and not (i == me and o is own)
        and any((o is c or not (o.flags.owndata and c.flags.owndata))
                and np.may_share_memory(o, c) for c in live)
        and (i != me or not _same_view(o, own))
        for i, o in enumerate(outs)
    )


def _check_copy_out(out: Sequence | None, n: int, live: Sequence[np.ndarray], me: int,
                    own: np.ndarray | None, what: str) -> int:
    """Check a copy collective's ``out=`` at issue: one buffer per cell, none
    breaking the overlap rule.  Returns *me* when ``out[me]`` is exactly
    *own* (it already holds the bytes, so delivery skips it), else -1.
    A rank that contributes nothing (a broadcast peer) has no *own*."""
    if out is None or own is None:
        return -1
    if len(out) != n:
        raise SpmdError(f"{what} out must supply exactly {n} buffers, got {len(out)}")
    if _overlaps(out, live, me, own):
        raise SpmdError(
            f"{what} out buffers must not overlap this rank's input (peers copy "
            "it live during distribution), except exactly as its own cell"
        )
    return me if isinstance(out[me], np.ndarray) and _same_view(out[me], own) else -1


def _reduce_dest(op: str, arr: np.ndarray, own: np.ndarray, me: int,
                 out: np.ndarray | None, what: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Check a reduction at issue; return ``(out, dest)``.  *out* receives
    this rank's result (a fresh array when ``None``, the shape of *own*, its
    operand: a slice of *arr*).  *dest* is what it reduces into if it
    arrives last: *out*, or ``None`` (a fresh result plus a copy) when *out*
    breaks the overlap rule.  The fixed order reads a group-rank ≥ 2 input
    after its first op wrote the destination, so there even the exact alias
    falls back."""
    _check_reduce(op, arr)
    if out is None:
        out = np.empty_like(own)
        return out, out
    _check_out(out, own.shape, arr.dtype, what)
    return out, None if _overlaps((out,), (arr,), 0 if me < 2 else -1, own) else out


def _operands(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Reject a reduction over mismatched shapes or dtypes (the result takes
    group-rank 0's dtype, so mixed inputs would silently truncate)."""
    kinds = {(a.shape, a.dtype) for a in arrays}
    if len(kinds) > 1:
        raise SpmdError(f"mismatched shapes or dtypes in reduction: {sorted(map(str, kinds))}")
    return arrays


def _reduce(arrays: list[np.ndarray], op: str, dest: np.ndarray | None = None) -> np.ndarray:
    """Reduce in list order — fixed group-rank order, hence deterministic.

    Contributions are not snapshotted, because every contributing rank is
    still blocked inside the rendezvous while this runs; the reduction must
    therefore never write an input it has yet to read.  The first pairwise
    op writes *dest* (fresh when ``None``) and every later op accumulates
    into it in place: the same left-to-right pairwise sequence as reducing
    into a copy, hence bitwise identical.  Callers keep *dest* off
    ``arrays[2:]``; a single array (a solo group) is copied into it.
    """
    if dest is None:
        dest = np.empty_like(arrays[0])  # an array even for 0-d contributions
    if len(arrays) == 1:
        np.copyto(dest, arrays[0])
        return dest
    ufunc = _REDUCE_OPS[op]
    ufunc(arrays[0], arrays[1], out=dest)
    for a in arrays[2:]:
        ufunc(dest, a, out=dest)
    if op == "mean":
        dest /= len(arrays)  # float-only: _check_reduce rejects an int mean
    return dest


def _deliver(cells: list, out: Sequence[np.ndarray] | None, what: str,
             skip: int = -1) -> list:
    """Hand this rank the *cells* it receives: fresh copies, or each cell
    copied into its ``out`` buffer.  Cells are peers' live buffers (or a
    result shared by the group), so a reference would be mutable after the
    wake.  Every buffer is checked before any is written, so a mismatch
    never leaves the caller's buffers half-clobbered; ``out[skip]``, which
    the issuing rank found to be exactly its cell, is not copied.  This runs
    in distribution, off the run token, so it does no more than that."""
    if out is None:
        return [np.array(c, copy=True) for c in cells]
    for o, c in zip(out, cells):
        _check_out(o, c.shape, c.dtype, what)
    for i, (o, c) in enumerate(zip(out, cells)):
        if i != skip:
            np.copyto(o, c)
    return list(out)


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
        the group-rank-ordered contribution list with **no lock held**, nor
        the run token, so a large reduction never serializes unrelated
        groups or ranks.  It then runs every member's ``consume(result)``
        itself, while all peers are still blocked inside the rendezvous, and
        finally opens each waiter's rank gate; waiters pick their value up
        without a lock, once they hold the token again.  A waiter checks
        the abort flag before each sleep on its gate, never on a timer, so
        a collective it finds complete still returns its value after an
        abort.

        Contributions are *not* snapshotted: every contributing rank stays
        blocked until distribution finished, so *compute* and the *consume*
        closures see stable inputs and reduce or copy straight out of
        peers' live buffers into each rank's destination.  A contribution is
        written only through its own rank's ``out=`` once the fixed order
        has read it, and no value handed back aliases another rank's.
        *consume* turns the compute result into one rank's private value;
        one that raises fails only its own rank
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
        without a lock, a clock bid or a completion.
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
        start = finish = -1.0
        if last and clock is not None:
            start = max(slot.arrivals)
            finish = start + clock.collective_seconds(op, slot.payload_max, group.ranks)
        world = self.world
        world._end_turn(self.rank)  # peers run while this rank waits or copies
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
            # Drop contribution and closure references before the wake so
            # the slot never pins live buffers (or callers' out= targets)
            # while the group idles.
            slot.data = []
            slot.consumers = []
            slot.error = error
            slot.start, slot.finish = start, finish
            slot.done = True  # published before the gates open (GIL write order)
            for r in group.ranks:
                if r != self.rank:
                    try:
                        world._gates[r].release()
                    except RuntimeError:
                        pass  # already open: an abort's, or left from an earlier wait
        else:
            # Check the flag before every sleep, the first included: an
            # abort opens each gate only once, and that release may already
            # be spent on a wait whose collective completed meanwhile.  A
            # gate can also be left open by an earlier collective whose
            # waiter found ``done`` set before it slept; that costs one
            # extra turn of this loop.
            gate = world._gates[self.rank]
            while not slot.done:
                world._check_abort()
                gate.acquire()
        world._take_turn(self.rank)
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
        payload_bytes: int,
        consume: Callable[[Any], Any],
        compute: Callable[[list], Any] = lambda data: data,
    ):
        """Rendezvous + traffic accounting for one logged collective.

        *compute* defaults to handing every consume the live contributions
        (the copy collectives).  This rank logs its *payload_bytes* bid, but
        a successful broadcast logs the payload it received: only the root
        knows it at issue.  A collective that fails or is unwound by a world
        abort is **still logged** with its bid (``vend=-1.0``, marking it
        incomplete) so post-mortem traffic accounting across a failure
        boundary sees every op each rank issued — the convention the elastic
        recovery-cost benchmarks rely on.
        """
        op = signature[0]
        try:
            result, vs, ve = self._rendezvous(
                group, signature, contribution, compute, payload_bytes, consume
            )
        except BaseException:
            self._log(op, payload_bytes, group.size, self._vnow(), -1.0)
            raise
        self._log(op, result.nbytes if op == "broadcast" else payload_bytes, group.size, vs, ve)
        return result

    # -- virtual clock -----------------------------------------------------
    def now(self) -> float:
        """This rank's virtual time (``-1.0`` when no clock is installed)."""
        return self._vnow()

    def charge_compute(
        self, seconds: float, phase: str = "compute", label: str = ""
    ) -> tuple[float, float] | None:
        """Advance this rank's virtual clock by a compute interval.

        Model code (:class:`~repro.parallel.FSDPModel`'s ``unit_seconds``,
        a training loop charging its backward before the DP gradient sync,
        :func:`~repro.perf.calibrate.measure_plan`) calls this so rank
        timelines interleave compute with communication and
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
    # Each takes an optional ``out=`` destination and returns it; the rules
    # it must keep (exact shape and dtype, the overlap rule) are stated once,
    # in the module docstring.
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

        Steady-state callers that reduce into preallocated ``out`` buffers
        (gradient accumulators, replay scratch) keep their result in that
        buffer across steps.  The last arriver reduces into its own ``out``
        (a fresh one when none is given) and the peers copy from there.
        """
        group = self._resolve(group)
        arr = np.asarray(array)  # no snapshot: peers stay blocked while we reduce
        out, dest = _reduce_dest(op, arr, arr, group.rank_index(self.rank), out, "all_reduce")
        return self._run_collective(
            group, ("all_reduce", op), arr, arr.nbytes,
            lambda result: result if result is out else _deliver([result], [out], "all_reduce")[0],
            lambda data: _reduce(_operands(data), op, dest),
        )

    def all_gather(
        self,
        array,
        group: ProcessGroup | None = None,
        out: Sequence[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Gather every rank's array; returns private copies in group order.

        ``out`` holds one buffer per group rank.  Parts are copied straight
        out of the peers' live buffers during batched-wake distribution, so
        no intermediate snapshot is ever taken; ``out[me]`` exactly aliasing
        *array* is the in-place form of ``all_gather_into_tensor``.
        """
        group = self._resolve(group)
        arr = np.asarray(array)
        me = group.rank_index(self.rank)
        skip = _check_copy_out(out, group.size, (arr,), me, arr, "all_gather")
        return self._run_collective(
            group, ("all_gather",), arr, arr.nbytes,
            lambda data: _deliver(data, out, "all_gather", skip),
        )

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
        pad is stripped before the result is returned.  The last arriver
        reduces each member's slice straight into that member's ``out`` (a
        fresh slice when none is given); no full-size result is built.
        """
        group = self._resolve(group)
        arr = np.asarray(array)  # no snapshot: the reduction never aliases inputs
        n = group.size
        dim = arr.shape[axis]
        chunk_sizes = split_sizes(dim, n) if sizes is None else tuple(int(s) for s in sizes)
        if len(chunk_sizes) != n or min(chunk_sizes) < 0 or sum(chunk_sizes) != dim:
            raise SpmdError(
                f"reduce_scatter sizes {list(chunk_sizes)} must give each of the {n} "
                f"group ranks a non-negative count, summing to axis {axis}'s {dim}"
            )
        # Padded-collective accounting: with uneven chunks the ring moves
        # max(chunk) per rank per step, i.e. n·max(chunk) total elements.
        payload = arr.nbytes if dim == 0 else arr.nbytes // dim * max(chunk_sizes) * n
        me = group.rank_index(self.rank)
        lo = sum(chunk_sizes[:me])
        idx = (slice(None),) * (axis % arr.ndim) + (slice(lo, lo + chunk_sizes[me]),)
        out, dest = _reduce_dest(op, arr, arr[idx], me, out, "reduce_scatter")
        result = self._run_collective(
            group, ("reduce_scatter", op, axis, chunk_sizes), arr, payload,
            lambda data: _reduce([a[idx] for a in data], op, dest),  # this rank's slice
            _operands,
        )
        # The fallback copies only after the wake: until then a peer's slice
        # may still be read from an input that out overlaps.
        return result if result is out else _deliver([result], [out], "reduce_scatter")[0]

    def broadcast(
        self,
        value,
        root: int,
        group: ProcessGroup | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Every rank receives a copy of the *root* world-rank's payload.

        ``out`` is validated against the root's payload at completion;
        parameter broadcasts write straight into the live parameter buffers
        instead of allocating a copy to assign from.
        """
        group = self._resolve(group)
        root_index = group.rank_index(root)
        payload = np.asarray(value) if self.rank == root else None
        outs = None if out is None else [out]
        skip = _check_copy_out(outs, 1, (payload,), 0, payload, "broadcast")
        return self._run_collective(
            group, ("broadcast", root), payload, 0 if payload is None else payload.nbytes,
            # The root's live buffer: distribution copies from it per rank.
            lambda data: _deliver([data[root_index]], outs, "broadcast", skip)[0],
        )

    def all_to_all(
        self,
        sends,
        group: ProcessGroup | None = None,
        out: Sequence[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Transpose: element *i* of the result is what group-rank *i* sent
        to this rank (their ``sends[my_group_index]``).

        ``out`` holds one buffer per group rank; ``out[me]`` may exactly
        alias ``sends[me]``.
        """
        group = self._resolve(group)
        if len(sends) != group.size:
            raise SpmdError(f"all_to_all needs {group.size} send buffers, got {len(sends)}")
        contribution = [np.asarray(s) for s in sends]
        me = group.rank_index(self.rank)
        skip = _check_copy_out(out, group.size, contribution, me, contribution[me], "all_to_all")
        # Live send matrix: cell (i, j) is copied out only by group-rank j's
        # distribution step — exactly the n² cells that are needed.
        return self._run_collective(
            group, ("all_to_all",), contribution, sum(c.nbytes for c in contribution),
            lambda data: _deliver([row[me] for row in data], out, "all_to_all", skip),
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
    the run exceeds *timeout* seconds (default 120; the message then names
    each rank still blocked in a collective, with its op, group and arrival
    count, and the rank holding the run token); the error carries the failed
    ``rank`` and the dead ``world``.  ``failure_plan`` installs a
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
            world._take_turn(rank)
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
        finally:
            world._end_turn(rank)

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
        # Name the blocked ranks before the abort unwinds them.
        world.abort(-1, TimeoutError("; ".join([
            f"SPMD world timed out after {timeout:g}s "
            "(likely a deadlocked or mismatched collective)", *world._blocked()])))
        grace = 5.0
        for t in threads:
            t.join(grace)
    failure = world._failure
    if failure is not None:
        rank, exc = failure
        if rank < 0:
            err = SpmdError(str(exc))
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
