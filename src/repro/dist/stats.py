"""Wire-traffic accounting for the simulated runtime.

Two layers:

* :func:`ring_wire_bytes` — the analytic per-rank wire volume of a ring
  collective, the same α–β convention :mod:`repro.perf.comm_model` prices
  (§4.1's RCCL ring algorithms).
* :class:`TrafficLog` — the per-world collective counter.  Every collective a
  rank issues appends one :class:`TrafficRecord`; the figure ablations and
  the D-CHAG communication tests read counts, payload bytes and wire bytes
  back out with the filter methods.

Payload conventions (matching NCCL/RCCL accounting and the analytic model):

============== =====================================================
op             ``payload_bytes`` argument
============== =====================================================
all_reduce     the full vector (identical on every rank)
all_gather     this rank's contribution (the shard)
reduce_scatter the full input vector (before scattering)
broadcast      the root's payload
all_to_all     one rank's total send volume
============== =====================================================

Per-rank ring wire volume:

* ``all_reduce``      → ``2·(n−1)/n · payload``  (reduce-scatter + all-gather phases)
* ``all_gather``      → ``(n−1) · shard``        (= ``(n−1)/n`` of the gathered total)
* ``reduce_scatter``  → ``(n−1)/n · payload``
* ``broadcast``       → ``(n−1)/n · payload``    (pipelined ring)
* ``all_to_all``      → ``(n−1)/n · payload``    (the diagonal stays local)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["ring_wire_bytes", "TrafficRecord", "TrafficTotals", "TrafficLog"]

_COLLECTIVE_OPS = frozenset(
    {"all_reduce", "all_gather", "reduce_scatter", "broadcast", "all_to_all"}
)


def ring_wire_bytes(op: str, payload_bytes: int, group_size: int) -> int:
    """Per-rank bytes on the wire for one ring collective (see module doc)."""
    if op not in _COLLECTIVE_OPS:
        raise ValueError(f"unknown collective op {op!r}")
    n = int(group_size)
    if n < 1:
        raise ValueError(f"group size must be >= 1, got {group_size}")
    p = int(payload_bytes)
    if p < 0:
        raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes}")
    if n == 1:
        return 0
    if op == "all_reduce":
        return (2 * (n - 1) * p) // n
    if op == "all_gather":
        return (n - 1) * p
    return ((n - 1) * p) // n


@dataclass(frozen=True)
class TrafficRecord:
    """One collective issued by one rank.

    ``vstart``/``vend`` are **virtual-clock** stamps, populated when the
    world runs with ``run_spmd(..., clock=VirtualClock(machine))``: ``vstart``
    is this rank's simulated time when it entered the collective and ``vend``
    the group-wide simulated completion (slowest arrival + α–β collective
    cost), so ``vend − vstart`` includes time spent waiting for stragglers.
    Both stay ``-1.0`` without a clock; a collective that failed or was
    unwound by a world abort keeps its ``vstart`` but logs ``vend = -1.0``.
    """

    rank: int
    op: str
    phase: str
    payload_bytes: int
    wire_bytes: int
    group_size: int
    vstart: float = -1.0
    vend: float = -1.0


@dataclass(frozen=True)
class TrafficTotals:
    """Single-pass aggregate of one (op, phase, rank) bucket of records.

    ``vseconds`` sums the virtual collective wall-time ``vend − vstart``
    over the bucket's completed clock-stamped records (both stamps
    ``>= 0``); it stays 0 for worlds run without a virtual clock, and an
    aborted collective (``vend = -1``) adds to ``count`` but not to it.
    """

    count: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    vseconds: float = 0.0


class TrafficLog:
    """Thread-safe log of every collective a world's ranks issue.

    One record per participating rank per collective, so ``count(op=...)`` on
    a 4-rank world that performs one AllReduce returns 4 — the convention the
    ablation benchmarks divide back out.  A fresh log is created for every
    :func:`~repro.dist.run_spmd` invocation; counters never leak across runs.

    Aggregates (``count`` / ``payload_bytes`` / ``wire_bytes`` /
    ``ops_histogram`` / ``totals``) are maintained as **running per-bucket
    totals** keyed by ``(op, phase, rank)``, so a query costs O(buckets),
    not O(records).  Every read and write takes the one lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[TrafficRecord] = []
        # (op, phase, rank) -> (count, payload_bytes, wire_bytes, vseconds)
        self._buckets: dict[tuple[str, str, int], tuple[int, int, int, float]] = {}

    def add(self, record: TrafficRecord) -> None:
        key = (record.op, record.phase, record.rank)
        vs = 0.0
        if record.vstart >= 0.0 and record.vend >= 0.0:
            vs = record.vend - record.vstart
        with self._lock:
            self._records.append(record)
            c, p, w, v = self._buckets.get(key, (0, 0, 0, 0.0))
            self._buckets[key] = (
                c + 1, p + record.payload_bytes, w + record.wire_bytes, v + vs
            )

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
            self._buckets.clear()

    # -- filtered views ---------------------------------------------------
    def records(
        self, op: str | None = None, phase: str | None = None, rank: int | None = None
    ) -> list[TrafficRecord]:
        """Matching records.

        Each rank's own records appear in issue order; the cross-rank
        interleaving is unspecified.  Unlike the aggregate queries this
        walks the full record list (O(records)); use it for per-record
        data — virtual intervals, post-mortem inspection — not for counting.
        """
        with self._lock:
            records = list(self._records)
        if op is None and phase is None and rank is None:
            return records
        return [
            r
            for r in records
            if (op is None or r.op == op)
            and (phase is None or r.phase == phase)
            and (rank is None or r.rank == rank)
        ]

    def totals(
        self, op: str | None = None, phase: str | None = None, rank: int | None = None
    ) -> TrafficTotals:
        """Aggregate over every bucket matching the given filters; every
        record added before the call is counted."""
        count = payload = wire = 0
        vseconds = 0.0
        with self._lock:
            buckets = list(self._buckets.items())
        for (b_op, b_phase, b_rank), (c, p, w, v) in buckets:
            if (
                (op is None or b_op == op)
                and (phase is None or b_phase == phase)
                and (rank is None or b_rank == rank)
            ):
                count += c
                payload += p
                wire += w
                vseconds += v
        return TrafficTotals(
            count=count, payload_bytes=payload, wire_bytes=wire, vseconds=vseconds
        )

    def count(self, op: str | None = None, phase: str | None = None, rank: int | None = None) -> int:
        return self.totals(op, phase, rank).count

    def payload_bytes(
        self, op: str | None = None, phase: str | None = None, rank: int | None = None
    ) -> int:
        return self.totals(op, phase, rank).payload_bytes

    def wire_bytes(
        self, op: str | None = None, phase: str | None = None, rank: int | None = None
    ) -> int:
        return self.totals(op, phase, rank).wire_bytes

    def ops_histogram(
        self, rank: int | None = None, top: int | None = None
    ) -> dict[str, int]:
        """Per-op record counts; ``top`` keeps only the N most frequent ops
        (ties broken by op name for determinism) — the cap large-world
        drivers use so a histogram render never enumerates every op."""
        hist: dict[str, int] = {}
        with self._lock:
            buckets = list(self._buckets.items())
        for (b_op, _b_phase, b_rank), (c, _p, _w, _v) in buckets:
            if rank is None or b_rank == rank:
                hist[b_op] = hist.get(b_op, 0) + c
        if top is not None and len(hist) > top:
            kept = sorted(hist.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
            return dict(kept)
        return hist

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    #: Ops rendered by ``repr`` before the histogram is elided.
    _REPR_TOP_OPS = 6

    def __repr__(self) -> str:
        hist = self.ops_histogram()
        shown = self.ops_histogram(top=self._REPR_TOP_OPS)
        extra = len(hist) - len(shown)
        body = ", ".join(f"{op!r}: {n}" for op, n in sorted(shown.items()))
        if extra > 0:
            body += f", … +{extra} more ops"
        return f"TrafficLog({{{body}}})"
