"""Per-link communication-volume analytics: analytic vs simulated vs measured.

The repo prices every collective three independent ways, and this module
is where the three books are reconciled per ``op × phase × link``:

    =========== ==========================================================
    source      where the numbers come from
    =========== ==========================================================
    analytic    :func:`~repro.perf.comm_model.step_comm_schedule` priced
                through :class:`~repro.perf.cost.CostModel` — pure math,
                no world ever runs
    simulated   the :class:`~repro.perf.clock.VirtualClock`'s archived
                intervals (:meth:`~repro.perf.clock.VirtualClock.comm_volumes`)
                — what the issue-queue engine actually scheduled
    measured    the :class:`~repro.dist.stats.TrafficLog` of a real
                :func:`~repro.dist.run_spmd` world — what the runtime's
                rendezvous actually moved
    =========== ==========================================================

Link class (``intra`` / ``inter``) is derived per source: the clock stamps
each interval from the group's actual world ranks
(:meth:`CostModel.intra_node`), while the analytic and measured books use
the plan's placement rule (:func:`~repro.perf.comm_model.axis_intra_node`)
— the same rank layout, so a disagreement between columns is a real bug,
not a bookkeeping convention.

**Wire bytes must agree exactly** across all three sources (that is the
calibration contract, extended per link class); the seconds columns are
informational — simulated busy seconds equal the analytic α–β cost to
float precision, while measured vseconds (``vend − vstart``) additionally
include time spent waiting for stragglers and are expected to sit above
both on eager runs.

:func:`comm_volume_report` builds the report for one plan (running the
measured replay itself unless handed one), ``report.to_markdown()``
renders the diff table with per-bucket OK/MISMATCH flags, and
``python -m repro.obs.commvol`` is the CI gate: nonzero exit on any
wire-byte disagreement.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from ..perf.calibrate import AXIS_PHASES, MeasuredComm, measure_plan
from ..perf.comm_model import axis_group_sizes, axis_intra_node, step_comm_schedule
from ..perf.cost import CostModel
from ..perf.machine import MachineSpec, frontier
from ..perf.modelcfg import ModelConfig
from ..perf.plan import ParallelPlan, Precision, Workload

__all__ = [
    "PHASE_AXES",
    "VolumeBucket",
    "CommVolumeReport",
    "comm_volume_report",
    "main",
]

#: Traffic phase → schedule axis (inverse of :data:`repro.perf.calibrate.AXIS_PHASES`).
PHASE_AXES = {phase: axis for axis, phase in AXIS_PHASES.items()}


@dataclass(frozen=True)
class VolumeBucket:
    """One ``op × phase × link`` reconciliation row (rank 0, whole run).

    Wire bytes are per-rank ring volume; counts are per-rank collective
    records.  ``analytic_seconds`` and ``simulated_seconds`` are pure α–β
    channel occupancy; ``measured_vseconds`` is record wall-time
    (``vend − vstart``), which also pays straggler waits.
    """

    op: str
    phase: str
    link: str                # "intra" | "inter"
    analytic_wire: int = 0
    simulated_wire: int = 0
    measured_wire: int = 0
    analytic_count: int = 0
    simulated_count: int = 0
    measured_count: int = 0
    analytic_seconds: float = 0.0
    simulated_seconds: float = 0.0
    measured_vseconds: float = 0.0

    @property
    def wire_ok(self) -> bool:
        """Exact three-way wire-byte agreement (the gated invariant)."""
        return self.analytic_wire == self.simulated_wire == self.measured_wire

    @property
    def count_ok(self) -> bool:
        return self.analytic_count == self.simulated_count == self.measured_count

    def wire_mismatch(self, tolerance: float = 0.0) -> bool:
        """Whether the wire spread exceeds *tolerance* (relative to the
        analytic figure; ``0.0`` demands exact agreement)."""
        if self.wire_ok:
            return False
        lo = min(self.analytic_wire, self.simulated_wire, self.measured_wire)
        hi = max(self.analytic_wire, self.simulated_wire, self.measured_wire)
        scale = max(abs(self.analytic_wire), 1)
        return (hi - lo) / scale > tolerance

    @property
    def seconds_residual(self) -> float:
        """Relative |simulated − analytic| α–β seconds (float-precision small)."""
        scale = max(abs(self.analytic_seconds), 1e-30)
        return abs(self.simulated_seconds - self.analytic_seconds) / scale


@dataclass(frozen=True)
class CommVolumeReport:
    """The reconciled per-link volume report of one plan's replay."""

    plan: ParallelPlan
    machine: str
    world_size: int
    eager: bool
    n_steps: int
    buckets: tuple[VolumeBucket, ...] = field(default_factory=tuple)

    @property
    def wire_exact(self) -> bool:
        return all(b.wire_ok for b in self.buckets)

    @property
    def max_seconds_residual(self) -> float:
        return max((b.seconds_residual for b in self.buckets), default=0.0)

    def mismatches(self, tolerance: float = 0.0) -> list[VolumeBucket]:
        """Buckets whose wire spread exceeds *tolerance* (flagged rows)."""
        return [b for b in self.buckets if b.wire_mismatch(tolerance)]

    def total_wire(self, source: str = "measured") -> int:
        return sum(getattr(b, f"{source}_wire") for b in self.buckets)

    def to_markdown(self, tolerance: float = 0.0) -> str:
        """The diff table: one row per bucket, flagged OK / **MISMATCH**."""
        mode = "eager" if self.eager else "blocking"
        lines = [
            f"Comm volume — {self.plan.label} on {self.machine}, "
            f"{self.world_size} ranks, {mode}, {self.n_steps} step(s), rank 0",
            "",
            "| op | phase | link | n | wire analytic | wire simulated | "
            "wire measured | αβ s | sim busy s | meas vsec | status |",
            "|---|---|---|---:|---:|---:|---:|---:|---:|---:|---|",
        ]
        for b in self.buckets:
            status = "OK" if not b.wire_mismatch(tolerance) else "**MISMATCH**"
            if not b.count_ok:
                status = "**MISMATCH**"
            counts = (
                str(b.analytic_count)
                if b.count_ok
                else f"{b.analytic_count}/{b.simulated_count}/{b.measured_count}"
            )
            lines.append(
                f"| {b.op} | {b.phase} | {b.link} | {counts} "
                f"| {b.analytic_wire:,} | {b.simulated_wire:,} "
                f"| {b.measured_wire:,} | {b.analytic_seconds:.3e} "
                f"| {b.simulated_seconds:.3e} | {b.measured_vseconds:.3e} "
                f"| {status} |"
            )
        flagged = self.mismatches(tolerance) or [
            b for b in self.buckets if not b.count_ok
        ]
        verdict = (
            "all wire bytes agree analytic = simulated = measured"
            if not flagged
            else f"{len(flagged)} bucket(s) disagree beyond tolerance {tolerance}"
        )
        lines += ["", f"**{verdict}**"]
        return "\n".join(lines)


def comm_volume_report(
    model: ModelConfig,
    workload: Workload,
    plan: ParallelPlan,
    machine: MachineSpec | None = None,
    precision: Precision = Precision(),
    eager: bool = True,
    n_steps: int = 1,
    measured: MeasuredComm | None = None,
    rank: int = 0,
) -> CommVolumeReport:
    """Reconcile one plan's comm volume across all three books.

    Runs the measured replay itself (``measure_plan(..., keep_world=True)``)
    unless handed a *measured* result — which must have been produced with
    ``keep_world=True``, as both the simulated column (clock intervals) and
    the measured column (traffic log) are read off the retained world.

    Buckets cover the union of keys any source reports, with absent
    sources at zero — traffic in only one book is itself a flagged
    mismatch, not an accounting gap.
    """
    machine = machine if machine is not None else frontier()
    if measured is None:
        measured = measure_plan(
            model, workload, plan, machine, precision,
            eager=eager, n_steps=n_steps, keep_world=True,
        )
    world = measured.world
    if world is None:
        raise ValueError(
            "comm_volume_report needs the replay's world: produce the "
            "MeasuredComm with measure_plan(..., keep_world=True)"
        )
    cost = CostModel(machine)
    sizes = axis_group_sizes(plan)
    intra = axis_intra_node(plan, machine)
    steps = measured.n_steps

    # -- analytic: the schedule priced event by event, scaled to the run --
    analytic: dict[tuple[str, str, str], list] = {}
    for ev in step_comm_schedule(model, workload, plan, precision):
        n = sizes[ev.axis]
        if n <= 1:
            continue
        phase = AXIS_PHASES[ev.axis]
        link = "intra" if intra[ev.axis] else "inter"
        row = analytic.setdefault((ev.op, phase, link), [0, 0, 0.0])
        count = ev.count * steps
        row[0] += count
        row[1] += count * cost.wire_bytes(ev.op, ev.payload_bytes, n)
        row[2] += count * cost.collective_seconds(
            ev.op, ev.payload_bytes, n, intra[ev.axis]
        )

    # -- simulated: the clock's archived intervals (O(buckets) read) ------
    simulated = {
        (op, phase, "intra" if is_intra else "inter"): vals
        for (op, phase, is_intra), vals in world.clock.comm_volumes(rank=rank).items()
    }

    # -- measured: the traffic log, link-classed by the plan's placement --
    measured_keys = set()
    for r in world.traffic.records(rank=rank):
        axis = PHASE_AXES.get(r.phase)
        if axis is None:
            continue  # not a schedule phase (e.g. a barrier outside the step)
        link = "intra" if intra[axis] else "inter"
        measured_keys.add((r.op, r.phase, link))
    measured_vals = {}
    for op, phase, link in measured_keys:
        tot = world.traffic.totals(op=op, phase=phase, rank=rank)
        measured_vals[(op, phase, link)] = (tot.count, tot.wire_bytes, tot.vseconds)

    buckets = []
    for key in sorted({*analytic, *simulated, *measured_vals}):
        op, phase, link = key
        a_cnt, a_wire, a_sec = analytic.get(key, (0, 0, 0.0))
        s_cnt, s_wire, s_sec = simulated.get(key, (0, 0, 0.0))
        m_cnt, m_wire, m_sec = measured_vals.get(key, (0, 0, 0.0))
        buckets.append(
            VolumeBucket(
                op=op, phase=phase, link=link,
                analytic_wire=a_wire, simulated_wire=s_wire, measured_wire=m_wire,
                analytic_count=a_cnt, simulated_count=s_cnt, measured_count=m_cnt,
                analytic_seconds=a_sec, simulated_seconds=s_sec,
                measured_vseconds=m_sec,
            )
        )
    return CommVolumeReport(
        plan=plan,
        machine=machine.name,
        world_size=measured.world_size,
        eager=measured.eager,
        n_steps=steps,
        buckets=tuple(buckets),
    )


def _default_model() -> ModelConfig:
    """The small standard world the observability CLIs replay."""
    return ModelConfig("obs-demo", dim=64, depth=2, heads=4, patch=4, image_hw=(16, 16))


def main(argv: list[str] | None = None) -> int:
    """CLI: render the per-link diff table, gate on wire-byte agreement.

    Exits nonzero whenever any ``op × phase × link`` bucket's wire bytes
    disagree between the analytic schedule, the simulated clock and the
    measured traffic log beyond ``--tolerance`` (default: exact).
    """
    parser = argparse.ArgumentParser(description="per-link comm-volume diff")
    parser.add_argument("--strategy", default="dist_tok",
                        choices=("tp", "dist_tok", "dchag"))
    parser.add_argument("--tp", type=int, default=2)
    parser.add_argument("--sp", type=int, default=1,
                        help="sequence-parallel degree (Ulysses sp_a2a phases)")
    parser.add_argument("--fsdp", type=int, default=1)
    parser.add_argument("--dp", type=int, default=2)
    parser.add_argument("--channels", type=int, default=16)
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument("--steps", type=int, default=1)
    parser.add_argument("--blocking", action="store_true",
                        help="blocking replay (default is the eager issue queue)")
    parser.add_argument("--tolerance", type=float, default=0.0,
                        help="relative wire-byte tolerance (default 0 — exact)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the markdown table to PATH")
    args = parser.parse_args(argv)

    plan = ParallelPlan(
        strategy=args.strategy, tp=args.tp, sp=args.sp, fsdp=args.fsdp, dp=args.dp
    )
    report = comm_volume_report(
        _default_model(),
        Workload(channels=args.channels, batch=args.batch),
        plan,
        eager=not args.blocking,
        n_steps=args.steps,
    )
    table = report.to_markdown(args.tolerance)
    print(table)
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(table + "\n")
    if report.mismatches(args.tolerance) or not all(b.count_ok for b in report.buckets):
        print("FAIL: wire-byte books disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke job
    raise SystemExit(main())
