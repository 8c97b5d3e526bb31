"""Chrome Trace Event export for virtual-clock timelines.

Lowers a :class:`~repro.perf.clock.VirtualClock`'s archived per-rank
timelines — live worlds, ``measure_plan(..., keep_world=True)`` results and
:class:`~repro.perf.schedule.ReplayResult`\\ s alike (anything with a
``.clock``) — to the Chrome Trace Event JSON format, viewable in
``chrome://tracing`` or https://ui.perfetto.dev.

Track convention (all timestamps in microseconds of virtual time):

    ======================  ==============================================
    trace surface           clock source
    ======================  ==============================================
    process ``rank N``      one per world rank
    thread ``compute``      :class:`ComputeInterval` spans (``"X"``)
    thread ``comm channel`` :class:`CommInterval` channel occupancy
                            (``"X"``, args carry payload/wire/link/exposed)
    flow ``s``/``t``/``f``  one per multi-rank collective, tying the
                            group's per-rank slices together (grouped by
                            the interval's ``group`` identity — concurrent
                            symmetric collectives stay distinct flows)
    counter ``exposed:*``   cumulative exposed seconds per phase, stepped
                            at each settled collective's end
    counter ``wire:*``      cumulative wire bytes per phase
    async ``inflight``      issue→end window of each eager collective
                            (``"b"``/``"e"`` nestables on the issuing rank)
    ======================  ==============================================

The final value of every ``exposed:<phase>`` counter equals
``clock.exposed_seconds(rank, phase)`` exactly (property-tested), so the
trace is a faithful rendering of the simulator's books, not a parallel
account.  :func:`validate_trace` checks the structural invariants the
tests and the ``--smoke`` CI gate rely on.

CLI::

    python -m repro.obs.trace --tp 2 --dp 2 --out step.trace.json
    python -m repro.obs.trace --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from ..perf.clock import CommInterval, VirtualClock

__all__ = [
    "COMPUTE_TID",
    "COMM_TID",
    "chrome_trace",
    "export_trace",
    "validate_trace",
    "main",
]

#: Thread ids within each rank's process.
COMPUTE_TID = 0
COMM_TID = 1

_US = 1e6  # trace timestamps are microseconds; the clock runs in seconds


def _clock_of(source: Any) -> VirtualClock:
    """Accept a clock, a World, a ReplayResult — anything with ``.clock``."""
    clock = getattr(source, "clock", source)
    if not hasattr(clock, "timeline") or not hasattr(clock, "world_size"):
        raise TypeError(
            f"cannot extract a VirtualClock from {type(source).__name__!r}: "
            "pass a clock, a World, or a ReplayResult"
        )
    return clock


def chrome_trace(source: Any, label: str = "repro") -> dict:
    """Render *source*'s archived timelines as a Chrome trace object.

    Returns ``{"traceEvents": [...], "otherData": {...}}`` — dump it with
    ``json.dump`` (or :func:`export_trace`) and load the file in Perfetto.
    Eager collectives still pending are not rendered; finalize/drain the
    world first (``run_spmd`` worlds already are).
    """
    clock = _clock_of(source)
    n = clock.world_size
    events: list[dict] = []

    for rank in range(n):
        events.append(_meta(rank, COMPUTE_TID, "process_name", name=f"rank {rank}"))
        events.append(
            _meta(rank, COMPUTE_TID, "process_sort_index", sort_index=rank)
        )
        events.append(_meta(rank, COMPUTE_TID, "thread_name", name="compute"))
        events.append(_meta(rank, COMM_TID, "thread_name", name="comm channel"))

    # One flow per multi-rank collective: members share (group, op, phase,
    # start, end) — the group identity keeps concurrent symmetric
    # collectives (e.g. the two TP groups of a tp2×dp2 world) distinct.
    flows: dict[tuple, list[CommInterval]] = {}
    async_id = 0
    for rank in range(n):
        counters: dict[str, float] = {}
        for iv in clock.timeline(rank):
            ts = iv.start * _US
            dur = (iv.end - iv.start) * _US
            if isinstance(iv, CommInterval):
                events.append(
                    {
                        "ph": "X", "pid": rank, "tid": COMM_TID,
                        "ts": ts, "dur": dur,
                        "name": iv.op, "cat": iv.phase or "comm",
                        "args": {
                            "phase": iv.phase,
                            "issue_us": iv.issue * _US,
                            "exposed_us": iv.exposed * _US,
                            "payload_bytes": iv.payload_bytes,
                            "wire_bytes": iv.wire_bytes,
                            "link": iv.link,
                            "group": list(iv.group),
                        },
                    }
                )
                if len(iv.group) > 1:
                    flows.setdefault(
                        (iv.group, iv.op, iv.phase, iv.start, iv.end), []
                    ).append(iv)
                if clock.is_eager(iv.op, iv.phase):
                    # The in-flight window: dispatch to completion on the
                    # issuing rank, rendered as its own nestable async row.
                    async_id += 1
                    common = {
                        "cat": "inflight", "id": async_id, "pid": rank,
                        "tid": COMM_TID, "name": iv.op,
                    }
                    events.append({"ph": "b", "ts": iv.issue * _US, **common})
                    events.append({"ph": "e", "ts": iv.end * _US, **common})
                # Cumulative per-phase counters, stepped at settlement.
                # Archive order is monotone in ``end`` per rank, so each
                # counter series is emitted with non-decreasing timestamps.
                for prefix, delta, unit in (
                    ("exposed", iv.exposed, "seconds"),
                    ("wire", float(iv.wire_bytes), "bytes"),
                ):
                    key = f"{prefix}:{iv.phase}"
                    counters[key] = counters.get(key, 0.0) + delta
                    events.append(
                        {
                            "ph": "C", "pid": rank, "tid": COMM_TID,
                            "ts": iv.end * _US, "name": key,
                            "args": {unit: counters[key]},
                        }
                    )
            else:
                events.append(
                    {
                        "ph": "X", "pid": rank, "tid": COMPUTE_TID,
                        "ts": ts, "dur": dur,
                        "name": iv.label or iv.phase, "cat": iv.phase,
                        "args": {"phase": iv.phase},
                    }
                )

    for flow_id, (key, members) in enumerate(sorted(flows.items()), start=1):
        _group, op, phase, start, _end = key
        members.sort(key=lambda iv: iv.rank)
        for pos, iv in enumerate(members):
            ph = "s" if pos == 0 else ("f" if pos == len(members) - 1 else "t")
            ev = {
                "ph": ph, "pid": iv.rank, "tid": COMM_TID,
                "ts": start * _US, "name": op, "cat": phase or "comm",
                "id": flow_id,
            }
            if ph == "f":
                ev["bp"] = "e"  # bind to the enclosing slice, not the next one
            events.append(ev)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs.trace",
            "label": label,
            "world_size": n,
            "machine": clock.machine.name,
            "eager_phases": sorted(clock.eager_phases),
            "elapsed_us": clock.elapsed() * _US,
        },
    }


def _meta(pid: int, tid: int, meta_name: str, **args) -> dict:
    return {"ph": "M", "pid": pid, "tid": tid, "ts": 0, "name": meta_name, "args": args}


def export_trace(source: Any, path: str | Path, label: str = "repro") -> dict:
    """Render and write a trace JSON file; returns the trace object."""
    trace = chrome_trace(source, label=label)
    p = Path(path)
    if p.parent != Path(""):
        p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return trace


def validate_trace(trace: Any) -> list[str]:
    """Structural lint of a trace object; returns problems (empty = valid).

    Checks the invariants every export must hold: required keys per event,
    non-negative µs durations, per-track ``"X"`` slices sorted and
    non-overlapping, each flow id carrying exactly one start and one
    finish, balanced ``"b"``/``"e"`` async pairs, and per-counter values
    non-decreasing (ours are cumulative).
    """
    problems: list[str] = []
    if not isinstance(trace, dict) or not isinstance(trace.get("traceEvents"), list):
        return ["trace must be a dict with a traceEvents list"]
    slices: dict[tuple, list[tuple[float, float]]] = {}
    flow_phs: dict[Any, list[str]] = {}
    async_phs: dict[Any, list[str]] = {}
    counters: dict[tuple, list[float]] = {}
    for i, ev in enumerate(trace["traceEvents"]):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        missing = [k for k in ("ph", "pid", "tid", "ts") if k not in ev]
        if missing:
            problems.append(f"event {i}: missing keys {missing}")
            continue
        ph = ev["ph"]
        if ph != "M" and "name" not in ev:
            problems.append(f"event {i}: {ph!r} event has no name")
        if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
            problems.append(f"event {i}: bad ts {ev['ts']!r}")
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: X event with bad dur {dur!r}")
                continue
            slices.setdefault((ev["pid"], ev["tid"]), []).append(
                (float(ev["ts"]), float(ev["ts"]) + float(dur))
            )
        elif ph in ("s", "t", "f"):
            flow_phs.setdefault(ev.get("id"), []).append(ph)
        elif ph in ("b", "e"):
            async_phs.setdefault((ev.get("cat"), ev.get("id")), []).append(ph)
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"event {i}: counter without args")
                continue
            for series, value in args.items():
                counters.setdefault((ev["pid"], ev["name"], series), []).append(
                    float(value)
                )
    for (pid, tid), spans in slices.items():
        spans.sort()
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            if start < prev_end - 1e-6:  # µs-scale tolerance for float lowering
                problems.append(
                    f"track pid={pid} tid={tid}: overlapping X slices "
                    f"(start {start} < previous end {prev_end})"
                )
                break
    for flow_id, phs in flow_phs.items():
        if phs.count("s") != 1 or phs.count("f") != 1:
            problems.append(
                f"flow {flow_id}: expected one 's' and one 'f', got {sorted(phs)}"
            )
    for key, phs in async_phs.items():
        if phs.count("b") != phs.count("e"):
            problems.append(f"async {key}: unbalanced b/e pairs {sorted(phs)}")
    for (pid, name, series), values in counters.items():
        if any(b < a - 1e-9 for a, b in zip(values, values[1:])):
            problems.append(
                f"counter pid={pid} {name}[{series}]: values not non-decreasing"
            )
    return problems


def _trace_from_args(args) -> tuple[dict, str]:
    """Build the trace the CLI asked for; returns (trace, description)."""
    from ..perf.calibrate import measure_plan
    from ..perf.plan import ParallelPlan, Workload
    from .commvol import _default_model

    plan = ParallelPlan(strategy=args.strategy, tp=args.tp, fsdp=args.fsdp, dp=args.dp)
    measured = measure_plan(
        _default_model(),
        Workload(channels=args.channels, batch=args.batch),
        plan,
        eager=not args.blocking,
        n_steps=args.steps,
        keep_world=True,
    )
    return (
        chrome_trace(measured.world, label=plan.label),
        f"{plan.label}, {plan.total_gpus} ranks, "
        f"{'blocking' if args.blocking else 'eager'}, {args.steps} step(s)",
    )


def main(argv: list[str] | None = None) -> int:
    """CLI: render the trace of a plan spec's measured step(s).

    Always validates the rendered trace and exits nonzero on any
    structural problem — ``--smoke`` is the CI entry point (4-rank eager
    tp2×dp2 step to ``--out``, default ``step.trace.json``).
    """
    parser = argparse.ArgumentParser(description="Chrome-trace export")
    parser.add_argument("--strategy", default="dist_tok",
                        choices=("tp", "dist_tok", "dchag"))
    parser.add_argument("--tp", type=int, default=2)
    parser.add_argument("--fsdp", type=int, default=1)
    parser.add_argument("--dp", type=int, default=2)
    parser.add_argument("--channels", type=int, default=16)
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument("--steps", type=int, default=1)
    parser.add_argument("--blocking", action="store_true",
                        help="blocking replay (default is the eager issue queue)")
    parser.add_argument("--out", default="step.trace.json", metavar="PATH",
                        help="trace JSON output path")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke: default 4-rank eager step, validated")
    args = parser.parse_args(argv)

    trace, description = _trace_from_args(args)
    problems = validate_trace(trace)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    n_events = len(trace["traceEvents"])
    print(f"{description}: {n_events} events -> {out}")
    if problems:
        for p in problems:
            print(f"INVALID: {p}", file=sys.stderr)
        return 1
    print("trace valid: open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke job
    raise SystemExit(main())
