"""Fleet-scale autotuner sweep priced entirely by step-schedule replay.

Ranks every feasible configuration of a 7B-class model across a whole
fleet of GPU budgets — ``len(FLEET_BUDGETS)`` (total_gpus, global_batch)
points, >= 1000 candidate plans in total — through
:func:`repro.perf.autotune.sweep_replay`, which ranks every budget through
one shared :func:`repro.perf.simulated_overlaps` oracle: at most a handful
of stand-in steps are ever written (one per schedule shape; the run
asserts ``captured_worlds <= 4``; no threaded world is started), each is
lowered once into a :class:`repro.perf.schedule.ReplayProgram`, and every
distinct (placement, compute-scale) variant is one run of its shape's
program.  The per-budget yardstick — one
``search_configurations(..., overlaps=simulated_overlaps(...))`` call per
budget, each writing its own stand-in steps — is timed once and recorded as
``speedup_vs_per_budget``; both paths produce identical rankings (pinned in
``tests/test_schedule_replay.py``).

The grid keeps the channel count odd on purpose: D-CHAG requires
``channels % tp == 0``, so every candidate collapses to ``tp=1`` and the
shrunk stand-in shapes stay within the <= 4 stand-in-step budget while the
(fsdp, dp) factorizations still fan out to 1000+ candidates.

The result row is printed as JSON; ``--out PATH`` also writes it to a file.
The repo's tracked timings live in ``benchmarks/e2e`` (workload
``fleet_sweep``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

from repro.perf import (
    frontier,
    named_model,
    search_configurations,
    simulated_overlaps,
    sweep_replay,
)

MACHINE = frontier()
FLEET_MODEL_NAME = "7B"
#: Odd on purpose — forces tp=1 under D-CHAG's channels % tp == 0 rule,
#: capping the sweep at <= 4 written stand-in steps (see module docstring).
FLEET_CHANNELS = 495
FLEET_STRATEGIES = ("dchag",)
MAX_WORLDS = 4
MIN_CANDIDATES = 1000


def _budget_grid() -> list[tuple[int, int]]:
    """8 .. 12,288 GPUs x {1,2,3,4,6,8,12,16} samples/GPU: 168 budgets."""
    gpus: set[int] = set()
    for e in range(3, 14):
        gpus.add(2**e)
        if e >= 4:
            gpus.add(3 * 2**e // 2)
    return [(g, g * m) for g in sorted(gpus) for m in (1, 2, 3, 4, 6, 8, 12, 16)]


FLEET_BUDGETS = _budget_grid()


def fleet_sweep_once() -> "object":
    """One full sweep (the timed unit); asserts the sweep's shape contract."""
    sweep = sweep_replay(
        named_model(FLEET_MODEL_NAME), FLEET_CHANNELS, MACHINE, FLEET_BUDGETS,
        strategies=FLEET_STRATEGIES,
    )
    assert sweep.candidates >= MIN_CANDIDATES, (
        f"fleet sweep shrank: {sweep.candidates} candidates < {MIN_CANDIDATES}"
    )
    assert sweep.captured_worlds <= MAX_WORLDS, (
        f"fleet sweep over-captured: {sweep.captured_worlds} worlds > {MAX_WORLDS}"
    )
    return sweep


def per_budget_seconds() -> float:
    """The per-budget path, timed once: one ``search_configurations`` call
    per budget under a fresh simulated-overlap oracle, each writing its
    own stand-in steps."""
    model = named_model(FLEET_MODEL_NAME)
    t0 = time.perf_counter()
    for total_gpus, global_batch in FLEET_BUDGETS:
        search_configurations(
            model, FLEET_CHANNELS, total_gpus, MACHINE, global_batch,
            strategies=FLEET_STRATEGIES,
            overlaps=simulated_overlaps(MACHINE, model, FLEET_CHANNELS),
        )
    return time.perf_counter() - t0


def run_benchmark(smoke: bool) -> dict:
    """Timed sweep + one per-budget yardstick: the ``fleet_sweep`` result
    row."""
    repeats = 3 if smoke else 7
    sweep = fleet_sweep_once()  # warmup (and contract check)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fleet_sweep_once()
        samples.append(time.perf_counter() - t0)
    result = {
        "seconds": statistics.median(samples),
        "min_seconds": min(samples),
        "repeats": repeats,
        "budgets": len(FLEET_BUDGETS),
        "candidates": sweep.candidates,
        "captured_worlds": sweep.captured_worlds,
        "replay_variants": sweep.lanes,
    }
    per_budget = per_budget_seconds()
    result["per_budget_seconds"] = per_budget
    result["speedup_vs_per_budget"] = round(per_budget / result["seconds"], 2)
    print(
        f"fleet_sweep        {result['seconds'] * 1e3:9.2f} ms  "
        f"({sweep.candidates} candidates, {sweep.captured_worlds} worlds, "
        f"{sweep.lanes} replay variants; per-budget path {per_budget * 1e3:.2f} ms "
        f"-> {result['speedup_vs_per_budget']:.2f}x)"
    )
    print_winners(sweep)
    return result


def print_winners(sweep, every: int = 32) -> None:
    """Per-budget winners with all four plan axes (tp/sp/fsdp/dp) spelled
    out; one row every ``every`` budgets keeps the table skimmable."""
    print(f"{'gpus':>6} {'batch':>6} {'tp':>3} {'sp':>3} {'fsdp':>5} "
          f"{'dp':>5}  {'TFLOP/s':>9}  label")
    for i, ((gpus, batch), ranked) in enumerate(sweep.rankings):
        if i % every and (gpus, batch) != sweep.rankings[-1][0]:
            continue
        if not ranked:
            continue
        top = ranked[0]
        p = top.plan
        print(f"{gpus:>6} {batch:>6} {p.tp:>3} {p.sp:>3} {p.fsdp:>5} "
              f"{p.dp:>5}  {top.total_tflops:>9.1f}  {p.label}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fewer repeats (CI)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the result row as JSON to PATH")
    args = parser.parse_args(argv)

    result = run_benchmark(args.smoke)
    text = json.dumps({"fleet_sweep": result}, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
