"""The repo's benchmark: six workloads, five end-to-end metrics, a per-layer trace.

    python3 benchmarks/e2e/run.py                        # all six workloads
    python3 benchmarks/e2e/run.py --workload train_serial --seed 1
    python3 benchmarks/e2e/run.py --trace                # per-layer metrics
    python3 benchmarks/e2e/run.py --out A.json           # append this set to A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload runs in its own fresh subprocess (``worker.py``), one after
the other; this driver imports neither numpy nor the program.  End-to-end
numbers come from the untraced run only, per-layer numbers from the traced
run only.  After each workload the last line printed is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is nonzero
if a worker crashed or any correctness check failed.  README.md has the
tables.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3     # set-up time is the median of this many fresh subprocesses


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool = False) -> dict:
    """Run one worker to completion and return the JSON on its last line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--spawned-at", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.time()
    result = spawn(workload, seed, seconds, trace)
    if not trace:
        setups = [result["metrics"]["setup_s"]] + [
            spawn(workload, seed, seconds, 0, setup_only=True)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        result["setup_samples_s"] = setups
        result["metrics"]["setup_s"] = statistics.median(setups)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  run_wall_s=time.time() - started)
    report(spec, result)
    return result


def report(spec: dict, result: dict) -> None:
    """Every metric by name with its unit, then the one-line result."""
    kind = "per_layer" if result["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    values = result["metrics"]
    missing = sorted(set(units) - set(values))
    if missing:
        result["correct"] = False
        result["problems"].append(f"metrics not measured: {missing}")
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{'traced' if result['trace'] else 'untraced'}  "
          f"({result['attempted']} units, {result['failed']} failed, "
          f"{result['run_wall_s']:.1f} s) ==")
    for name, unit in units.items():
        if name in values:
            print(f"  {name:<36} {values[name]:>16.6g} {unit}")
    if not result["trace"]:
        print(f"  {'fail_share':<36} {values['fail_share']:>16.6g} ratio")
        print(f"  {'unit_ms_p90 (ungated)':<36} {result['unit_ms_p90']:>16.6g} ms"
              f"   [{len(result['samples_ms'])} samples]")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values},
    }), flush=True)


def append_out(path: Path, runs: list[dict]) -> None:
    """A file is one *set* of runs; repeated invocations append to it."""
    doc = json.loads(path.read_text()) if path.exists() else {"benchmark": "e2e", "runs": []}
    doc["runs"].extend(runs)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"appended {len(runs)} run(s) to {path} ({len(doc['runs'])} in the set)")


# -- --compare ---------------------------------------------------------------

def series(path: str, spec: dict) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values over the untraced runs of one set."""
    names = [m["name"] for m in spec["end_to_end"]] + ["fail_share"]
    out: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["trace"]:
            for name in names:
                out.setdefault((run["workload"], name), []).append(run["metrics"][name])
    return out


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Per workload x end-to-end metric: both medians, the ratio with its
    base, and a verdict.  ``unresolved`` means A's own runs spread (first to
    third quartile, as a share of the median) wider than the bound, so the
    pair cannot show a change of that size; ``regression`` means B's median
    is worse than A's by more than the bound."""
    a, b = series(path_a, spec), series(path_b, spec)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    bounds["fail_share"] = (0.0, "lower")           # absolute: any increase counts
    bad = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<14} {'metric':<16} {'median A':>12} {'median B':>12} "
          f"{'B/A':>7} {'spread A':>9} {'bound':>6}  verdict")
    for workload, name in sorted(set(a) & set(b)):
        va, vb = a[workload, name], b[workload, name]
        ma, mb = statistics.median(va), statistics.median(vb)
        bound, better = bounds[name]
        worse = (mb - ma) if better == "lower" else (ma - mb)
        if name == "fail_share":
            spread, verdict = 0.0, "ok" if worse <= 0 else "regression"
        elif len(va) < 3:
            spread, verdict = float("nan"), "unresolved"       # no quartiles to judge by
        else:
            q1, _, q3 = statistics.quantiles(va, n=4)
            spread = (q3 - q1) / ma
            verdict = ("unresolved" if spread > bound
                       else "regression" if worse > bound * ma else "ok")
        bad += verdict != "ok"
        ratio = mb / ma if ma else float("nan")
        print(f"{workload:<14} {name:<16} {ma:>12.5g} {mb:>12.5g} {ratio:>7.3f} "
              f"{spread:>9.3f} {bound:>6.2f}  {verdict}   (base A, {len(va)} vs {len(vb)} runs)")
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names, help="run one workload (default: all six)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="how long each run measures")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                    help="traced run: per-layer metrics instead of end-to-end ones")
    ap.add_argument("--out", type=Path, help="append the runs to this JSON set")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"nothing to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    runs = []
    for workload in [args.workload] if args.workload else names:
        try:
            runs.append(run_workload(spec, workload, args.seed, args.seconds, args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as err:
            print(f"{workload}: no result ({err})", file=sys.stderr)
            return 1
    if args.out:
        append_out(args.out, runs)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
