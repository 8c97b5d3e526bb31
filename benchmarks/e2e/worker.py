"""Subprocess entry: one workload, one fresh interpreter.

``run.py`` starts this file once per run (and twice more with
``--setup-only`` so set-up time is a median).  The BLAS thread count is
pinned before numpy is imported, ``src/`` is put on the path here, and the
last line printed is one JSON object for the driver.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import config as cfg
    import harness

    harness.pin_blas_threads()
    if not (cfg.SRC / "repro").is_dir():
        print(f"benchmark needs the program under {cfg.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(cfg.SRC))

    if args.trace:
        import layers

        out = layers.run_traced(args.workload, args.seed, args.seconds)
    else:
        import workloads

        workload = workloads.BY_NAME[args.workload](args.seed)
        if args.setup_only:
            with harness.one_core(workload.one_core):
                workload.setup()
            gc.collect()
            out = {"setup_s": time.time() - args.spawned_at}
        else:
            out = harness.measure(workload, args.seconds, args.spawned_at)
    out["host"] = harness.host_info()
    out["wall_s"] = time.time() - args.spawned_at
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
