"""Fixed inputs of the six workloads, copied here on purpose.

The replay model, plans, §6.2 arguments and the fleet budget grid also live
in ``benchmarks/bench_runtime_speed.py`` / ``bench_fleet_sweep.py``; this
benchmark keeps its own copy so those files can change or disappear without
moving the numbers measured here.  Importing this module imports nothing
from ``repro`` — the worker does that after pinning the BLAS thread count.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything the benchmark writes (checkpoints, traces, default --out)
#: lands here, inside the checkout and ignored by git.
WORK = ROOT / ".bench_work"

WORKLOADS = (
    "train_serial",
    "train_hybrid",
    "comm_replay",
    "sec62_search",
    "fleet_sweep",
    "elastic_cycle",
)

# -- train_serial: the plain single-worker baseline, GEMM-bound -------------
SERIAL = dict(channels=32, image=32, patch=4, dim=128, depth=4, heads=4, agg="cross")
SERIAL_BATCH = 4
SERIAL_BATCHES = 4            # distinct batches, cycled
SERIAL_WARMUP = 3
#: Timed-step index whose loss is pinned at seed 0 (every run reaches it).
SERIAL_PIN_STEP = 15

# -- train_hybrid: examples/hybrid_training.py on tp2 x dp2 -----------------
HYBRID = dict(channels=16, image=16, patch=4, dim=32, heads=4, depth=2)
HYBRID_TP, HYBRID_DP = 2, 2
HYBRID_GLOBAL_BATCH = 8
HYBRID_WARMUP, HYBRID_TIMED = 2, 10

# -- comm_replay: one step's collective schedule on a live 8-rank world -----
REPLAY_MODEL = dict(name="perf-replay", dim=256, depth=6, heads=8, patch=4, image_hw=(32, 32))
REPLAY_WORKLOAD = (32, 2)     # channels, micro-batch
REPLAY_PLAN = dict(strategy="dchag", tp=2, fsdp=2, dp=2, dchag_kind="linear")
REPLAY_STEPS = 25

# -- sec62_search: the paper's §6.2 budget -----------------------------------
SEARCH_MODEL = "7B"
SEARCH_CHANNELS = 500
SEARCH_GPUS = 1024
SEARCH_BATCH = 4096
SEARCH_TOP_K = 3
SEARCH_WARMUP = 2

# -- fleet_sweep: 168 budgets priced through vectorized replay lanes --------
FLEET_MODEL = "7B"
#: Odd on purpose: D-CHAG needs channels % tp == 0, so every candidate
#: collapses to tp=1 and the stand-in shapes stay within four captures.
FLEET_CHANNELS = 495
FLEET_STRATEGIES = ("dchag",)
FLEET_MIN_CANDIDATES = 1000
FLEET_MAX_WORLDS = 4


def fleet_budgets() -> list[tuple[int, int]]:
    """8 .. 12,288 GPUs x {1,2,3,4,6,8,12,16} samples/GPU: 168 budgets."""
    gpus: set[int] = set()
    for e in range(3, 14):
        gpus.add(2**e)
        if e >= 4:
            gpus.add(3 * 2**e // 2)
    return [(g, g * m) for g in sorted(gpus) for m in (1, 2, 3, 4, 6, 8, 12, 16)]


# -- elastic_cycle: examples/elastic_training.py, shrink then grow ----------
ELASTIC = dict(channels=8, image=16, patch=4, dim=32, depth=2, heads=4)
ELASTIC_WORLD = 4
ELASTIC_STEPS = 24
ELASTIC_CKPT_EVERY = 3
ELASTIC_KILL = (2, 10)        # rank, step
ELASTIC_REJOIN = 16
