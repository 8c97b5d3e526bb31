"""Elastic recovery cost: checkpoint cadence vs work lost at rank failure.

Sweeps the sharded-checkpoint cadence for a fixed scripted failure (kill one
rank mid-run) and measures what recovery actually costs:

* **steps lost** — optimizer steps after the last complete checkpoint that
  must be recomputed by the surviving world;
* **reshard bytes** — data moved to re-split the N-wide checkpoint's flat
  shards (params + AdamW moments) for the (N−1)-wide resume;
* **checkpoint bytes written** — the steady-state price of the cadence;
* **save seconds, blocking vs async** — wall-clock the training loop spent
  inside the checkpoint hook, once with synchronous writes and once through
  the double-buffered :class:`~repro.elastic.AsyncCheckpointWriter` at the
  *same* cadence.

The sweep exposes the classic trade-off: denser checkpoints shrink the
recompute window but multiply write volume, while the reshard cost is
cadence-independent (it only depends on model size and the new world size).
The async columns show the overlap win: staging a snapshot copy costs far
less than an fsynced npz write, so the critical-path cadence cost drops even
though the same bytes reach disk.  Every row re-verifies the semantic
invariant — the recovered trajectory (blocking *and* async) matches an
uninterrupted baseline.
"""

import numpy as np

from figutils import print_table, standalone_main  # also makes src/ importable
from repro.elastic import ElasticSupervisor, FailurePlan, fsdp_training_segment
from repro.nn import MLP, Module
from repro.tensor import Tensor
from repro.train import TrainConfig

DIM, HID = 8, 16
WORLD, TOTAL = 4, 16
KILL_RANK, KILL_STEP = 2, 11
CADENCES = (1, 2, 4, 8)


class _Regressor(Module):
    def __init__(self, seed=9):
        super().__init__()
        self.net = MLP(DIM, HID, np.random.default_rng(seed))

    def loss(self, x, y):
        out = self.net(Tensor(x))
        return ((out - Tensor(y)) ** 2).mean()


def _batch(step):
    rng = np.random.default_rng(4000 + step)
    x = rng.standard_normal((4, DIM)).astype(np.float32)
    y = rng.standard_normal((4, DIM)).astype(np.float32)
    return x, y


def _run(root, cadence, plan, world=WORLD, async_save=False):
    config = TrainConfig(
        lr=5e-3, total_steps=TOTAL, warmup_steps=2, checkpoint_every=cadence
    )
    stats = {}
    segment = fsdp_training_segment(
        _Regressor, _batch, config, root, async_save=async_save, save_stats=stats
    )
    sup = ElasticSupervisor(segment, root, world, timeout=120)
    return sup.run(TOTAL, failure_plan=plan), stats


def _disk_bytes(root):
    return sum(p.stat().st_size for p in root.rglob("*.npz"))


def collect_all(tmp_root):
    from pathlib import Path

    tmp_root = Path(tmp_root)
    baseline, _ = _run(tmp_root / "baseline", max(CADENCES), None)
    rows = []
    for cadence in CADENCES:
        root = tmp_root / f"every{cadence}"
        res, stats = _run(root, cadence, FailurePlan.kill(KILL_RANK, KILL_STEP))
        aroot = tmp_root / f"async{cadence}"
        ares, astats = _run(
            aroot, cadence, FailurePlan.kill(KILL_RANK, KILL_STEP), async_save=True
        )
        (ev,) = res.recoveries
        rows.append(
            {
                "cadence": cadence,
                "resume_step": ev.resume_step,
                "steps_lost": ev.steps_lost,
                "reshard_bytes": ev.reshard_bytes,
                "ckpt_bytes": _disk_bytes(root),
                "save_s_blocking": stats["save_seconds"],
                "save_s_async": astats["save_seconds"],
                "trajectory_ok": bool(
                    np.allclose(res.losses, baseline.losses, rtol=1e-4, atol=1e-6)
                )
                and bool(
                    np.allclose(ares.losses, baseline.losses, rtol=1e-4, atol=1e-6)
                ),
            }
        )
    return rows


def print_results(rows) -> None:
    print_table(
        f"Elastic recovery cost (world {WORLD}->3, kill rank {KILL_RANK} "
        f"at step {KILL_STEP}/{TOTAL})",
        [
            "ckpt every", "resume step", "steps lost", "reshard KiB",
            "ckpt KiB written", "save ms blocking", "save ms async",
            "trajectory ok",
        ],
        [
            [
                r["cadence"],
                r["resume_step"],
                r["steps_lost"],
                f"{r['reshard_bytes'] / 1024:.1f}",
                f"{r['ckpt_bytes'] / 1024:.1f}",
                f"{r['save_s_blocking'] * 1e3:.1f}",
                f"{r['save_s_async'] * 1e3:.1f}",
                "yes" if r["trajectory_ok"] else "NO",
            ]
            for r in rows
        ],
        note="recovery cost = steps lost x per-step compute + reshard bytes; "
        "denser cadence trades write volume for a smaller recompute window; "
        "async saves move the fsynced write off the critical path",
    )


def assert_claims(rows) -> None:
    assert all(r["trajectory_ok"] for r in rows), "a recovered trajectory diverged"
    by_cadence = {r["cadence"]: r for r in rows}
    # Denser checkpoints never lose more steps, and cadence=1 loses none
    # (the step-11 failure hits right after the step-11 checkpoint landed).
    losses = [by_cadence[c]["steps_lost"] for c in sorted(by_cadence)]
    assert losses == sorted(losses), f"steps lost not monotone in cadence: {losses}"
    assert by_cadence[1]["steps_lost"] == 0
    assert by_cadence[8]["steps_lost"] == KILL_STEP - 8
    # Reshard volume is cadence-independent: same model, same shrink.
    reshards = {r["reshard_bytes"] for r in rows}
    assert len(reshards) == 1 and reshards.pop() > 0
    # Write volume grows with cadence density.
    assert by_cadence[1]["ckpt_bytes"] > by_cadence[8]["ckpt_bytes"]
    # Overlapped saves beat blocking saves at the same cadence.  Per-row
    # timings on a threaded tiny model are noisy; the sweep total is not.
    blocking = sum(r["save_s_blocking"] for r in rows)
    overlapped = sum(r["save_s_async"] for r in rows)
    assert overlapped < blocking, (
        f"async cadence cost {overlapped:.4f}s did not beat "
        f"blocking {blocking:.4f}s"
    )


def test_elastic_recovery_print_and_benchmark(benchmark, tmp_path):
    rows = benchmark.pedantic(collect_all, args=(tmp_path,), rounds=1, iterations=1)
    print_results(rows)
    assert_claims(rows)


def _standalone_body():
    import tempfile

    rows = collect_all(tempfile.mkdtemp(prefix="bench_elastic_"))
    print_results(rows)
    assert_claims(rows)


if __name__ == "__main__":
    raise SystemExit(
        standalone_main(
            __doc__.splitlines()[0],
            _standalone_body,
            "elastic recovery preserves the trajectory at every cadence",
            "elastic recovery violated a cost or trajectory claim",
        )
    )
