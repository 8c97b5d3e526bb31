"""The elastic training driver: survive rank churn by resizing the world.

:class:`ElasticSupervisor` runs a *training segment* under a fresh SPMD
world and reacts to world aborts according to a pluggable
:class:`~repro.elastic.policy.RecoveryPolicy`:

* **Rank loss** — a real exception or a scripted
  :class:`~repro.elastic.InjectedFailure` aborts the world and surfaces an
  :class:`~repro.dist.SpmdError` carrying the failed rank.  The policy
  decides the new world size: shrink by the dead rank (the
  :class:`~repro.elastic.policy.AlwaysShrink` default) or swap in a hot
  spare and restart at full strength
  (:class:`~repro.elastic.policy.SparePool`).
* **Rank return** — a scripted :class:`~repro.elastic.RankReturn` unwinds
  the world the same way (a live SPMD world cannot admit members
  mid-collective), but the supervisor recognizes the cause and **grows**
  the world by the returning ranks instead of evicting anyone.

Either way the recovery mechanics are identical: find the latest *complete*
checkpoint (torn saves are skipped because the manifest is written last,
and async saves are drained first), reshard it to the next world size (pure
data movement, bitwise — AdamW moments carried), and relaunch the segment
from the checkpoint's step.

Because the segment restores parameters, optimizer moments and the step
index (so the LR schedule continues correctly), and FSDP's forward math is
independent of how flat parameters are sharded, the resumed run follows the
same loss trajectory as an uninterrupted run of the same schedule — for
shrinks *and* grows, the invariant ``tests/test_elastic_supervisor.py``
locks.

When recovery is impossible — the world would drop below ``min_world_size``
or ``max_recoveries`` is exhausted — the supervisor raises a typed
:class:`ElasticError` carrying the full :class:`RecoveryEvent` history, so
callers can see what the run survived before it gave up.

The module also ships :func:`fsdp_training_segment`, the canonical segment:
an FSDP-wrapped model driven by a :class:`~repro.train.Trainer` with
step-indexed batches, periodic full sharded saves (optionally async), and
failure-plan ticks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..dist import (
    SpmdError,
    World,
    clip_grad_norm_sharded,
    run_spmd_world,
    split_sizes,
)
from ..nn import Module
from ..parallel.fsdp import FSDPModel
from ..train.trainer import TrainConfig, Trainer
from .checkpoint import (
    drain_writers,
    latest_checkpoint,
    load_manifest,
    load_sharded,
    reshard,
    save_sharded,
    writer_for,
)
from .failure import RankReturn
from .policy import AlwaysShrink, RecoveryPolicy

__all__ = [
    "ElasticError",
    "RecoveryEvent",
    "ElasticResult",
    "ElasticSupervisor",
    "fsdp_training_segment",
]

# A segment runs steps [start_step, total) on one rank of a world and returns
# the full per-step loss history (including pre-resume history restored from
# the checkpoint manifest).
Segment = Callable[..., list]


class ElasticError(SpmdError):
    """Recovery is exhausted; carries everything the run survived first.

    Raised when the world would shrink below ``min_world_size`` or when
    ``max_recoveries`` world rebuilds have been spent.  ``history`` holds
    the completed :class:`RecoveryEvent`\\ s in order, so post-mortems can
    distinguish "died on the first failure" from "survived seven, lost the
    eighth".  Subclasses :class:`~repro.dist.SpmdError`, so existing
    handlers keep working.
    """

    def __init__(self, message: str, history: Sequence["RecoveryEvent"] = ()) -> None:
        super().__init__(message)
        self.history: tuple[RecoveryEvent, ...] = tuple(history)


@dataclass(frozen=True)
class RecoveryEvent:
    """One completed resize-reshard-resume cycle.

    ``kind`` distinguishes how the world changed: ``"shrink"`` (a failure
    evicted a rank), ``"spare"`` (a failure was absorbed by a hot spare —
    same-size restart, zero reshard bytes), or ``"grow"`` (scripted ranks
    returned and the world expanded).
    """

    failed_rank: int  # -1 for grow events (nobody failed)
    failed_step: int  # -1 when the failure carried no step information
    resume_step: int  # 0 = cold restart (no checkpoint existed yet)
    steps_lost: int  # failed_step - resume_step, or -1 when unknown
    old_world_size: int
    new_world_size: int
    reshard_bytes: int  # data moved to re-lay-out the shards
    kind: str = "shrink"


@dataclass
class ElasticResult:
    """Outcome of an elastic run that reached ``total_steps``."""

    losses: list[float]
    world_sizes: list[int]  # world size that produced each step
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    attempts: int = 1
    final_world: World | None = None

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def total_steps_lost(self) -> int:
        return sum(max(0, r.steps_lost) for r in self.recoveries)

    @property
    def total_reshard_bytes(self) -> int:
        return sum(r.reshard_bytes for r in self.recoveries)


class ElasticSupervisor:
    """Drive a segment to completion across rank failures and returns.

    *segment* is called as ``segment(comm, start_step, resume_dir)`` on every
    rank; ``resume_dir`` is ``None`` on a fresh start or a checkpoint
    directory already resharded to the current world size.  The segment must
    save its checkpoints under *ckpt_root* (:func:`save_sharded`) for the
    supervisor to find them.

    *policy* decides world sizes after churn (default
    :class:`~repro.elastic.policy.AlwaysShrink`, the v1 behavior);
    *max_world_size* caps growth (default: unbounded).  Only attributable
    rank failures are recovered; driver-side timeouts
    (``SpmdError.rank == -1``) re-raise, since a hang identifies no culprit
    to evict.
    """

    def __init__(
        self,
        segment: Segment,
        ckpt_root: str | Path,
        world_size: int,
        min_world_size: int = 1,
        max_recoveries: int = 8,
        timeout: float | None = None,
        policy: RecoveryPolicy | None = None,
        max_world_size: int | None = None,
    ) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if not 1 <= min_world_size <= world_size:
            raise ValueError(
                f"min_world_size must be in [1, {world_size}], got {min_world_size}"
            )
        if max_world_size is not None and max_world_size < world_size:
            raise ValueError(
                f"max_world_size must be >= world_size={world_size}, got {max_world_size}"
            )
        self.segment = segment
        self.ckpt_root = Path(ckpt_root)
        self.world_size = world_size
        self.min_world_size = min_world_size
        self.max_recoveries = max_recoveries
        self.timeout = timeout
        self.policy: RecoveryPolicy = policy if policy is not None else AlwaysShrink()
        self.max_world_size = max_world_size

    def run(self, total_steps: int, failure_plan=None) -> ElasticResult:
        plan = failure_plan
        world_size = self.world_size
        spares = self.policy.initial_spares
        start_step = 0
        resume_dir: Path | None = None
        recoveries: list[RecoveryEvent] = []
        # (start_step, world_size) per attempt; the per-step world_sizes list
        # is derived from these against the *actual* trajectory length, so
        # bookkeeping stays right even if the segment's config.total_steps
        # disagrees with the total_steps passed here.
        segments: list[tuple[int, int]] = [(0, world_size)]
        attempts = 0
        while True:
            attempts += 1
            try:
                results, world = run_spmd_world(
                    self.segment,
                    world_size,
                    start_step,
                    resume_dir,
                    failure_plan=plan,
                    timeout=self.timeout,
                )
            except SpmdError as err:
                failed_rank = getattr(err, "rank", -1)
                if failed_rank < 0:
                    raise  # timeout/driver interrupt: no rank to evict
                cause = err.__cause__
                arrival = isinstance(cause, RankReturn)
                if arrival:
                    new_world, spares = self.policy.on_arrival(
                        world_size, spares, cause.count
                    )
                    if self.max_world_size is not None:
                        new_world = min(new_world, self.max_world_size)
                    kind = "grow"
                else:
                    new_world, spares = self.policy.on_failure(world_size, spares)
                    kind = "spare" if new_world == world_size else "shrink"
                if new_world < self.min_world_size:
                    raise ElasticError(
                        f"cannot shrink below min_world_size={self.min_world_size} "
                        f"after rank {failed_rank} failed",
                        history=recoveries,
                    ) from err
                if len(recoveries) >= self.max_recoveries:
                    raise ElasticError(
                        f"gave up after {len(recoveries)} recoveries",
                        history=recoveries,
                    ) from err
                failed_step = getattr(cause, "step", -1)
                if plan is not None and failed_step >= 0:
                    # The event fired; don't re-trigger it when the resized
                    # world re-runs the same steps.
                    if arrival and hasattr(plan, "without_arrival"):
                        plan = plan.without_arrival(failed_step)
                    elif not arrival and hasattr(plan, "without"):
                        plan = plan.without(failed_rank, failed_step)
                # Async saves may still be in flight; make them durable (and
                # surface any background write error) before choosing the
                # resume point.
                drain_writers(self.ckpt_root)
                ckpt = latest_checkpoint(self.ckpt_root)
                if ckpt is None:
                    resume_step, new_resume_dir, moved = 0, None, 0
                else:
                    resume_step = load_manifest(ckpt)["step"]
                    new_resume_dir, moved = reshard(ckpt, new_world)
                recoveries.append(
                    RecoveryEvent(
                        failed_rank=-1 if arrival else failed_rank,
                        failed_step=failed_step,
                        resume_step=resume_step,
                        steps_lost=(failed_step - resume_step) if failed_step >= 0 else -1,
                        old_world_size=world_size,
                        new_world_size=new_world,
                        reshard_bytes=moved,
                        kind=kind,
                    )
                )
                segments.append((resume_step, new_world))
                world_size, start_step, resume_dir = new_world, resume_step, new_resume_dir
                continue
            drain_writers(self.ckpt_root)  # final async saves become durable
            losses = list(results[0])
            world_sizes = [segments[0][1]] * len(losses)
            for seg_start, seg_world in segments[1:]:
                for i in range(seg_start, len(losses)):
                    world_sizes[i] = seg_world
            return ElasticResult(
                losses=losses,
                world_sizes=world_sizes,
                recoveries=recoveries,
                attempts=attempts,
                final_world=world,
            )


class _GlobalLossProxy:
    """What the Trainer sees when the batch axis is sharded.

    ``backward()`` runs on the rank-local *weighted* loss (weight
    ``n_local * world / n_global``), so FSDP's mean-reduce of gradients
    yields exactly the global-batch gradient; ``item()`` reports the
    *global* mean loss (already AllReduced), so every rank — and every
    world size — records the same trajectory.
    """

    __slots__ = ("_local", "_value")

    def __init__(self, local_weighted, value: float) -> None:
        self._local = local_weighted
        self._value = float(value)

    def backward(self) -> None:
        self._local.backward()

    def item(self) -> float:
        return self._value


class _BatchShardedModel:
    """Duck-types the Trainer's model surface over a row-sharded batch.

    Each rank trains on its contiguous slice of the global batch
    (``split_sizes`` keeps slices deterministic per world size), so growing
    or shrinking the world rebalances the batch axis automatically — the
    data-parallel half of elastic resizing, alongside the FSDP flat-param
    reshard.
    """

    def __init__(self, model: FSDPModel) -> None:
        self._model = model

    def zero_grad(self) -> None:
        self._model.zero_grad()

    def loss(self, *batch) -> _GlobalLossProxy:
        model = self._model
        group = model.group
        me = group.rank_index(model.comm.rank)
        lead = None
        for arg in batch:
            shape = getattr(arg, "shape", None)
            if shape:
                lead = int(shape[0])
                break
        if lead is None:
            raise ValueError("shard_batch needs at least one array-like batch arg")
        sizes = split_sizes(lead, group.size)
        start = sum(sizes[:me])
        stop = start + sizes[me]
        local = tuple(
            arg[start:stop]
            if getattr(arg, "shape", None) and int(arg.shape[0]) == lead
            else arg
            for arg in batch
        )
        local_loss = model.loss(*local)
        # Weighted so the group's mean-reduce of gradients equals the
        # global-batch gradient even when rows split unevenly.
        weight = sizes[me] * group.size / lead
        contrib = np.array([float(local_loss.item()) * sizes[me] / lead])
        global_value = model.comm.all_reduce(contrib, op="sum", group=group)[0]
        return _GlobalLossProxy(local_loss * weight, global_value)


def fsdp_training_segment(
    module_factory: Callable[[], Module],
    batch_fn: Callable[[int], Sequence],
    config: TrainConfig,
    ckpt_root: str | Path,
    async_save: bool = False,
    keep_last: int | None = None,
    shard_batch: bool = False,
    save_stats: dict | None = None,
) -> Segment:
    """Build the canonical elastic segment: FSDP + Trainer + sharded saves.

    ``module_factory`` must construct the model deterministically (seeded
    RNGs) so every rank — and every restart — starts from identical master
    weights; FSDP then carves rank-local shards from them.  ``batch_fn(step)``
    returns that step's loss arguments, shared by all ranks; with
    ``shard_batch=True`` each rank instead trains on its row slice of the
    global batch (rebalanced automatically when the world resizes) while
    recording the *global* loss, so the trajectory stays world-size
    independent either way.

    Checkpoints fire every ``config.checkpoint_every`` steps and stash the
    loss history in the manifest, so a resumed segment returns the full
    trajectory from step 0.  ``async_save`` routes saves through the
    process-wide :func:`~repro.elastic.checkpoint.writer_for` writer
    (double-buffered background writes; the supervisor drains them before
    resuming); ``keep_last`` prunes old step dirs.

    ``save_stats`` (a plain dict, shared via the threaded runtime's memory)
    accumulates rank 0's ``save_seconds``/``saves`` from
    :class:`~repro.train.TrainResult` across attempts — the number the
    async-vs-blocking cadence-cost benchmark compares.
    """
    ckpt_root = Path(ckpt_root)

    def segment(comm, start_step: int, resume_dir: Path | None) -> list[float]:
        model = FSDPModel(comm, None, module_factory())
        writer = writer_for(ckpt_root) if async_save else None

        def save_cb(step: int) -> None:
            save_sharded(
                ckpt_root,
                model,
                trainer.optimizer,
                step,
                extra={"losses": [float(v) for v in trainer.result.losses]},
                writer=writer,
                keep_last=keep_last,
            )

        trainer = Trainer(
            _BatchShardedModel(model) if shard_batch else model,
            config,
            params=model.shard_parameters(),
            pre_step_hook=comm.tick,
            checkpoint_hook=save_cb,
            start_step=start_step,
            # Shards are disjoint: clip by the *global* norm so every world
            # size applies the same scale (the trajectory invariant).
            clip_fn=lambda params, max_norm: clip_grad_norm_sharded(
                comm, params, max_norm, model.group
            ),
        )
        if resume_dir is not None:
            manifest = load_sharded(resume_dir, model, trainer.optimizer)
            trainer.result.losses.extend(manifest["extra"].get("losses", []))
        try:
            for step in range(start_step, config.total_steps):
                trainer.step(*batch_fn(step))
        finally:
            if save_stats is not None and comm.rank == 0:
                save_stats["save_seconds"] = (
                    save_stats.get("save_seconds", 0.0)
                    + trainer.result.save_seconds
                )
                save_stats["saves"] = (
                    save_stats.get("saves", 0) + trainer.result.saves
                )
        return trainer.result.losses

    return segment
