"""``repro.elastic`` — fault-tolerant, elastically resizable training.

The production-scale counterpart to :mod:`repro.dist`'s abort-on-failure
semantics: instead of dying with the world, training survives rank churn by
checkpointing in shards, resharding those shards to the next world size,
and resuming mid-schedule — shrinking when ranks die *and growing when they
return*.

Five pieces:

* :mod:`~repro.elastic.checkpoint` — sharded checkpoints: one
  ``shard_*.npz`` per FSDP rank plus a ``manifest.json`` recording the flat
  parameter layout.  A checkpoint saved at world size N reshards to any M as
  pure data movement (bitwise), with AdamW moments carried along; DP
  replicas are deduplicated at save time.  Every save is a full save and
  can be **async** (double-buffered background writes via
  :class:`AsyncCheckpointWriter`), with the manifest-last torn-save
  invariant preserved, directory-entry fsyncs for durability, and
  :func:`prune_checkpoints` for retention.
* :mod:`~repro.elastic.failure` — deterministic churn injection:
  :class:`FailurePlan` scripts "kill rank r at step s" *and* "k ranks
  return at step s" (:class:`RankArrival` → :class:`RankReturn`), plugging
  into ``run_spmd(..., failure_plan=...)`` via ``Communicator.tick``.
* :mod:`~repro.elastic.policy` — pluggable :class:`RecoveryPolicy`
  decisions: :class:`AlwaysShrink` (v1 behavior), :class:`SparePool` (hot
  spares absorb failures at zero reshard cost), :class:`CostAwareCadence`
  (Young/Daly checkpoint interval from α–β-priced save cost vs. failure
  rate).
* :mod:`~repro.elastic.supervisor` — :class:`ElasticSupervisor` catches the
  world's :class:`~repro.dist.SpmdError`, consults the policy, reshards the
  latest complete checkpoint to the next world size and relaunches; resumed
  runs follow the same loss trajectory as an uninterrupted baseline, and
  exhausted recovery raises a typed :class:`ElasticError` with the full
  event history.
* :mod:`~repro.elastic.fleet` — the capacity-planning simulator: replays
  multi-week scripted churn traces against competing policies in seconds,
  step cost priced by captured-schedule replay, results recordable in the
  :class:`~repro.obs.store.SweepStore`.
"""

from .checkpoint import (
    MANIFEST_NAME,
    AsyncCheckpointWriter,
    checkpoint_dir,
    checkpoint_nbytes,
    consolidate,
    drain_writers,
    latest_checkpoint,
    load_manifest,
    load_sharded,
    prune_checkpoints,
    reshard,
    save_sharded,
    writer_for,
)
from .failure import FailurePlan, InjectedFailure, RankArrival, RankFailure, RankReturn
from .policy import (
    AlwaysShrink,
    CostAwareCadence,
    RecoveryPolicy,
    SparePool,
    StepEconomics,
    save_seconds_for,
    young_daly_interval,
)
from .supervisor import (
    ElasticError,
    ElasticResult,
    ElasticSupervisor,
    RecoveryEvent,
    fsdp_training_segment,
)

# The fleet simulator resolves lazily (PEP 562): it pulls in the perf stack
# (replay pricing), which the live elastic machinery never needs.
_FLEET_EXPORTS = (
    "FleetEvent",
    "FleetTrace",
    "FleetCosts",
    "FleetRunResult",
    "simulate_fleet",
    "compare_policies",
)


def __getattr__(name: str):
    if name in _FLEET_EXPORTS:
        from importlib import import_module

        return getattr(import_module(".fleet", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

__all__ = [
    "MANIFEST_NAME",
    "AsyncCheckpointWriter",
    "checkpoint_dir",
    "checkpoint_nbytes",
    "consolidate",
    "drain_writers",
    "latest_checkpoint",
    "load_manifest",
    "load_sharded",
    "prune_checkpoints",
    "reshard",
    "save_sharded",
    "writer_for",
    "FailurePlan",
    "InjectedFailure",
    "RankArrival",
    "RankFailure",
    "RankReturn",
    "AlwaysShrink",
    "CostAwareCadence",
    "RecoveryPolicy",
    "SparePool",
    "StepEconomics",
    "save_seconds_for",
    "young_daly_interval",
    "ElasticError",
    "ElasticResult",
    "ElasticSupervisor",
    "RecoveryEvent",
    "fsdp_training_segment",
    "FleetEvent",
    "FleetTrace",
    "FleetCosts",
    "FleetRunResult",
    "simulate_fleet",
    "compare_policies",
]
