"""Fleet simulator: a long scripted churn trace replayed as event arithmetic.

:func:`simulate_fleet` runs one :class:`~repro.elastic.policy.RecoveryPolicy`
(the same objects the live :class:`~repro.elastic.supervisor.ElasticSupervisor`
consults) against one :class:`FleetTrace` of failures and arrivals, and
charges every second of wall clock to a :class:`FleetRunResult` ledger:
first-time steps, recompute after rollbacks, blocking checkpoint saves,
restores and reshards.  No world spins up: each step and each event is a
few float additions.

* **step cost** is a per-world-size mapping handed to :class:`FleetCosts`;
* **checkpoint, restore and reshard costs** come from the α–β
  :class:`~repro.perf.machine.MachineSpec` description
  (:meth:`FleetCosts.from_machine`) or are given as constants;
* **churn** is a :class:`FleetTrace` — hand-written, or Poisson-generated
  from a seeded MTBF.

The ledger mirrors the live supervisor's recovery mechanics: rollback to the
last checkpoint, reshard priced only when the world size changes, spare
swaps at zero reshard cost.  One simplification: an arrival a policy banks
as a spare parks without interrupting the run (a resource manager would hold
the host outside the job; the threaded runtime must restart either way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .policy import RecoveryPolicy

__all__ = [
    "FleetEvent",
    "FleetTrace",
    "FleetCosts",
    "FleetRunResult",
    "simulate_fleet",
]

_KINDS = ("failure", "arrival")


@dataclass(frozen=True)
class FleetEvent:
    """One scripted churn event: *count* ranks fail or arrive at *step*.

    ``step`` is a progress coordinate: the event fires the first time the
    fleet *attempts* that step (re-runs after a rollback do not re-fire
    it — each event is consumed once, like a live
    :class:`~repro.elastic.FailurePlan` after ``without``).
    """

    step: int
    kind: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class FleetTrace:
    """A scripted churn history over a fixed step horizon.

    ``events`` are kept sorted by step (failures before arrivals on ties:
    the death is observed first, matching
    :meth:`~repro.elastic.FailurePlan.check`).  Build one by hand for
    regression tests, or :meth:`poisson` for a statistically shaped
    multi-week trace that is still bit-for-bit reproducible from its seed.
    """

    horizon_steps: int
    events: tuple[FleetEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.horizon_steps < 1:
            raise ValueError(f"horizon_steps must be >= 1, got {self.horizon_steps}")
        for ev in self.events:
            if ev.step >= self.horizon_steps:
                raise ValueError(
                    f"event at step {ev.step} is beyond the horizon "
                    f"{self.horizon_steps}"
                )
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.step, _KINDS.index(e.kind)))
        )
        object.__setattr__(self, "events", ordered)

    @property
    def n_failures(self) -> int:
        return sum(e.count for e in self.events if e.kind == "failure")

    @property
    def n_arrivals(self) -> int:
        return sum(e.count for e in self.events if e.kind == "arrival")

    @property
    def mtbf_steps(self) -> float:
        """Mean steps between failures implied by the trace itself."""
        return self.horizon_steps / max(1, self.n_failures)

    @classmethod
    def poisson(
        cls,
        horizon_steps: int,
        mtbf_steps: float,
        return_after_steps: int | None = None,
        seed: int = 0,
    ) -> "FleetTrace":
        """A seeded Poisson failure process with optional scripted returns.

        Failures arrive with exponential inter-arrival times of mean
        *mtbf_steps*; when *return_after_steps* is set, every failed rank
        is handed back that many steps later (repaired host), producing
        the shrink/grow churn the elastic v2 machinery exists for.
        """
        if mtbf_steps <= 0:
            raise ValueError(f"mtbf_steps must be > 0, got {mtbf_steps}")
        rng = np.random.default_rng(seed)
        events: list[FleetEvent] = []
        at = 0.0
        while True:
            at += rng.exponential(mtbf_steps)
            step = int(at)
            if step >= horizon_steps:
                break
            events.append(FleetEvent(step, "failure"))
            if return_after_steps is not None:
                back = step + int(return_after_steps)
                if back < horizon_steps:
                    events.append(FleetEvent(back, "arrival"))
        return cls(horizon_steps, tuple(events))


def _per_world(value) -> Callable[[int], float]:
    """Normalize a per-world cost: a constant or a ``world -> seconds`` fn."""
    if callable(value):
        return value
    fixed = float(value)
    return lambda world: fixed


class FleetCosts:
    """Prices everything the simulator charges wall-clock for.

    ``step_cost`` maps world size to per-step seconds.  The remaining costs
    may each be a constant or a ``world -> seconds`` callable;
    ``reshard_seconds`` takes ``(old_world, new_world)`` and must be zero
    when the size is unchanged (a spare swap moves no shard bytes).
    """

    def __init__(
        self,
        step_cost: Mapping[int, float],
        save_io_seconds,
        snapshot_seconds=0.0,
        restore_seconds=None,
        reshard_seconds: Callable[[int, int], float] | float = 0.0,
    ) -> None:
        self._step = {int(k): float(v) for k, v in step_cost.items()}
        self._save_io = _per_world(save_io_seconds)
        self._snapshot = _per_world(snapshot_seconds)
        self._restore = (
            self._save_io if restore_seconds is None else _per_world(restore_seconds)
        )
        if callable(reshard_seconds):
            self._reshard = reshard_seconds
        else:
            fixed = float(reshard_seconds)
            self._reshard = lambda old, new: 0.0 if old == new else fixed

    def step_seconds(self, world: int) -> float:
        try:
            return self._step[world]
        except KeyError:
            raise ValueError(
                f"no step cost for world size {world} (have {sorted(self._step)})"
            ) from None

    def save_io_seconds(self, world: int) -> float:
        return float(self._save_io(world))

    def snapshot_seconds(self, world: int) -> float:
        return float(self._snapshot(world))

    def restore_seconds(self, world: int) -> float:
        return float(self._restore(world))

    def reshard_seconds(self, old_world: int, new_world: int) -> float:
        if old_world == new_world:
            return 0.0
        return float(self._reshard(old_world, new_world))

    @classmethod
    def from_machine(
        cls,
        machine,
        model_bytes: float,
        step_cost: Mapping[int, float],
    ) -> "FleetCosts":
        """α–β pricing from a :class:`~repro.perf.machine.MachineSpec`.

        Master state is ``3 * model_bytes`` (param + AdamW m + v, the same
        accounting :func:`~repro.elastic.checkpoint.checkpoint_nbytes`
        reports), split evenly across the world.  Shard writes and reads
        stream over each rank's slice of node egress (one inter-node latency
        plus the rank's bytes over ``inter_node_bw_per_node /
        gpus_per_node``, the parallel-filesystem picture: every GPU's shard
        leaves the node); the snapshot memcpy runs at intra-node bandwidth;
        a reshard re-lays-out the full master state once over node egress.
        """
        if model_bytes < 0:
            raise ValueError(f"model_bytes must be >= 0, got {model_bytes}")
        state = 3.0 * float(model_bytes)
        egress_per_rank = machine.inter_node_bw_per_node / machine.gpus_per_node

        def per_rank(world: int) -> float:
            return state / world

        return cls(
            step_cost,
            save_io_seconds=lambda w: machine.inter_latency
            + per_rank(w) / egress_per_rank,
            snapshot_seconds=lambda w: machine.intra_latency
            + per_rank(w) / machine.intra_node_bw,
            reshard_seconds=lambda old, new: machine.inter_latency
            + state / machine.inter_node_bw_per_node,
        )


@dataclass(frozen=True)
class FleetRunResult:
    """One policy's simulated outcome against one trace.

    ``goodput`` is the fraction of wall-clock spent on *first-time* step
    compute — everything else (recompute after rollbacks, checkpoint
    cadence, restores, reshards) is the price of the churn under this
    policy.  ``status`` is ``"completed"`` or ``"exhausted"`` (the policy
    let the world collapse below one rank before the horizon).
    """

    policy: str
    horizon_steps: int
    wall_seconds: float
    productive_seconds: float
    recompute_seconds: float
    save_seconds: float
    restore_seconds: float
    reshard_seconds: float
    restores: int
    saves: int
    final_world: int
    spares_left: int
    steps_completed: int
    status: str = "completed"

    @property
    def goodput(self) -> float:
        return self.productive_seconds / self.wall_seconds if self.wall_seconds else 0.0


def simulate_fleet(
    trace: FleetTrace,
    policy: RecoveryPolicy,
    costs: FleetCosts,
    world_size: int,
    cadence: int = 50,
) -> FleetRunResult:
    """Replay *trace* under *policy*, charging every second to a ledger.

    Mirrors the live supervisor's mechanics: failures and grows roll the
    fleet back to the last checkpoint (re-run steps are recompute, not
    goodput), restores and reshards are paid per restart, and every
    *cadence* steps a blocking save charges the snapshot memcpy plus the
    shard write.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if cadence < 1:
        raise ValueError(f"cadence must be >= 1, got {cadence}")
    world = world_size
    spares = policy.initial_spares
    step = 0  # next step to attempt
    frontier = 0  # first step never yet completed
    last_ckpt = 0  # step of the latest checkpoint
    wall = productive = recompute = save_s = restore_s = reshard_s = 0.0
    restores = saves = 0
    status = "completed"
    events = trace.events
    ei = 0

    def restart(new_world: int) -> None:
        nonlocal world, step, wall, restore_s, reshard_s, restores
        rs = costs.reshard_seconds(world, new_world)
        rst = costs.restore_seconds(new_world)
        wall += rs + rst
        reshard_s += rs
        restore_s += rst
        restores += 1
        world = new_world
        step = last_ckpt

    while step < trace.horizon_steps:
        if ei < len(events) and events[ei].step <= step:
            ev = events[ei]
            ei += 1
            if ev.kind == "failure":
                new_world, new_spares = world, spares
                for _ in range(ev.count):
                    new_world, new_spares = policy.on_failure(new_world, new_spares)
                if new_world < 1:
                    status = "exhausted"
                    break
                spares = new_spares
                restart(new_world)
            else:
                new_world, spares = policy.on_arrival(world, spares, ev.count)
                if new_world != world:
                    restart(new_world)
                # Banked as a spare: the host parks outside the job and the
                # run is never interrupted.
            continue
        sec = costs.step_seconds(world)
        wall += sec
        if step >= frontier:
            productive += sec
            frontier = step + 1
        else:
            recompute += sec
        step += 1
        if step % cadence == 0 and step < trace.horizon_steps:
            save = costs.snapshot_seconds(world) + costs.save_io_seconds(world)
            wall += save
            save_s += save
            saves += 1
            last_ckpt = step
    return FleetRunResult(
        policy=policy.name,
        horizon_steps=trace.horizon_steps,
        wall_seconds=wall,
        productive_seconds=productive,
        recompute_seconds=recompute,
        save_seconds=save_s,
        restore_seconds=restore_s,
        reshard_seconds=reshard_s,
        restores=restores,
        saves=saves,
        final_world=world,
        spares_left=spares,
        steps_completed=frontier,
        status=status,
    )
