"""Fleet simulator: weeks of rank churn against competing recovery policies.

The capacity-planning question a production training service actually asks
is not "can we survive a failure?" but "which recovery policy — and which
checkpoint cadence — loses the least goodput over a month of realistic
churn?"  Answering it with live worlds would take a month.  This module
answers it in seconds, as pure event arithmetic:

* **step cost** comes from the captured-schedule replay engine — one
  :class:`~repro.perf.schedule.StepCostTable` anchor per world size, priced
  by :func:`~repro.perf.schedule.replay` (no threaded world ever spins up
  during simulation);
* **checkpoint, restore and reshard costs** come from the α–β
  :class:`~repro.perf.cost.CostModel` machine description
  (:meth:`FleetCosts.from_machine`);
* **churn** is a scripted :class:`FleetTrace` — failures and arrivals over
  a step horizon, hand-written or Poisson-generated from a seeded MTBF;
* **decisions** are the same :class:`~repro.elastic.policy.RecoveryPolicy`
  objects the live :class:`~repro.elastic.supervisor.ElasticSupervisor`
  consults, so a policy picked here is exactly the policy the real run
  executes.

:func:`simulate_fleet` replays one policy against one trace and returns a
:class:`FleetRunResult` (goodput, lost-work split, restore counts);
:func:`compare_policies` ranks several.

Fidelity notes.  The simulator mirrors the live supervisor's recovery
mechanics — rollback to the last *durable* checkpoint, reshard priced only
when the world size actually changes, spare swaps at zero reshard cost —
with two deliberate simplifications: an arrival a policy banks as a spare
parks without interrupting the run (a resource manager would hold the host
outside the job; the threaded runtime must restart either way), and an
async save still in flight when a failure hits is discarded as torn
(manifest-last semantics) rather than racing the failure.

``python -m repro.elastic.fleet --smoke`` is the ``elastic-smoke`` CI gate:
a >= 10k-step trace against three policies, finished in seconds, with a
deterministic pinned ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .policy import RecoveryPolicy, StepEconomics, save_seconds_for

__all__ = [
    "FleetEvent",
    "FleetTrace",
    "FleetCosts",
    "FleetRunResult",
    "simulate_fleet",
    "compare_policies",
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

    ``step_cost`` maps world size to per-step seconds — a
    :class:`~repro.perf.schedule.StepCostTable` (replay-priced), a plain
    mapping, or any callable.  The remaining costs may each be a constant
    or a ``world -> seconds`` callable; ``reshard_seconds`` takes
    ``(old_world, new_world)`` and must be zero when the size is unchanged
    (a spare swap moves no shard bytes).
    """

    def __init__(
        self,
        step_cost: "Callable[[int], float] | Mapping[int, float]",
        save_io_seconds,
        snapshot_seconds=0.0,
        restore_seconds=None,
        reshard_seconds: Callable[[int, int], float] | float = 0.0,
    ) -> None:
        if isinstance(step_cost, Mapping):
            table = {int(k): float(v) for k, v in step_cost.items()}

            def lookup(world: int) -> float:
                try:
                    return table[world]
                except KeyError:
                    raise ValueError(
                        f"no step cost for world size {world} "
                        f"(have {sorted(table)})"
                    ) from None

            self._step = lookup
        else:
            self._step = step_cost
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
        return float(self._step(world))

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
        step_cost: "Callable[[int], float] | Mapping[int, float]",
    ) -> "FleetCosts":
        """α–β pricing from a :class:`~repro.perf.cost.MachineSpec`.

        Master state is ``3 * model_bytes`` (param + AdamW m + v, the same
        accounting :func:`~repro.elastic.checkpoint.checkpoint_nbytes`
        reports), split evenly across the world.  Shard writes/reads stream
        over each rank's slice of node egress (:func:`~repro.elastic.policy.
        save_seconds_for`); the snapshot memcpy runs at intra-node
        bandwidth; a reshard re-lays-out the full master state once over
        node egress.
        """
        state = 3.0 * float(model_bytes)

        def per_rank(world: int) -> float:
            return state / world

        return cls(
            step_cost,
            save_io_seconds=lambda w: save_seconds_for(machine, per_rank(w)),
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
    let the world collapse below the minimum before the horizon).
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
    cadence_steps: int
    steps_completed: int
    status: str = "completed"

    @property
    def goodput(self) -> float:
        return self.productive_seconds / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def lost_seconds(self) -> float:
        return self.wall_seconds - self.productive_seconds


def simulate_fleet(
    trace: FleetTrace,
    policy: RecoveryPolicy,
    costs: FleetCosts,
    world_size: int,
    cadence: int = 50,
    min_world_size: int = 1,
    max_world_size: int | None = None,
    async_save: bool = False,
) -> FleetRunResult:
    """Replay *trace* under *policy*, charging every second to a ledger.

    Mirrors the live supervisor's mechanics: failures and grows roll the
    fleet back to the last **durable** checkpoint (re-run steps are
    recompute, not goodput), restores and reshards are paid per restart,
    and the checkpoint cadence is whatever the policy derives from the
    measured step economics (``cadence`` is the configured default).  With
    ``async_save=True`` saves charge only the snapshot memcpy up front —
    the write lands in the background after ``save_io_seconds`` of wall
    time, a later save blocks on it (double-buffer back-pressure), and a
    failure that beats the write to durability discards it (torn).
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if cadence < 1:
        raise ValueError(f"cadence must be >= 1, got {cadence}")
    world = world_size
    spares = policy.initial_spares
    step = 0  # next step to attempt
    frontier = 0  # first step never yet completed
    last_ckpt = 0  # step of the latest durable checkpoint
    pending: tuple[int, float] | None = None  # (ckpt step, wall when durable)
    wall = productive = recompute = save_s = restore_s = reshard_s = 0.0
    restores = saves = 0
    status = "completed"
    events = trace.events
    ei = 0

    def economics(w: int) -> StepEconomics | None:
        sec = costs.step_seconds(w)
        save = costs.snapshot_seconds(w) + costs.save_io_seconds(w)
        if sec <= 0 or save <= 0:
            return None  # free steps/saves: nothing to optimize a cadence for
        return StepEconomics(sec, save, trace.mtbf_steps * sec)

    cad = max(1, policy.checkpoint_interval(cadence, economics(world)))
    first_cadence = cad

    def settle() -> None:
        """A background write whose finish time has passed is durable."""
        nonlocal pending, last_ckpt
        if pending is not None and pending[1] <= wall:
            last_ckpt = pending[0]
            pending = None

    def restart(new_world: int) -> None:
        nonlocal world, step, wall, restore_s, reshard_s, restores, cad
        rs = costs.reshard_seconds(world, new_world)
        rst = costs.restore_seconds(new_world)
        wall += rs + rst
        reshard_s += rs
        restore_s += rst
        restores += 1
        world = new_world
        step = last_ckpt
        cad = max(1, policy.checkpoint_interval(cadence, economics(world)))

    while step < trace.horizon_steps:
        if ei < len(events) and events[ei].step <= step:
            ev = events[ei]
            ei += 1
            if ev.kind == "failure":
                settle()
                pending = None  # an in-flight write dies torn with the world
                new_world, new_spares = world, spares
                for _ in range(ev.count):
                    new_world, new_spares = policy.on_failure(new_world, new_spares)
                if new_world < min_world_size:
                    status = "exhausted"
                    break
                spares = new_spares
                restart(new_world)
            else:
                new_world, spares = policy.on_arrival(world, spares, ev.count)
                if max_world_size is not None:
                    new_world = min(new_world, max_world_size)
                if new_world != world:
                    # A grow is a planned restart: drain the writer first
                    # (the live supervisor does the same), so the in-flight
                    # save becomes durable instead of torn.
                    if pending is not None:
                        wall = max(wall, pending[1])
                        settle()
                    restart(new_world)
                # Banked as a spare: the host parks outside the job and the
                # run is never interrupted.
            continue
        settle()
        sec = costs.step_seconds(world)
        wall += sec
        if step >= frontier:
            productive += sec
            frontier = step + 1
        else:
            recompute += sec
        step += 1
        if step % cad == 0 and step < trace.horizon_steps:
            snap = costs.snapshot_seconds(world)
            io = costs.save_io_seconds(world)
            saves += 1
            if async_save:
                stall = 0.0
                if pending is not None:
                    # Double-buffer back-pressure: the previous write must
                    # finish before this save's commit slot frees up.
                    stall = max(0.0, pending[1] - wall)
                    wall += stall
                    settle()
                wall += snap
                save_s += snap + stall
                pending = (step, wall + io)
            else:
                wall += snap + io
                save_s += snap + io
                last_ckpt = step
    if pending is not None:
        # Run ended with a write in flight; it completes in the background.
        wall = max(wall, pending[1])
        settle()
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
        cadence_steps=first_cadence,
        steps_completed=frontier,
        status=status,
    )


def compare_policies(
    trace: FleetTrace,
    policies: Sequence[RecoveryPolicy],
    costs: FleetCosts,
    world_size: int,
    cadence: int = 50,
    min_world_size: int = 1,
    max_world_size: int | None = None,
    async_save: bool = False,
) -> list[FleetRunResult]:
    """Rank *policies* against one trace, best goodput first.

    Ties break by policy name, so the ranking is fully deterministic for a
    fixed trace and cost table — the property the CI smoke gate pins.
    """
    if not policies:
        raise ValueError("compare_policies needs at least one policy")
    results = [
        simulate_fleet(
            trace,
            p,
            costs,
            world_size,
            cadence=cadence,
            min_world_size=min_world_size,
            max_world_size=max_world_size,
            async_save=async_save,
        )
        for p in policies
    ]
    results.sort(key=lambda r: (-r.goodput, r.policy))
    return results


# -- CLI smoke gate (wired into the elastic-smoke CI job) -------------------
def _anchor_table(worlds: Sequence[int], machine):  # pragma: no cover
    """One captured stand-in schedule per anchor world, replay-priced."""
    from ..perf.calibrate import measure_plan
    from ..perf.modelcfg import ModelConfig
    from ..perf.plan import ParallelPlan, Workload
    from ..perf.schedule import StepCostTable

    model = ModelConfig(
        "fleet-standin", dim=64, depth=2, heads=4, patch=4, image_hw=(16, 16)
    )
    workload = Workload(channels=16, batch=2)
    table = StepCostTable(machine=machine)
    for world in worlds:
        plan = ParallelPlan("tp", tp=1, sp=1, fsdp=world, dp=1)
        measured = measure_plan(model, workload, plan, machine, capture=True)
        table.add(measured.schedule, world)
    return table


def main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover
    """Fleet-simulator smoke gate: >=10k-step trace, >=3 policies, seconds of
    wall clock, deterministic pinned ranking."""
    import argparse
    import time

    from ..perf.machine import frontier
    from .policy import AlwaysShrink, CostAwareCadence, SparePool

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small fast subset")
    parser.add_argument("--horizon", type=int, default=None, help="trace steps")
    parser.add_argument("--world", type=int, default=4, help="starting world size")
    parser.add_argument("--seed", type=int, default=7, help="trace seed")
    opts = parser.parse_args(argv)
    horizon = opts.horizon or (12_000 if opts.smoke else 100_000)
    machine = frontier()

    failures = 0

    def gate(name: str, ok: bool) -> None:
        nonlocal failures
        failures += 0 if ok else 1
        print(f"[{'OK ' if ok else 'FAIL'}] {name}")

    # Two captured stand-in worlds anchor the whole sweep of fleet sizes;
    # everything after this line is pure event arithmetic.  model_bytes is
    # sized to the stand-in capture so step, save and reshard costs stay
    # mutually consistent (a 2-block dim-64 model, not a frontier LLM).
    table = _anchor_table((max(1, opts.world // 2), opts.world), machine)
    costs = FleetCosts.from_machine(machine, model_bytes=1.5e6, step_cost=table)
    trace = FleetTrace.poisson(
        horizon, mtbf_steps=1_500, return_after_steps=700, seed=opts.seed
    )
    policies = [AlwaysShrink(), SparePool(2), CostAwareCadence(AlwaysShrink())]
    print(
        f"trace: {horizon} steps, {trace.n_failures} failures, "
        f"{trace.n_arrivals} arrivals; world {opts.world}, "
        f"anchors {table.worlds}"
    )

    # Rank under blocking saves: that is the cost model CostAwareCadence
    # prices its Young/Daly interval against, so the comparison is apples
    # to apples.  Async overlap is gated separately below.
    t0 = time.monotonic()
    results = compare_policies(
        trace, policies, costs, opts.world, cadence=25, async_save=False
    )
    elapsed = time.monotonic() - t0
    header = f"{'policy':>28s} {'goodput':>8s} {'recomp s':>9s} {'save s':>8s} {'restores':>8s} {'world':>5s}"
    print(header)
    for r in results:
        print(
            f"{r.policy:>28s} {r.goodput:8.4f} {r.recompute_seconds:9.2f} "
            f"{r.save_seconds:8.2f} {r.restores:8d} {r.final_world:5d}"
        )
    gate(f"simulated {horizon} steps x {len(policies)} policies in {elapsed:.2f}s",
         elapsed < 60.0)
    gate("every policy completed the horizon",
         all(r.status == "completed" for r in results))

    again = compare_policies(
        trace, policies, costs, opts.world, cadence=25, async_save=False
    )
    gate(
        "ranking is deterministic",
        [(r.policy, r.goodput) for r in results]
        == [(r.policy, r.goodput) for r in again],
    )
    if opts.smoke:
        pinned = ["cost-aware[always-shrink]", "spare-pool-2", "always-shrink"]
        gate(
            f"pinned ranking {pinned}",
            [r.policy for r in results] == pinned,
        )

    blocking = {r.policy: r for r in results}
    overlapped = {
        r.policy: r
        for r in compare_policies(
            trace, policies, costs, opts.world, cadence=25, async_save=True
        )
    }
    gate(
        "async saves never lose goodput vs blocking at the same cadence",
        all(
            overlapped[p.name].goodput >= blocking[p.name].goodput
            for p in policies
        ),
    )

    if failures:
        print(f"{failures} fleet gate(s) FAILED")
        return 1
    print("all fleet-simulator gates passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
