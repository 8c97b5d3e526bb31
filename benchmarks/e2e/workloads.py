"""The six workloads: what one unit is, what a timed block is, what is checked.

Every class has the shape :func:`harness.measure` drives —

* ``setup()``  builds inputs from the seed and runs the warm-up units;
* ``block()``  runs one timed block and returns ``(units, wall_s, cpu_s,
  problems)`` for its timed region;
* ``verify()`` the checks that need the whole run (pinned values, trends);
* ``observed()`` the values ``expected.json`` pins, as seen by this run.

The seed reaches dataset synthesis, model initialisation and the masking
RNGs only; ``repro`` sees generated inputs, never the seed.  The builders
(``serial_model`` …) are shared with the traced run in ``layers.py``.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import tempfile
import time

import numpy as np

import config as cfg
from harness import timed

from repro.core import DCHAG, DCHAGConfig
from repro.data import HyperspectralConfig, HyperspectralDataset
from repro.dist import average_gradients, broadcast_parameters, run_spmd_world
from repro.elastic import ElasticSupervisor, FailurePlan, fsdp_training_segment
from repro.models import MAEModel, build_serial_mae
from repro.nn import ViTEncoder
from repro.parallel import DeviceMesh, shard_batch
from repro.perf import (
    ModelConfig,
    ParallelPlan,
    Workload,
    frontier,
    named_model,
    search_configurations,
    simulated_overlaps,
    sweep_replay,
)
from repro.perf.calibrate import measure_plan
from repro.train import TrainConfig, Trainer

RTOL = 1e-4   # pinned losses: the arithmetic-unchanged band of the training rule
EXPECTED = json.loads((cfg.HERE / "expected.json").read_text())


def mask_rng(seed: int, step: int) -> np.random.Generator:
    """The masking RNG of one step: a function of (seed, step) only, so a
    resumed, resharded or mirrored step masks exactly like the original."""
    return np.random.default_rng(seed * 100_003 + 300 + step)


def pinned(name: str, seed: int) -> dict | None:
    """Seed-0 pins; other seeds are held to the invariants only."""
    return EXPECTED[name] if seed == EXPECTED["seed"] else None


def loss_problems(losses, what: str) -> list[str]:
    out = []
    if not all(math.isfinite(v) for v in losses):
        out.append(f"{what}: non-finite loss")
    elif len(losses) > 1 and not losses[-1] < losses[0]:
        out.append(f"{what}: loss did not decrease ({losses[0]:.6g} -> {losses[-1]:.6g})")
    return out


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * abs(b)


class Timed:
    """Defaults of a workload; the docstring at the top of this file is the
    contract.  ``one_core`` pins the run to one core (see ``Sec62Search``)."""

    name = ""
    one_core = False
    units_per_block = 1
    min_blocks = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def verify(self) -> list[str]:
        return []


# -- train_serial -----------------------------------------------------------

def dataset(shape: dict, n_images: int, seed: int) -> HyperspectralDataset:
    return HyperspectralDataset(HyperspectralConfig(
        channels=shape["channels"], height=shape["image"], width=shape["image"],
        n_images=n_images, seed=seed,
    ))


def serial_dataset(seed: int) -> HyperspectralDataset:
    return dataset(cfg.SERIAL, cfg.SERIAL_BATCH * cfg.SERIAL_BATCHES, seed)


def serial_batches(seed: int) -> list[np.ndarray]:
    ds = serial_dataset(seed)
    return [
        ds.batch(range(i * cfg.SERIAL_BATCH, (i + 1) * cfg.SERIAL_BATCH))
        for i in range(cfg.SERIAL_BATCHES)
    ]


def serial_model(seed: int) -> MAEModel:
    return build_serial_mae(rng=np.random.default_rng(seed), **cfg.SERIAL)


class TrainSerial(Timed):
    """One ``Trainer.step`` of the single-worker MAE per unit and per block."""

    name = "train_serial"
    min_blocks = cfg.SERIAL_PIN_STEP + 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.losses: list[float] = []

    def setup(self) -> None:
        self.batches = serial_batches(self.seed)
        self.trainer = Trainer(serial_model(self.seed), TrainConfig())
        self.step = 0
        for _ in range(cfg.SERIAL_WARMUP):
            self._step()

    def _step(self) -> float:
        i = self.step
        self.step += 1
        return self.trainer.step(self.batches[i % len(self.batches)], mask_rng(self.seed, i))

    def block(self):
        loss, wall, cpu = timed(self._step)
        self.losses.append(loss)
        return 1, wall, cpu, [] if math.isfinite(loss) else ["train_serial: non-finite loss"]

    def verify(self) -> list[str]:
        out = loss_problems(self.trainer.result.losses, self.name)
        pin = pinned(self.name, self.seed)
        if pin and len(self.losses) > cfg.SERIAL_PIN_STEP:
            got = self.losses[cfg.SERIAL_PIN_STEP]
            if not close(got, pin["loss_at_pin_step"]):
                out.append(f"train_serial: loss at timed step {cfg.SERIAL_PIN_STEP} is "
                           f"{got!r}, pinned {pin['loss_at_pin_step']!r}")
        return out

    def observed(self) -> dict:
        if len(self.losses) <= cfg.SERIAL_PIN_STEP:
            return {}
        return {"loss_at_pin_step": self.losses[cfg.SERIAL_PIN_STEP]}


# -- train_hybrid -----------------------------------------------------------

def hybrid_batch(seed: int) -> np.ndarray:
    n = cfg.HYBRID_GLOBAL_BATCH
    return dataset(cfg.HYBRID, n, seed).batch(range(n))


def hybrid_model(comm, seed: int):
    """The examples/hybrid_training.py model on this rank: D-CHAG over the
    TP group (rank-local shard weights, shared final layer), a replicated
    encoder and decoder."""
    h = cfg.HYBRID
    mesh = DeviceMesh(comm, tp=cfg.HYBRID_TP, dp=cfg.HYBRID_DP)
    front = DCHAG(
        comm, mesh.dchag_group,
        DCHAGConfig(channels=h["channels"], patch=h["patch"], dim=h["dim"],
                    heads=h["heads"], kind="linear"),
        rng_seed=seed + 4,
    )
    shared = np.random.default_rng(seed)
    model = MAEModel(
        front, ViTEncoder(h["dim"], h["depth"], h["heads"], shared),
        num_tokens=(h["image"] // h["patch"]) ** 2, dim=h["dim"], patch=h["patch"],
        out_channels=h["channels"], rng=shared, mask_ratio=0.5, decoder_depth=2,
    )
    return mesh, model


def hybrid_config() -> TrainConfig:
    return TrainConfig(lr=3e-3, total_steps=cfg.HYBRID_WARMUP + cfg.HYBRID_TIMED, warmup_steps=2)


def trainer_stepper(comm, mesh, model):
    """The untraced step: ``Trainer.step`` with the DP gradient hook."""
    trainer = Trainer(
        model, hybrid_config(),
        grad_hook=lambda: average_gradients(comm, model.parameters(), group=mesh.dp_group),
    )
    return trainer.step


def hybrid_world(seed: int, global_batch: np.ndarray, make_stepper=trainer_stepper):
    """One fresh 4-rank world: build, broadcast, warm up, then the timed steps.

    Returns ``(per-rank (losses, timed wall, timed cpu, bcast seconds), world)``.
    The barrier lines the ranks up so the timed wall of the slowest rank is
    the world's step time; a barrier moves no payload and is not logged.
    """
    def rank_fn(comm):
        mesh, model = hybrid_model(comm, seed)
        t0 = time.perf_counter()
        broadcast_parameters(comm, model.parameters(), group=mesh.dp_group)
        bcast = time.perf_counter() - t0
        local = shard_batch(global_batch, comm, mesh.dp_group)
        step = make_stepper(comm, mesh, model)
        losses = [step(local, mask_rng(seed, i)) for i in range(cfg.HYBRID_WARMUP)]
        comm.barrier()
        c0, t0 = time.thread_time(), time.perf_counter()
        for i in range(cfg.HYBRID_WARMUP, cfg.HYBRID_WARMUP + cfg.HYBRID_TIMED):
            losses.append(step(local, mask_rng(seed, i)))
        return losses, time.perf_counter() - t0, time.thread_time() - c0, bcast

    return run_spmd_world(rank_fn, cfg.HYBRID_TP * cfg.HYBRID_DP)


def hybrid_problems(results, world) -> list[str]:
    """TP peers agree, D-CHAG gathers forward only, DP syncs once a step."""
    out: list[str] = []
    steps = cfg.HYBRID_WARMUP + cfg.HYBRID_TIMED
    tp = cfg.HYBRID_TP
    for rank, (losses, *_rest) in enumerate(results):
        out.extend(loss_problems(losses, f"train_hybrid rank {rank}"))
        base = results[rank - rank % tp][0]
        if losses != base:
            out.append(f"train_hybrid: rank {rank} loss differs from its TP peer")
        hist = world.traffic.ops_histogram(rank=rank)
        hist.pop("broadcast", None)   # parameter broadcast, once per world
        if hist != {"all_gather": steps, "all_reduce": steps}:
            out.append(f"train_hybrid: rank {rank} traffic {hist}, expected one "
                       f"all_gather and one all_reduce per step")
    if world.traffic.count(phase="backward"):
        out.append("train_hybrid: collectives logged in phase 'backward'")
    return out


class TrainHybrid(Timed):
    """One fresh tp2 x dp2 world per block; a unit is one of its timed steps.

    Threaded worlds on a small shared host settle into a fast or a slow
    hand-off pattern per world, so the sample is per world and the median is
    taken over many fresh worlds — never one long world.
    """

    name = "train_hybrid"
    units_per_block = cfg.HYBRID_TIMED

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.finals: list[list[float]] = []

    def setup(self) -> None:
        self.batch = hybrid_batch(self.seed)
        hybrid_world(self.seed, self.batch)   # warm-up world: imports, allocator

    def block(self):
        results, world = hybrid_world(self.seed, self.batch)
        wall = max(r[1] for r in results)
        cpu = sum(r[2] for r in results)
        self.finals.append([r[0][-1] for r in results])
        return cfg.HYBRID_TIMED, wall, cpu, hybrid_problems(results, world)

    def verify(self) -> list[str]:
        out = []
        if any(f != self.finals[0] for f in self.finals):
            out.append("train_hybrid: final losses differ between fresh worlds")
        pin = pinned(self.name, self.seed)
        if pin and self.finals:
            got = self.finals[0][:: cfg.HYBRID_TP]
            if not all(close(g, p) for g, p in zip(got, pin["final_loss_per_replica"])):
                out.append(f"train_hybrid: final losses {got}, pinned "
                           f"{pin['final_loss_per_replica']}")
        return out

    def observed(self) -> dict:
        if not self.finals:
            return {}
        return {"final_loss_per_replica": self.finals[0][:: cfg.HYBRID_TP]}


# -- comm_replay ------------------------------------------------------------

def replay_args():
    return (ModelConfig(**cfg.REPLAY_MODEL), Workload(*cfg.REPLAY_WORKLOAD),
            ParallelPlan(**cfg.REPLAY_PLAN), frontier())


class CommReplay(Timed):
    """One ``measure_plan`` call — a fresh 8-rank world replaying 25 steps'
    collectives on the live issue-queue clock — per block."""

    name = "comm_replay"
    units_per_block = cfg.REPLAY_STEPS

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.step_seconds: list[float] = []

    def _replay(self, **kw):
        return measure_plan(*self.args, eager=True, workspace=self.workspace,
                            n_steps=cfg.REPLAY_STEPS, **kw)

    def setup(self) -> None:
        self.args = replay_args()
        self.workspace: dict = {}
        self._replay()

    def block(self):
        m, wall, cpu = timed(self._replay)
        self.step_seconds.append(m.step_seconds)
        problems = [] if m.wire_matches_predicted() else [
            "comm_replay: measured wire bytes differ from the analytic prediction"]
        return cfg.REPLAY_STEPS, wall, cpu, problems

    def verify(self) -> list[str]:
        out = []
        if len(set(self.step_seconds)) > 1:
            out.append("comm_replay: virtual step_seconds differ between blocks")
        want = EXPECTED[self.name]["virtual_step_s"]
        if self.step_seconds and self.step_seconds[0] != want:
            out.append(f"comm_replay: virtual step_seconds {self.step_seconds[0]!r}, "
                       f"pinned {want!r}")
        return out

    def observed(self) -> dict:
        return {"virtual_step_s": self.step_seconds[0]} if self.step_seconds else {}


# -- sec62_search -----------------------------------------------------------

def search_once(wrap_oracle=None):
    """The §6.2 search with a cold per-plan oracle (its cache starts empty,
    so the stand-in worlds it simulates are part of the unit)."""
    model, machine = named_model(cfg.SEARCH_MODEL), frontier()
    oracle = simulated_overlaps(machine, model, cfg.SEARCH_CHANNELS)
    if wrap_oracle is not None:
        oracle = wrap_oracle(oracle)
    return search_configurations(
        model, cfg.SEARCH_CHANNELS, cfg.SEARCH_GPUS, machine, cfg.SEARCH_BATCH,
        overlaps=oracle, prune_top_k=cfg.SEARCH_TOP_K,
    )


def podium(results) -> list[list]:
    return [[t.plan.label, t.total_tflops] for t in results[: cfg.SEARCH_TOP_K]]


class Sec62Search(Timed):
    """One search per unit and per block.

    ``one_core``: the oracle's four stand-in worlds live a few milliseconds
    each.  Where the kernel puts such short-lived GIL-bound threads — beside
    their parent or on the other core — changes by the minute on a shared
    two-core host, and with it the unit time (22, 50 and 88 ms were all
    seen as the median of whole runs).  On one core the coin is not tossed:
    ten runs spread 8–16 %, against 13–32 % with the kernel left to choose.
    Workloads whose timed region sits inside one longer-lived world
    (``train_hybrid``, ``comm_replay``) or is single-threaded measured
    steadier unpinned (4–8 % against 11–17 %), so they are left alone.
    """

    name = "sec62_search"
    one_core = True
    min_blocks = 10

    podium: list | None = None

    def setup(self) -> None:
        for _ in range(cfg.SEARCH_WARMUP):
            search_once()

    def block(self):
        results, wall, cpu = timed(search_once)
        self.podium = podium(results)
        want = EXPECTED[self.name]["podium"]
        problems = [] if self.podium == want else [
            f"sec62_search: podium {self.podium}, pinned {want}"]
        return 1, wall, cpu, problems

    def observed(self) -> dict:
        return {"podium": self.podium} if self.podium else {}


# -- fleet_sweep ------------------------------------------------------------

def sweep_once(budgets):
    return sweep_replay(named_model(cfg.FLEET_MODEL), cfg.FLEET_CHANNELS, frontier(),
                        budgets, strategies=cfg.FLEET_STRATEGIES)


def winners(sweep) -> dict[str, str]:
    return {f"{g}x{b}": ranked[0].plan.label for (g, b), ranked in sweep.rankings if ranked}


def sweep_problems(sweep) -> list[str]:
    out = []
    if sweep.candidates < cfg.FLEET_MIN_CANDIDATES:
        out.append(f"fleet_sweep: {sweep.candidates} candidates < {cfg.FLEET_MIN_CANDIDATES}")
    if sweep.captured_worlds > cfg.FLEET_MAX_WORLDS:
        out.append(f"fleet_sweep: {sweep.captured_worlds} captured worlds > {cfg.FLEET_MAX_WORLDS}")
    if winners(sweep) != EXPECTED["fleet_sweep"]["winners"]:
        out.append("fleet_sweep: per-budget winners differ from the pinned ones")
    return out


class FleetSweep(Timed):
    name = "fleet_sweep"
    min_blocks = 5

    last = None                # the latest ReplaySweep

    def setup(self) -> None:
        self.budgets = cfg.fleet_budgets()
        sweep_once(self.budgets)

    def block(self):
        self.last, wall, cpu = timed(lambda: sweep_once(self.budgets))
        return 1, wall, cpu, sweep_problems(self.last)

    def observed(self) -> dict:
        if self.last is None:
            return {}
        return {"candidates": self.last.candidates, "lanes": self.last.lanes,
                "captured_worlds": self.last.captured_worlds, "winners": winners(self.last)}


# -- elastic_cycle ----------------------------------------------------------

@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh directory under ``.bench_work/`` (inside the checkout, never
    ``/tmp``), removed on exit."""
    cfg.WORK.mkdir(parents=True, exist_ok=True)
    root = tempfile.mkdtemp(prefix=prefix, dir=cfg.WORK)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def elastic_inputs(seed: int):
    """``(images, module_factory)``: one fixed batch and a deterministic
    model constructor, so every rank and every restart starts identical."""
    e = cfg.ELASTIC
    images = np.random.default_rng(seed + 5).standard_normal(
        (4, e["channels"], e["image"], e["image"])).astype(np.float32)
    return images, lambda: build_serial_mae(
        rng=np.random.default_rng(seed), mask_ratio=0.5, **e)


def elastic_run(seed: int, plan):
    """One supervised 24-step FSDP run under a fresh checkpoint root inside
    the checkout; the root is removed afterwards, outside the timed region.
    Returns ``(ElasticResult, wall_s, cpu_s)``."""
    images, module_factory = elastic_inputs(seed)
    config = TrainConfig(lr=3e-3, total_steps=cfg.ELASTIC_STEPS, warmup_steps=2,
                         checkpoint_every=cfg.ELASTIC_CKPT_EVERY)
    with work_dir("elastic_") as root:
        segment = fsdp_training_segment(
            module_factory, lambda step: (images, mask_rng(seed, step)), config, root)
        supervisor = ElasticSupervisor(segment, root, cfg.ELASTIC_WORLD, timeout=120)
        return timed(lambda: supervisor.run(cfg.ELASTIC_STEPS, failure_plan=plan))


def churn_plan() -> FailurePlan:
    rank, step = cfg.ELASTIC_KILL
    return FailurePlan.kill(rank, step, "simulated GPU loss").rejoin(
        cfg.ELASTIC_REJOIN, message="host repaired")


def cycle_problems(result, baseline_losses) -> list[str]:
    out = loss_problems(result.losses, "elastic_cycle")
    kinds = [ev.kind for ev in result.recoveries]
    if kinds != ["shrink", "grow"]:
        out.append(f"elastic_cycle: recoveries {kinds}, expected ['shrink', 'grow']")
    if result.world_sizes[-1] != cfg.ELASTIC_WORLD:
        out.append(f"elastic_cycle: final world size {result.world_sizes[-1]}")
    if len(result.losses) != len(baseline_losses) or not np.allclose(
            result.losses, baseline_losses, rtol=RTOL, atol=1e-6):
        out.append("elastic_cycle: losses left the uninterrupted run's trajectory")
    return out


class ElasticCycle(Timed):
    """One supervised run through a rank loss and the rank's return per unit.

    Setup's uninterrupted 4-rank run is both the reference trajectory and
    the warm-up: it walks the same FSDP, checkpoint and supervisor code.

    ``one_core`` for the reason given on ``Sec62Search``: three supervisor
    worlds are spawned and torn down inside every unit (3–6 % spread over
    ten runs on one core, 14 % with the kernel left to choose).
    """

    name = "elastic_cycle"
    one_core = True
    min_blocks = 2

    final: float | None = None

    def setup(self) -> None:
        self.baseline, self.baseline_wall, _ = elastic_run(self.seed, None)

    def block(self):
        result, wall, cpu = elastic_run(self.seed, churn_plan())
        self.final = result.final_loss
        return 1, wall, cpu, cycle_problems(result, self.baseline.losses)

    def verify(self) -> list[str]:
        pin = pinned(self.name, self.seed)
        if pin and self.final is not None and not close(self.final, pin["final_loss"]):
            return [f"elastic_cycle: final loss {self.final!r}, pinned {pin['final_loss']!r}"]
        return []

    def observed(self) -> dict:
        return {"final_loss": self.final} if self.final is not None else {}


BY_NAME = {w.name: w for w in
           (TrainSerial, TrainHybrid, CommReplay, Sec62Search, FleetSweep, ElasticCycle)}
