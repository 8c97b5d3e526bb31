"""The traced run: per-layer metrics, measured from outside the program.

Nothing in ``src/`` is edited or instrumented.  The benchmark times calls
into each layer's public functions from here:

* a **step mirror** — ``Trainer.step`` rewritten from the public calls
  (``model.zero_grad`` / ``model.loss`` / ``loss.backward`` / ``grad_hook``
  / ``clip_grad_norm`` / ``optimizer.step``) with one span per call, and
  checked bitwise against ``Trainer.step``;
* **forward shadowing** — an instance attribute ``forward`` on the
  frontend, encoder and decoder (``Module.__call__`` dispatches to
  ``self.forward``);
* **stamped collectives** — the public collective methods of
  ``Communicator`` wrapped to stamp entry and exit per rank, from which
  arrival wait (other ranks' compute) and service (the runtime's own time)
  are separated;
* **probes** — direct timed calls of single public functions.

One traced run covers every layer: the sections of the other workloads run
at a small reference size, the traced workload's own section runs longer
and overrides the reference values for the layers it passes through.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import json
import threading
import time
import weakref

import numpy as np

import config as cfg
import harness
import workloads as wl
from harness import Spans, median, p90, timed

from repro.dist import Communicator, average_gradients, run_spmd_world
from repro.elastic import (
    AlwaysShrink,
    AsyncCheckpointWriter,
    FleetCosts,
    FleetTrace,
    checkpoint_nbytes,
    load_sharded,
    reshard,
    save_sharded,
    simulate_fleet,
)
from repro.obs.commvol import comm_volume_report
from repro.obs.trace import chrome_trace, validate_trace
from repro.parallel import FSDPModel
from repro.perf import (
    ReplayProgram,
    ReplayVariant,
    Workload,
    estimate_step,
    frontier,
    named_model,
    replay,
    replay_many,
)
from repro.perf.calibrate import measure_plan
from repro.tensor import (
    AdamW,
    FlopCounter,
    MemoryTracker,
    Tensor,
    clip_grad_norm,
    count_flops,
    functional as F,
    track_memory,
)
from repro.train import TrainConfig, Trainer
from repro.train.schedule import cosine_warmup

DRIVER = -1                     # span rank of the benchmark's own thread
RESIDUAL_LIMIT = 0.05           # step wall not covered by child spans
COLLECTIVES = ("all_reduce", "all_gather", "reduce_scatter", "broadcast", "all_to_all")
MIB = 1024.0 * 1024.0


# -- instruments --------------------------------------------------------------

class StepMirror:
    """``Trainer.step`` from its public calls, one span per call."""

    def __init__(self, model, config: TrainConfig, spans: Spans, rank: int = 0,
                 grad_hook=None, first_unit: int = 0) -> None:
        self.model, self.config, self.spans, self.rank = model, config, spans, rank
        self.params = model.parameters()
        self.optimizer = AdamW(self.params, lr=config.lr, weight_decay=config.weight_decay)
        self.grad_hook = grad_hook
        self.first_unit = first_unit
        self.index = 0
        for name, module in (("core.frontend", model.frontend), ("nn.encoder", model.encoder),
                             ("nn.decoder", model.decoder)):
            self._shadow(module, name)

    @property
    def unit(self) -> int:
        return self.first_unit + self.index

    def _shadow(self, module, name: str) -> None:
        inner = module.forward

        def forward(*args, **kwargs):
            with self.spans.span(name, self.unit, self.rank):
                return inner(*args, **kwargs)

        module.forward = forward

    def step(self, *batch) -> float:
        c, span, unit, rank = self.config, self.spans.span, self.unit, self.rank
        with span("train.step", unit, rank):
            self.optimizer.lr = cosine_warmup(self.index, c.total_steps, c.lr, c.warmup_steps)
            with span("train.zero_grad", unit, rank):
                self.model.zero_grad()
                self.optimizer.zero_grad()
            with span("models.forward", unit, rank):
                loss = self.model.loss(*batch)
            with span("tensor.backward", unit, rank):
                loss.backward()
            if self.grad_hook is not None:
                with span("parallel.grad_sync", unit, rank):
                    self.grad_hook()
            with span("train.clip", unit, rank):
                clip_grad_norm(self.params, c.grad_clip)
            with span("tensor.optimizer", unit, rank):
                self.optimizer.step()
            value = float(loss.item())
        self.index += 1
        return value


class CollectiveLog:
    """Entry and exit stamps of every collective, matched across ranks.

    The k-th collective a rank issues on a group is the same collective as
    its peers' k-th on that group, so rows are matched by (world, group,
    k).  For one collective the *arrival wait* of a rank is the last
    member's entry minus its own entry — time spent waiting for other
    ranks' compute, which no runtime change removes — and its *service* is
    its exit minus the last entry: the runtime's own rendezvous, reduce and
    copy time.
    """

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.rows: list[tuple] = []      # (world serial, group ranks, rank, op, t_in, t_out)
        self._serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    def _serial(self, world) -> int:
        with self._lock:
            return self._serials.setdefault(world, len(self._serials))

    @contextlib.contextmanager
    def stamping(self):
        """Wrap ``Communicator``'s public collectives for the duration."""
        originals = {op: getattr(Communicator, op) for op in COLLECTIVES}

        def wrap(op, inner):
            def stamped(comm, *args, **kwargs):
                group = kwargs.get("group")
                ranks = group.ranks if group is not None else comm.world.default_group.ranks
                t_in = time.perf_counter()
                try:
                    return inner(comm, *args, **kwargs)
                finally:
                    t_out = time.perf_counter()
                    self.rows.append((self._serial(comm.world), ranks, comm.rank, op, t_in, t_out))
                    self.spans.add(f"dist.{op}", t_in, t_out, rank=comm.rank)
            return stamped

        for op, inner in originals.items():
            setattr(Communicator, op, wrap(op, inner))
        try:
            yield self
        finally:
            for op, inner in originals.items():
                setattr(Communicator, op, inner)

    def summarize(self, rows, steps: int, n_ranks: int, step_wall: float) -> dict:
        """dist.* timing metrics of *rows*, which cover *steps* steps on each
        of *n_ranks* ranks whose per-step wall is *step_wall* seconds."""
        order: dict[tuple, int] = collections.defaultdict(int)
        matched: dict[tuple, list] = collections.defaultdict(list)
        for row in sorted(rows, key=lambda r: r[4]):
            world, ranks, rank = row[0], row[1], row[2]
            k = order[(world, ranks, rank)]
            order[(world, ranks, rank)] = k + 1
            matched[(world, ranks, k)].append(row)
        by_op: dict[str, list[float]] = collections.defaultdict(list)
        wait = service = inside = 0.0
        for members in matched.values():
            last_in = max(m[4] for m in members)
            for _w, _g, _r, op, t_in, t_out in members:
                by_op[op].append(t_out - t_in)
                inside += t_out - t_in
                wait += last_in - t_in
                service += t_out - last_in
        per_rank_step = steps * n_ranks
        out = {
            "dist.arrival_wait_ms_per_step": wait / per_rank_step * 1e3,
            "dist.service_ms_per_step": service / per_rank_step * 1e3,
            "dist.comm_share": inside / per_rank_step / step_wall,
        }
        for op in ("all_reduce", "all_gather", "reduce_scatter"):
            if by_op[op]:
                out[f"dist.{op}_us_p50"] = median(by_op[op]) * 1e6
        return out


class Trace:
    """What one traced run accumulates: spans, stamps, metrics, problems."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spans = Spans()
        self.log = CollectiveLog(self.spans)
        self.metrics: dict[str, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.unit_ms: dict[str, float] = {}     # traced unit_ms_p50 per workload
        self.observed: dict = {}                # exact counts expected.json pins

        self.replay_inputs: tuple = ()          # comm_section's (args, schedule, live step s)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def same(self, name: str, values) -> None:
        """An *exact* count must repeat bit for bit across blocks."""
        values = list(values)
        self.check(len(set(values)) <= 1, f"{name}: exact count differs across blocks: {values}")


def step_metrics(rows: list[list]) -> dict:
    """train/tensor/models/core/nn timing metrics from the step spans in *rows*.

    Samples are per (rank, unit); a step's residual is its wall minus its
    direct child spans.
    """
    covered: dict[int, float] = collections.defaultdict(float)
    per: dict[str, dict[tuple, float]] = collections.defaultdict(dict)
    for name, start, end, parent, unit, rank, _depth in rows:
        if parent is not None:
            covered[id(parent)] += end - start
        key = (rank, unit)
        per[name][key] = per[name].get(key, 0.0) + (end - start)
    steps = [r for r in rows if r[0] == "train.step"]
    step_s = [r[2] - r[1] for r in steps]
    residual = [1.0 - covered[id(r)] / (r[2] - r[1]) for r in steps]

    def ms(name: str) -> float:
        return median(per[name].values()) * 1e3

    fwd = per["models.forward"]
    head = [fwd[k] - per["core.frontend"][k] - per["nn.encoder"][k] - per["nn.decoder"][k]
            for k in fwd]
    out = {
        "train.step_ms_p50": median(step_s) * 1e3,
        "train.step_ms_p90": p90(step_s) * 1e3,
        "train.zero_grad_ms": ms("train.zero_grad"),
        "train.clip_ms": ms("train.clip"),
        "train.residual_share": median(residual),
        "tensor.backward_ms": ms("tensor.backward"),
        "tensor.optimizer_ms": ms("tensor.optimizer"),
        "tensor.bwd_fwd_ratio": ms("tensor.backward") / ms("models.forward"),
        "models.forward_ms": ms("models.forward"),
        "core.frontend_ms": ms("core.frontend"),
        "core.frontend_share": ms("core.frontend") / ms("models.forward"),
        "nn.encoder_ms": ms("nn.encoder"),
        "nn.decoder_ms": ms("nn.decoder"),
        "models.loss_head_ms": median(head) * 1e3,
    }
    if per["parallel.grad_sync"]:
        out["parallel.grad_sync_ms"] = ms("parallel.grad_sync")
    return out


def probe_us(fn, repeats: int) -> float:
    """Median wall of ``fn()`` in microseconds."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples) * 1e6


# -- train / tensor / models on the single worker --------------------------

def serial_section(t: Trace, seconds: float) -> None:
    """Mirror-vs-Trainer parity, traced steps and exact counters on
    ``train_serial``'s model."""
    seed, spans = t.seed, t.spans
    ds = wl.serial_dataset(seed)
    t.metrics["data.batch_ms"] = probe_us(lambda: ds.batch(range(cfg.SERIAL_BATCH)), 5) / 1e3
    batches = wl.serial_batches(seed)

    def batch(i):
        return batches[i % len(batches)], wl.mask_rng(seed, i)

    trainer = Trainer(wl.serial_model(seed), TrainConfig())
    mirror = StepMirror(wl.serial_model(seed), TrainConfig(), spans)
    for i in range(cfg.SERIAL_WARMUP):
        t.check(trainer.step(*batch(i)) == mirror.step(*batch(i)),
                f"step mirror differs from Trainer.step at step {i} (train_serial)")
    del trainer

    lo = len(spans.rows)
    samples, losses = [], []
    for _ in harness.blocks(6, seconds):
        loss, wall, _ = timed(lambda: mirror.step(*batch(mirror.index)))
        samples.append(wall)
        losses.append(loss)
    t.attempted += len(samples)
    t.unit_ms["train_serial"] = median(samples) * 1e3
    m = step_metrics(spans.rows[lo:])
    m["train.loss_final"] = losses[-1]
    t.problems.extend(wl.loss_problems(losses, "traced train_serial"))

    # Exact counters: two instrumented steps, outside the timing window.
    flops, allocs, alloc_bytes, peaks = [], [], [], []
    for _ in range(2):
        gc.collect()
        tracker = MemoryTracker()
        with count_flops(FlopCounter()) as counter, track_memory(tracker):
            mirror.step(*batch(mirror.index))
        stats = tracker.stats()
        flops.append(counter.total)
        allocs.append(stats.allocation_count)
        alloc_bytes.append(stats.total_allocated)
        peaks.append(stats.peak)
    t.same("tensor.matmul_gflop_per_step", flops)
    t.same("tensor.allocs_per_step", allocs)
    t.same("tensor.peak_live_mb", peaks)
    fwd_bwd_s = (m["models.forward_ms"] + m["tensor.backward_ms"]) / 1e3
    m.update({
        "tensor.matmul_gflop_per_step": flops[0] / 1e9,
        "tensor.matmul_gflops_per_s": flops[0] / 1e9 / fwd_bwd_s,
        "tensor.alloc_mb_per_step": alloc_bytes[0] / MIB,
        "tensor.allocs_per_step": allocs[0],
        "tensor.peak_live_mb": peaks[0] / MIB,
    })
    t.metrics.update(m)


def op_probes(seed: int) -> dict:
    """Forward and backward of single public ops on fresh leaf tensors, at
    the shapes ``train_serial``'s encoder sees (batch 4, 16 visible of 64
    tokens, dim 128, 4 heads, MLP width 512)."""
    s = cfg.SERIAL
    b, n_all, d, h = cfg.SERIAL_BATCH, (s["image"] // s["patch"]) ** 2, s["dim"], s["heads"]
    n = n_all // 4                               # mask_ratio 0.75 keeps a quarter
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.permutation(n_all)[:n])

    def array(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    def leaf(data):
        return Tensor(data, requires_grad=True)

    def backward_us(build, repeats=200):
        samples = []
        for _ in range(repeats):
            out = build()
            seed_grad = np.ones_like(out.data)
            t0 = time.perf_counter()
            out.backward(seed_grad)
            samples.append(time.perf_counter() - t0)
        return median(samples) * 1e6

    x, w = array(b, n, d), array(d, 4 * d)
    tokens, scores = array(b, n_all, d), array(b, h, n, n)
    gamma, beta = array(d), array(d)
    wide, bias = array(b, n, 4 * d), array(4 * d)
    return {
        "tensor.op.matmul_fwd_us": probe_us(lambda: leaf(x) @ leaf(w), 200),
        "tensor.op.matmul_bwd_us": backward_us(lambda: leaf(x) @ leaf(w)),
        "tensor.op.getitem_bwd_us": backward_us(lambda: leaf(tokens)[:, keep, :]),
        "tensor.op.softmax_bwd_us": backward_us(lambda: F.softmax(leaf(scores))),
        "tensor.op.layer_norm_bwd_us": backward_us(
            lambda: F.layer_norm(leaf(x), leaf(gamma), leaf(beta))),
        "tensor.op.gelu_bwd_us": backward_us(lambda: F.gelu(leaf(wide))),
        "tensor.op.add_bcast_bwd_us": backward_us(lambda: leaf(wide) + leaf(bias)),
    }


# -- the same stack on a tp2 x dp2 mesh ---------------------------------------

def hybrid_section(t: Trace, seconds: float, home: bool) -> None:
    """Traced fresh worlds of ``train_hybrid``.  Always yields the
    ``parallel.*`` metrics; as the traced workload's own section it also
    overrides the step, tensor, model and ``dist`` timings."""
    seed, spans = t.seed, t.spans
    batch = wl.hybrid_batch(seed)
    steps = cfg.HYBRID_WARMUP + cfg.HYBRID_TIMED
    n_ranks = cfg.HYBRID_TP * cfg.HYBRID_DP
    reference, _ = wl.hybrid_world(seed, batch)          # untraced: Trainer.step

    bcasts, samples = [], []
    lo_span, lo_log = len(spans.rows), len(t.log.rows)
    wire, counts = [], []
    for worlds in harness.blocks(2, seconds):
        first_unit = worlds * steps

        def make_stepper(comm, mesh, model):
            return StepMirror(
                model, wl.hybrid_config(), spans, rank=comm.rank, first_unit=first_unit,
                grad_hook=lambda: average_gradients(comm, model.parameters(), group=mesh.dp_group),
            ).step

        with spans.span("bench.world", worlds, DRIVER):
            results, world = wl.hybrid_world(seed, batch, make_stepper)
        t.problems.extend(wl.hybrid_problems(results, world))
        t.check([r[0] for r in results] == [r[0] for r in reference],
                "step mirror differs from Trainer.step (train_hybrid)")
        samples.append(max(r[1] for r in results) / cfg.HYBRID_TIMED)
        bcasts.extend(r[3] for r in results)
        step_records = [r for r in world.traffic.records(rank=0) if r.op != "broadcast"]
        counts.append(len(step_records) / steps)
        wire.append(sum(r.wire_bytes for r in step_records) / steps)
    worlds = len(samples)
    t.attempted += worlds * cfg.HYBRID_TIMED
    t.unit_ms["train_hybrid"] = median(samples) * 1e3
    t.same("dist.collectives_per_step (train_hybrid)", counts)
    t.same("dist.wire_bytes_per_step (train_hybrid)", wire)

    timed_rows = [r for r in spans.rows[lo_span:]
                  if r[5] != DRIVER and r[4] % steps >= cfg.HYBRID_WARMUP]
    m = step_metrics(timed_rows)
    t.metrics["parallel.grad_sync_ms"] = m.pop("parallel.grad_sync_ms")
    t.metrics["parallel.param_bcast_ms"] = median(bcasts) * 1e3
    if not home:
        return
    step_rows = [r for r in t.log.rows[lo_log:] if r[3] in ("all_reduce", "all_gather")]
    all_steps = [r[2] - r[1] for r in spans.rows[lo_span:] if r[0] == "train.step"]
    m.update(t.log.summarize(step_rows, worlds * steps, n_ranks, median(all_steps)))
    m["dist.collectives_per_step"] = counts[0]
    m["dist.wire_bytes_per_step"] = wire[0]
    m["train.loss_final"] = reference[0][0][-1]
    t.metrics.update(m)


# -- dist + the live clock ------------------------------------------------------

def comm_section(t: Trace, seconds: float) -> None:
    """``comm_replay`` blocks with stamped collectives, and the export of
    the last block's virtual-clock trace."""
    spans = t.spans
    args = wl.replay_args()
    workspace: dict = {}

    def block():
        return measure_plan(*args, eager=True, workspace=workspace,
                            n_steps=cfg.REPLAY_STEPS, keep_world=True)

    block()                                                # warm-up
    samples, counts, wire, virtual = [], [], [], []
    lo_log = len(t.log.rows)
    for i in harness.blocks(2, seconds):
        with spans.span("bench.unit", i, DRIVER):
            measured, wall, _ = timed(block)
        samples.append(wall / cfg.REPLAY_STEPS)
        t.check(measured.wire_matches_predicted(), "traced comm_replay: wire mismatch")
        counts.append(measured.world.traffic.count(rank=0) / cfg.REPLAY_STEPS)
        wire.append(measured.world.traffic.wire_bytes(rank=0) / cfg.REPLAY_STEPS)
        virtual.append(measured.step_seconds)
    block_rows = t.log.rows[lo_log:]
    t.attempted += len(samples) * cfg.REPLAY_STEPS
    t.unit_ms["comm_replay"] = median(samples) * 1e3
    t.same("dist.collectives_per_step", counts)
    t.same("dist.wire_bytes_per_step", wire)
    t.same("perf.virtual_step_s", virtual)
    t.check(virtual[0] == wl.EXPECTED["comm_replay"]["virtual_step_s"],
            f"traced comm_replay: virtual step {virtual[0]!r} is not the pinned value")

    captured = [measure_plan(*args, eager=True, workspace=workspace, capture=True).schedule
                for _ in range(2)]
    events = [len(s.events) for s in captured]
    t.same("perf.events_per_step", events)
    step_s = median(samples)
    m = t.log.summarize(block_rows, len(samples) * cfg.REPLAY_STEPS,
                        measured.world_size, step_s)
    m.update({
        "dist.collectives_per_step": counts[0],
        "dist.wire_bytes_per_step": wire[0],
        "perf.virtual_step_s": virtual[0],
        "perf.events_per_step": events[0],
        "perf.live_us_per_event": step_s / events[0] * 1e6,
    })

    def export():
        problems = validate_trace(chrome_trace(measured.world, label="comm_replay"))
        t.check(not problems, f"virtual-clock trace invalid: {problems[:2]}")

    m["obs.trace_export_ms"] = probe_us(export, 1) / 1e3
    m["obs.commvol_ms"] = probe_us(
        lambda: comm_volume_report(*args, measured=measured), 1) / 1e3
    t.metrics.update(m)
    t.replay_inputs = (args, captured[0], step_s)


def dist_probes() -> dict:
    """World spawn, the rendezvous floor and the copy-bound path."""
    spawn = probe_us(lambda: run_spmd_world(lambda comm: None, 4), 20)

    def churn(comm):
        buf = np.ones(64, dtype=np.float32)
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(200):
            comm.all_reduce(buf)
        return (time.perf_counter() - t0) / 200

    def copy(comm):
        part = np.ones(4 << 20, dtype=np.uint8)
        out = [np.empty_like(part) for _ in range(comm.size)]
        comm.all_gather(part, out=out)                     # first touch
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(4):
            comm.all_gather(part, out=out)
        return (time.perf_counter() - t0) / 4

    churn_s = median(run_spmd_world(churn, 8)[0])
    copy_s = median(run_spmd_world(copy, 8)[0])
    return {
        "dist.world_spawn_ms": spawn / 1e3,
        "dist.churn_us_per_collective": churn_s * 1e6,
        # every rank writes the eight 4 MiB parts into its own buffers
        "dist.copy_mb_per_s": 8 * 4 / copy_s,
    }


def replay_probes(args, schedule, live_step_s: float) -> dict:
    """Capture, lowering and the three replay executors on the 8-rank
    schedule ``comm_replay`` runs live."""
    machine = args[3]
    steps = 100
    _, capture_s, _ = timed(lambda: measure_plan(*args, eager=True, capture=True))
    _, lower_s, _ = timed(lambda: ReplayProgram(schedule, n_steps=steps))
    scalar = probe_us(lambda: replay(schedule, machine, n_steps=steps), 3)
    single = probe_us(lambda: replay_many(schedule, [ReplayVariant(machine=machine)],
                                          n_steps=steps), 3)
    lanes = [ReplayVariant(machine=machine, compute_scale=1.0 + 0.1 * i) for i in range(10)]
    many = probe_us(lambda: replay_many(schedule, lanes, n_steps=steps), 3)
    return {
        "perf.capture_ms": capture_s * 1e3,
        "perf.lower_ms": lower_s * 1e3,
        "perf.replay_scalar_us_per_step": scalar / steps,
        "perf.replay_single_us_per_step": single / steps,
        "perf.replay_lanes_us_per_lane_step": many / steps / len(lanes),
        "perf.replay_speedup_vs_live": live_step_s * 1e6 / (single / steps),
    }


# -- the planner, scalar and vectorized ---------------------------------------------

def search_section(t: Trace, seconds: float) -> None:
    spans = t.spans
    calls, oracle_s = [], []

    def wrap(oracle):
        calls.append(0)
        oracle_s.append(0.0)

        def counted(plan, micro):
            with spans.span("perf.oracle", len(calls) - 1, DRIVER):
                result, wall, _ = timed(lambda: oracle(plan, micro))
            calls[-1] += 1
            oracle_s[-1] += wall
            return result

        return counted

    wl.search_once()                                       # warm-up
    samples, candidates = [], []
    for i in harness.blocks(3, seconds):
        with spans.span("bench.unit", i, DRIVER):
            results, wall, _ = timed(lambda: wl.search_once(wrap))
        samples.append(wall)
        candidates.append(len(results))
        t.check(wl.podium(results) == wl.EXPECTED["sec62_search"]["podium"],
                "traced sec62_search: podium is not the pinned one")
    t.attempted += len(samples)
    t.unit_ms["sec62_search"] = median(samples) * 1e3
    t.same("perf.search_candidates", candidates)
    t.same("perf.search_oracle_calls", calls)

    model, machine = named_model(cfg.SEARCH_MODEL), frontier()
    plan = results[0].plan
    workload = Workload(cfg.SEARCH_CHANNELS, results[0].micro_batch)
    t.metrics.update({
        "perf.search_candidates": candidates[0],
        "perf.search_oracle_calls": calls[0],
        "perf.search_oracle_ms": median(oracle_s) * 1e3,
        "perf.search_rank_ms": median(w - o for w, o in zip(samples, oracle_s)) * 1e3,
        "perf.cost_estimate_us": probe_us(
            lambda: estimate_step(model, workload, plan, machine), 200),
    })


def sweep_section(t: Trace, seconds: float) -> None:
    budgets = cfg.fleet_budgets()
    wl.sweep_once(budgets)                                 # warm-up
    samples, shapes = [], []
    for i in harness.blocks(2, seconds):
        with t.spans.span("bench.unit", i, DRIVER):
            sweep, wall, _ = timed(lambda: wl.sweep_once(budgets))
        samples.append(wall)
        shapes.append((sweep.candidates, sweep.lanes, sweep.captured_worlds))
        t.problems.extend(wl.sweep_problems(sweep))
    t.attempted += len(samples)
    t.unit_ms["fleet_sweep"] = median(samples) * 1e3
    t.same("perf.sweep_candidates/lanes/captured_worlds", shapes)
    t.metrics.update({
        "perf.sweep_candidates": shapes[0][0],
        "perf.sweep_lanes": shapes[0][1],
        "perf.sweep_captured_worlds": shapes[0][2],
        "perf.sweep_us_per_candidate": median(samples) / shapes[0][0] * 1e6,
    })


# -- elastic ------------------------------------------------------------------

def elastic_section(t: Trace, seconds: float, baseline=None) -> None:
    """Shrink→grow cycles against the uninterrupted run."""
    seed = t.seed
    if baseline is None:
        baseline, base_wall, _ = wl.elastic_run(seed, None)
    else:
        baseline, base_wall = baseline
    samples, exact = [], []
    for i in harness.blocks(1, seconds):
        with t.spans.span("bench.unit", i, DRIVER):
            result, wall, _ = wl.elastic_run(seed, wl.churn_plan())
        samples.append(wall)
        t.problems.extend(wl.cycle_problems(result, baseline.losses))
        exact.append((result.total_steps_lost, result.total_reshard_bytes, result.attempts))
    t.attempted += len(samples)
    t.unit_ms["elastic_cycle"] = median(samples) * 1e3
    t.same("elastic.steps_lost/reshard_bytes/attempts", exact)
    pin = wl.EXPECTED["elastic_cycle"]
    t.observed.update(steps_lost=exact[0][0], reshard_bytes=exact[0][1], attempts=exact[0][2])
    t.check(list(exact[0]) == [pin["steps_lost"], pin["reshard_bytes"], pin["attempts"]],
            f"elastic_cycle: (steps lost, reshard bytes, attempts) {exact[0]} are not the pinned ones")
    t.metrics.update({
        "elastic.steps_lost": exact[0][0],
        "elastic.reshard_bytes": exact[0][1],
        "elastic.attempts": exact[0][2],
        "elastic.recovery_overhead_ms": (median(samples) - base_wall) * 1e3,
    })


def fleet_probe(seed: int) -> dict:
    trace = FleetTrace.poisson(100_000, mtbf_steps=1_500, return_after_steps=700, seed=seed)
    costs = FleetCosts.from_machine(frontier(), model_bytes=1.5e6,
                                    step_cost={w: 0.05 / w for w in range(1, 9)})
    sim = probe_us(lambda: simulate_fleet(trace, AlwaysShrink(), costs, 4, cadence=25), 3)
    return {"elastic.fleet_sim_ksteps_per_s": 100_000 / 1e3 / (sim / 1e6)}


def checkpoint_probes(t: Trace) -> dict:
    """Blocking save, async-save stall, load and both reshards, called
    directly; also where ``comm.pool`` is exercised (FSDP's flat gathers)."""
    seed = t.seed
    images, module_factory = wl.elastic_inputs(seed)
    writer = AsyncCheckpointWriter()

    def rank_fn(comm, root):
        model = FSDPModel(comm, None, module_factory())
        trainer = Trainer(model, TrainConfig(lr=3e-3, total_steps=8, warmup_steps=2),
                          params=model.shard_parameters())
        for i in range(3):
            trainer.step(images, wl.mask_rng(seed, i))
        blocking = timed(lambda: save_sharded(f"{root}/blocking", model, trainer.optimizer, 3))
        stall = timed(lambda: save_sharded(f"{root}/async", model, trainer.optimizer, 3,
                                           writer=writer))
        comm.barrier()
        load = timed(lambda: load_sharded(blocking[0], model, trainer.optimizer))
        pool = comm.pool
        return blocking[1], stall[1], load[1], pool.hits, pool.misses, str(blocking[0])

    with wl.work_dir("ckpt_probe_") as root:
        try:
            results, _ = run_spmd_world(rank_fn, cfg.ELASTIC_WORLD, root)
            writer.wait()
        finally:
            writer.close()
        step_dir = results[0][5]
        (down, moved_down), down_s, _ = timed(lambda: reshard(step_dir, cfg.ELASTIC_WORLD - 1))
        (_up, moved_up), up_s, _ = timed(lambda: reshard(down, cfg.ELASTIC_WORLD, f"{root}/regrown"))
        written = checkpoint_nbytes(step_dir)
    t.check(moved_down > 0 and moved_up > 0, "reshard moved no bytes")
    t.observed["ckpt_bytes_written"] = written
    t.check(written == wl.EXPECTED["elastic_cycle"]["ckpt_bytes_written"],
            f"elastic: checkpoint holds {written} bytes, not the pinned count")
    hits, misses = sum(r[3] for r in results), sum(r[4] for r in results)
    return {
        "elastic.save_blocking_ms": median(r[0] for r in results) * 1e3,
        "elastic.save_async_stall_ms": median(r[1] for r in results) * 1e3,
        "elastic.load_ms": median(r[2] for r in results) * 1e3,
        "elastic.reshard_ms": (down_s + up_s) * 1e3,
        "elastic.ckpt_bytes_written": written,
        "dist.pool_hit_ratio": hits / max(1, hits + misses),
    }


# -- the traced run -----------------------------------------------------------------

def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Untraced baseline of *workload*, then every section (the workload's
    own one long, the others at reference size), self-checks, trace file."""
    spawned = time.time()
    untraced = wl.BY_NAME[workload](seed)
    base = harness.measure(untraced, 0.25 * seconds, spawned)
    t = Trace(seed)
    t.problems.extend(base["problems"])
    own, ref = 0.35 * seconds, 0.0                         # ref: minimum counts only

    def budget(name: str) -> float:
        return own if name == workload else ref

    with t.log.stamping():
        serial_section(t, budget("train_serial"))
        comm_section(t, budget("comm_replay"))
        hybrid_section(t, budget("train_hybrid"), home=workload == "train_hybrid")
        with harness.one_core(wl.Sec62Search.one_core):
            search_section(t, budget("sec62_search"))
        sweep_section(t, budget("fleet_sweep"))
        with harness.one_core(wl.ElasticCycle.one_core):
            elastic_section(t, budget("elastic_cycle"), baseline=(
                (untraced.baseline, untraced.baseline_wall)
                if workload == "elastic_cycle" else None))

    # Probes call single public functions directly; they run unstamped so
    # the wrappers' own cost is not in their numbers.
    m = t.metrics
    m.update(op_probes(seed))
    m.update(dist_probes())
    m.update(replay_probes(*t.replay_inputs))
    with harness.one_core(wl.ElasticCycle.one_core):
        m.update(checkpoint_probes(t))
    m.update(fleet_probe(seed))
    m["bench.trace_overhead_share"] = t.unit_ms[workload] / base["metrics"]["unit_ms_p50"] - 1.0
    t.check(m["train.residual_share"] <= RESIDUAL_LIMIT,
            f"train.residual_share {m['train.residual_share']:.3f} > {RESIDUAL_LIMIT}")

    trace = t.spans.chrome_trace(workload)
    problems = validate_trace(trace)
    t.check(not problems, f"span trace invalid: {problems[:2]}")
    out_dir = cfg.WORK / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}.trace.json"
    path.write_text(json.dumps(trace))
    return {
        "correct": not t.problems,
        "attempted": t.attempted + base["attempted"],
        "failed": base["failed"],
        "problems": list(dict.fromkeys(t.problems))[:20],
        "metrics": m,
        "untraced_unit_ms_p50": base["metrics"]["unit_ms_p50"],
        "traced_unit_ms_p50": t.unit_ms,
        "spans": len(t.spans.rows),
        "trace_file": str(path.relative_to(cfg.ROOT)),
        "observed": t.observed,
    }
