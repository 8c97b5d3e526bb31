#!/usr/bin/env python
"""Export a Chrome trace and a per-link comm-volume report from a training run.

The observability walkthrough, end to end:

1. Train a small FSDP × DP hybrid world for a few steps on an **eager
   issue-queue** :class:`~repro.perf.VirtualClock` — FSDP gathers prefetch
   under forward compute, DP AllReduces dispatch during backward, exposure
   settles at the drain.
2. Lower the world's per-rank timelines to Chrome Trace Event JSON
   (:func:`repro.obs.export_trace`) — open the file at
   https://ui.perfetto.dev to see one track per rank: compute spans, the
   serial comm channel, flows tying each collective across ranks, and
   cumulative exposed/wire counters.
3. Print the per-link volume report: measured traffic per
   ``op × phase × link`` plus the exposed/hidden split the trace renders.

Run:  python examples/trace_export.py [--steps 3] [--out step.trace.json]
"""

import argparse
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.dist import average_gradients, run_spmd_world
from repro.nn import ViTEncoder
from repro.parallel import DeviceMesh, FSDPModel, shard_batch
from repro.perf import OVERLAP_PHASES, CostModel, VirtualClock, frontier
from repro.obs import export_trace, validate_trace
from repro.tensor import AdamW, Tensor

DIM, DEPTH, HEADS, TOKENS = 16, 2, 4, 5


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=3)
    ap.add_argument("--fsdp", type=int, default=2)
    ap.add_argument("--dp", type=int, default=2)
    ap.add_argument("--batch", type=int, default=4, help="global batch")
    ap.add_argument("--out", default=None, help="trace JSON path (default: temp dir)")
    return ap.parse_args()


def main() -> None:
    args = parse_args()
    world_size = args.fsdp * args.dp
    # FSDP groups fit inside a simulated node; DP crosses nodes, so the
    # report shows both link classes.
    machine = replace(frontier(), gpus_per_node=args.fsdp)
    cost = CostModel(machine)
    x = np.random.default_rng(7).standard_normal(
        (args.batch, TOKENS, DIM)
    ).astype(np.float32)
    block_flops = 2 * (args.batch // args.dp) * TOKENS * 12 * DIM * DIM
    # Compute-rich regime (scaled-up block cost) so the trace shows real
    # overlap: in-flight windows outliving their dispatch point.
    unit_seconds = 1e4 * cost.compute_seconds(block_flops)

    def train(comm):
        mesh = DeviceMesh(comm, tp=1, fsdp=args.fsdp, dp=args.dp)
        enc = ViTEncoder(DIM, DEPTH, HEADS, np.random.default_rng(0))
        model = FSDPModel(
            comm, mesh.fsdp_group, enc,
            units=[b for b in enc.blocks], unit_seconds=unit_seconds,
        )
        opt = AdamW(model.shard_parameters(), lr=1e-3)
        local = shard_batch(x, comm, mesh.dp_group)
        for _ in range(args.steps):
            loss = (model(Tensor(local)) ** 2).mean()
            loss.backward()
            comm.charge_compute(2 * DEPTH * unit_seconds, phase="backward")
            with comm.phase_scope("dp_sync"):
                average_gradients(comm, model.shard_parameters(), group=mesh.dp_group)
            opt.step()
            for p in model.shard_parameters():
                p.grad = None
        return comm.now()

    # -- 1. the eager training run ----------------------------------------
    clock = VirtualClock(machine, eager_phases=OVERLAP_PHASES)
    _, world = run_spmd_world(train, world_size, clock=clock)
    print(f"world={world_size} (fsdp={args.fsdp} × dp={args.dp}), "
          f"{args.steps} steps, virtual makespan {clock.elapsed() * 1e6:.1f} µs, "
          f"exposed comm {clock.exposed_seconds(rank=0) * 1e6:.1f} µs on rank 0")

    # -- 2. lower the timelines to a Chrome trace -------------------------
    out = Path(args.out) if args.out else Path(tempfile.mkdtemp()) / "step.trace.json"
    trace = export_trace(world, out, label=f"fsdp{args.fsdp}-dp{args.dp} training")
    problems = validate_trace(trace)
    if problems:
        raise SystemExit("invalid trace: " + "; ".join(problems))
    print(f"\nwrote {len(trace['traceEvents'])} trace events -> {out}")
    print("open it at https://ui.perfetto.dev (one process per rank; flows tie "
          "each collective across ranks)")

    # -- 3. the per-link volume report ------------------------------------
    # Simulated volumes straight off the clock's books: wire bytes and α–β
    # busy seconds per (op, phase, link) — exactly what the counter tracks
    # in the exported trace accumulate.
    print("\nrank-0 comm volume (simulated books):")
    print(f"  {'op':<16}{'phase':<14}{'link':<8}{'n':>4}{'wire bytes':>12}{'busy µs':>10}")
    for (op, phase, intra), (n, wire, busy) in sorted(clock.comm_volumes(rank=0).items()):
        link = "intra" if intra else "inter"
        print(f"  {op:<16}{phase:<14}{link:<8}{n:>4}{wire:>12,}{busy * 1e6:>10.2f}")
    measured_wire = world.traffic.wire_bytes(rank=0)
    simulated_wire = sum(w for _, w, _ in clock.comm_volumes(rank=0).values())
    print(f"  measured traffic-log total: {measured_wire:,} B "
          f"(simulated books: {simulated_wire:,} B)")
    if measured_wire != simulated_wire:
        raise SystemExit("wire books disagree: traffic log vs clock intervals")
    print("OK: trace valid, wire books agree")


if __name__ == "__main__":
    main()
