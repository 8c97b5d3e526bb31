#!/usr/bin/env python
"""Derive comm/compute overlap fractions from a virtual-clock training run.

The analytic model's ``dp_overlap=0.8`` / ``fsdp_overlap=0.5`` used to be
assumptions.  This example shows the full derived workflow:

1. Train a real FSDP × DP hybrid world under ``run_spmd(...,
   clock=VirtualClock(machine))`` — every collective advances deterministic
   per-rank simulated timelines; FSDP charges per-unit forward compute and
   the loop charges backward before its ``dp_sync`` gradient AllReduce.
2. Derive the overlap fractions from those timelines
   (:func:`repro.perf.derive_overlaps`) instead of assuming them.
3. Feed them back into :func:`repro.perf.estimate_step_comm` and compare
   against the assumed constants for the paper's 7B hybrid plan.

The clock itself is calibrated by ``tests/test_virtual_clock.py``
(``TestWireParity``: measured wire bytes and virtual seconds equal the
shared CostModel exactly for every ring collective).

Run:  python examples/overlap_calibration.py [--steps 3]
"""

import argparse
from dataclasses import replace

import numpy as np

from repro.dist import average_gradients, run_spmd_world
from repro.nn import ViTEncoder
from repro.parallel import DeviceMesh, FSDPModel, shard_batch
from repro.perf import (
    CostModel,
    ParallelPlan,
    VirtualClock,
    Workload,
    derive_overlaps,
    estimate_step_comm,
    frontier,
    named_model,
)
from repro.tensor import AdamW, Tensor

DIM, DEPTH, HEADS, TOKENS = 16, 2, 4, 5


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=3)
    ap.add_argument("--fsdp", type=int, default=2)
    ap.add_argument("--dp", type=int, default=2)
    ap.add_argument("--batch", type=int, default=4, help="global batch")
    return ap.parse_args()


def main() -> None:
    args = parse_args()
    world_size = args.fsdp * args.dp
    # FSDP groups fit inside a simulated node; DP crosses nodes.
    machine = replace(frontier(), gpus_per_node=args.fsdp)
    cost = CostModel(machine)
    x = np.random.default_rng(7).standard_normal(
        (args.batch, TOKENS, DIM)
    ).astype(np.float32)
    # GEMM-dominated per-block forward cost: B·N·12·D² MACs, 2 FLOPs each.
    block_flops = 2 * (args.batch // args.dp) * TOKENS * 12 * DIM * DIM
    base_unit_seconds = cost.compute_seconds(block_flops)

    def train(comm, unit_seconds):
        mesh = DeviceMesh(comm, tp=1, fsdp=args.fsdp, dp=args.dp)
        enc = ViTEncoder(DIM, DEPTH, HEADS, np.random.default_rng(0))
        model = FSDPModel(
            comm,
            mesh.fsdp_group,
            enc,
            units=[b for b in enc.blocks],
            unit_seconds=unit_seconds,
        )
        opt = AdamW(model.shard_parameters(), lr=1e-3)
        local = shard_batch(x, comm, mesh.dp_group)
        for _ in range(args.steps):
            loss = (model(Tensor(local)) ** 2).mean()
            loss.backward()
            # Backward compute ≈ 2× forward (the wrappers' convention).
            comm.charge_compute(2 * DEPTH * unit_seconds, phase="backward")
            with comm.phase_scope("dp_sync"):
                average_gradients(comm, model.shard_parameters(), group=mesh.dp_group)
            opt.step()
            for p in model.shard_parameters():
                p.grad = None
        return comm.now()

    clock = VirtualClock(machine)
    results, world = run_spmd_world(train, world_size, base_unit_seconds, clock=clock)
    print(f"world={world_size} (fsdp={args.fsdp} × dp={args.dp}), "
          f"{args.steps} steps, virtual makespan {clock.elapsed() * 1e6:.1f} µs")
    assert all(abs(t - results[0]) < 1e-12 for t in results), "timelines must agree"

    # -- 2. derive the overlap fractions from the rank timelines ----------
    # The toy model is latency-bound (compute ≪ comm), so little can hide;
    # a compute-rich model (block compute scaled up, same traffic) hides
    # everything.  Both fractions are *derived*, not assumed.
    derived = derive_overlaps(world)
    _, rich_world = run_spmd_world(
        train, world_size, 1e4 * base_unit_seconds, clock=VirtualClock(machine)
    )
    rich = derive_overlaps(rich_world)
    print("\nderived overlap fractions (assumed: dp 0.80, fsdp 0.50):")
    for name, rep, rich_rep in (("dp", derived.dp, rich.dp), ("fsdp", derived.fsdp, rich.fsdp)):
        print(f"  {name:<5} comm {rep.comm_seconds * 1e6:8.2f} µs  "
              f"hideable compute {rep.compute_seconds * 1e6:8.2f} µs  "
              f"→ overlap {rep.overlap:.2f} (compute-rich regime: {rich_rep.overlap:.2f})")

    # -- 2b. the schedule-accurate (issue-queue) derivation ---------------
    # The fractions above are the eager *bound* min(comm, compute)/comm.
    # Re-running the same program on an issue-queue clock actually
    # simulates the overlapped schedule — DP AllReduces dispatched into
    # per-rank channels, hidden under whatever compute follows, exposure
    # settled at the drain — and the derivation switches to measured
    # per-bucket exposure.
    from repro.perf import OVERLAP_PHASES, derive_bucket_exposures

    eager_clock = VirtualClock(machine, eager_phases=OVERLAP_PHASES)
    _, eager_world = run_spmd_world(
        train, world_size, 1e4 * base_unit_seconds, clock=eager_clock
    )
    measured = derive_overlaps(eager_world)
    print(f"\nissue-queue run: dp overlap {measured.dp_overlap:.2f} "
          f"(source: {measured.dp.source}), makespan "
          f"{eager_clock.elapsed() * 1e6:.1f} µs")
    for b in derive_bucket_exposures(eager_world, "dp_sync")[:4]:
        print(f"  dp bucket {b.index}: cost {b.comm_seconds * 1e6:6.2f} µs, "
              f"exposed {b.exposed_seconds * 1e6:6.2f} µs "
              f"→ hidden {b.hidden_fraction:.2f}")

    # -- 3. feed them into the analytic model -----------------------------
    model7b = named_model("7B")
    plan = ParallelPlan("dchag", tp=8, dchag_kind="linear", fsdp=2, dp=4)
    workload = Workload(500, 8)
    assumed = estimate_step_comm(model7b, workload, plan, frontier())
    fitted = estimate_step_comm(model7b, workload, plan, frontier(), overlaps=derived)
    print(f"\n7B {plan.label} step comm, assumed overlaps: "
          f"{assumed.total * 1e3:.2f} ms (fsdp {assumed.fsdp_time * 1e3:.2f}, "
          f"dp {assumed.dp_time * 1e3:.2f})")
    print(f"7B {plan.label} step comm, derived overlaps: "
          f"{fitted.total * 1e3:.2f} ms (fsdp {fitted.fsdp_time * 1e3:.2f}, "
          f"dp {fitted.dp_time * 1e3:.2f})")


if __name__ == "__main__":
    main()
