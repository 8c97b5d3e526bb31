"""Figure 15 (measured) — hybrid tp × fsdp × dp combos through real worlds.

The analytic ``bench_fig15_hybrid.py`` prices the paper's 7B/16-GCD combos
with the α–β model alone.  This measured counterpart sweeps the same *kind*
of factorizations — every hybrid of D-CHAG/TP, FSDP and DP over 8 simulated
ranks — through **real** :func:`repro.dist.run_spmd` worlds: each rank
replays the plan's exact collective schedule on its
:class:`~repro.parallel.DeviceMesh` groups under a
:class:`~repro.perf.VirtualClock`, and the traffic log's measured wire bytes
are compared byte-for-byte against :func:`~repro.perf.estimate_step_comm` —
the analytic/measured contract ``tests/test_virtual_clock.py`` enforces in CI.

A scaled-down model keeps the 8-rank worlds fast; the *claims* are
scale-free: exact wire parity per axis, virtual comm time equal to the
analytic un-overlapped prediction, and D-CHAG moving far fewer bytes than
TP-everywhere or distributed tokenization.
"""

from dataclasses import replace

from figutils import print_table, standalone_main
from repro.perf import ModelConfig, ParallelPlan, Workload, frontier
from repro.perf.calibrate import measure_plan

# 2 simulated nodes of 4 GPUs: TP≤4 stays on the fast fabric, DP/FSDP that
# multiply past 4 ranks pay the inter-node link — the fig-15 placement story.
MACHINE = replace(frontier(), gpus_per_node=4)
# Tiny stand-in for the 7B model: dims chosen so every schedule payload
# divides every group size (exact padded-collective parity).
MODEL = ModelConfig("tiny-7B", dim=32, depth=2, heads=4, patch=4, image_hw=(16, 16))
CHANNELS = 16
BATCH = 2
GPUS = 8

COMBOS = (
    ParallelPlan("tp", tp=8),                                         # baseline
    ParallelPlan("tp", tp=4, dp=2),
    ParallelPlan("tp", tp=4, fsdp=2),
    ParallelPlan("dist_tok", tp=4, dp=2),
    ParallelPlan("dchag", tp=4, dchag_kind="linear", dp=2),
    ParallelPlan("dchag", tp=4, dchag_kind="linear", fsdp=2),
    ParallelPlan("dchag", tp=2, dchag_kind="linear", fsdp=2, dp=2),
)

WORKLOAD = Workload(CHANNELS, BATCH)


def compute_fig15_measured():
    rows = []
    for plan in COMBOS:
        assert plan.total_gpus == GPUS
        m = measure_plan(MODEL, WORKLOAD, plan, MACHINE)
        rows.append(
            {
                "plan": plan,
                "label": plan.label,
                "measured": m,
                "total_wire": sum(m.wire.values()),
                "comm_us": m.comm_seconds * 1e6,
                "step_us": m.step_seconds * 1e6,
            }
        )
    return rows


def test_fig15_measured_wire_matches_cost_model():
    """Per-axis measured wire bytes equal the CostModel prediction exactly
    for every combo — the acceptance contract of the cost engine."""
    for r in compute_fig15_measured():
        m = r["measured"]
        assert m.wire_matches_predicted(), (
            r["label"], m.wire, m.predicted.wire_by_axis()
        )


def test_fig15_measured_time_matches_analytic():
    """Virtual collective seconds equal the analytic un-overlapped total."""
    for r in compute_fig15_measured():
        m = r["measured"]
        assert abs(m.comm_seconds - m.predicted.total) <= 1e-9 + 1e-6 * m.predicted.total, r["label"]


def test_fig15_measured_dchag_and_placement_claims():
    """The D-CHAG gather is a tiny fraction of dist-tok's; keeping TP inside
    a node (every tp≤4 combo) beats the node-spanning TP8 baseline on
    measured comm time, and the deepest hybrid is the cheapest of all —
    §6.3's placement story reproduced from real rank timelines."""
    rows = {r["label"]: r for r in compute_fig15_measured()}
    dchag = rows["D-CHAG-L-Tree0x4+DP2"]["measured"]
    dist_tok = rows["DistTok-TP4+DP2"]["measured"]
    # dist-tok gathers C/tp channels and pays the backward ReduceScatter;
    # D-CHAG gathers one channel with no backward — C/tp·(ratio of passes)
    # cheaper (8× at C=16, tp=4).
    assert dchag.wire["gather"] * (CHANNELS // 4) <= dist_tok.wire["gather"]
    baseline_comm = rows["TP8"]["measured"].comm_seconds
    for label, r in rows.items():
        if label != "TP8":
            assert r["measured"].comm_seconds < baseline_comm, label
    cheapest = min(rows.values(), key=lambda r: r["measured"].comm_seconds)
    assert cheapest["label"] == "D-CHAG-L-Tree0x2+FSDP2+DP2"


def test_fig15_measured_overlaps_are_fractions():
    for r in compute_fig15_measured():
        ov = r["measured"].overlaps
        assert 0.0 <= ov.dp_overlap <= 1.0
        assert 0.0 <= ov.fsdp_overlap <= 1.0


def test_fig15_measured_eager_replay_is_schedule_accurate():
    """Re-running the hybrid combos on the issue-queue clock keeps exact
    wire parity, never exceeds the blocking makespan, and upgrades the
    overlap derivation from the min(comm, compute) bound to per-bucket
    measured exposure."""
    for plan in (COMBOS[2], COMBOS[5], COMBOS[6]):  # the fsdp/dp hybrids
        blocking = measure_plan(MODEL, WORKLOAD, plan, MACHINE, compute_scale=50.0)
        eager = measure_plan(
            MODEL, WORKLOAD, plan, MACHINE, eager=True, compute_scale=50.0
        )
        assert eager.wire_matches_predicted(), plan.label
        assert eager.step_seconds <= blocking.step_seconds + 1e-15, plan.label
        assert eager.overlaps.fsdp.source == "measured"
        assert eager.overlaps.buckets, plan.label
        for b in eager.overlaps.buckets:
            assert 0.0 <= b.hidden_fraction <= 1.0


def test_fig15_measured_print_and_benchmark(benchmark):
    rows = benchmark(compute_fig15_measured)
    table = [
        [
            r["label"],
            r["total_wire"],
            "yes" if r["measured"].wire_matches_predicted() else "NO",
            f"{r['comm_us']:.1f}",
            f"{r['step_us']:.1f}",
            f"{r['measured'].overlaps.dp_overlap:.2f}",
            f"{r['measured'].overlaps.fsdp_overlap:.2f}",
        ]
        for r in rows
    ]
    print_table(
        "Fig. 15 (measured) — hybrid combos on 8 simulated GCDs (2 nodes)",
        ["combination", "wire B/rank", "=model", "comm µs", "step µs", "dp ov", "fsdp ov"],
        table,
        note="wire bytes from real run_spmd worlds; '=model' checks exact "
        "parity with estimate_step_comm; overlaps derived from rank timelines",
    )


def _body():
    test_fig15_measured_wire_matches_cost_model()
    test_fig15_measured_time_matches_analytic()
    test_fig15_measured_dchag_and_placement_claims()
    rows = compute_fig15_measured()
    table = [
        [r["label"], r["total_wire"], f"{r['comm_us']:.1f}", f"{r['step_us']:.1f}"]
        for r in rows
    ]
    print_table(
        "Fig. 15 (measured) — hybrid combos on 8 simulated GCDs",
        ["combination", "wire B/rank", "comm µs", "step µs"],
        table,
    )


if __name__ == "__main__":
    raise SystemExit(
        standalone_main(
            __doc__,
            _body,
            "measured hybrid traffic matches the CostModel exactly",
            "measured/analytic divergence",
        )
    )
