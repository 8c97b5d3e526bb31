"""Tests for the configuration autotuner (the §6.2 search, automated)."""

import dataclasses
import itertools

import pytest

from repro.perf import (
    CostModel,
    estimate_step,
    estimate_step_comm,
    frontier,
    global_batch_throughput,
    named_model,
    search_configurations,
    simulated_overlaps,
    sweep_replay,
    throughput,
)
from repro.perf.comm_model import (
    CommBreakdown,
    axis_group_sizes,
    axis_intra_node,
    step_comm_schedule,
)
from repro.perf.flops import TRAIN_MULT, estimate_flops
from repro.perf.memory_model import estimate_memory
from repro.perf.modelcfg import ModelConfig
from repro.perf.overlap import DerivedOverlaps, OverlapReport
from repro.perf.plan import ParallelPlan, Precision, Workload
from repro.perf.throughput import StepEstimate, batch_efficiency

M = frontier()


class TestSearch:
    @pytest.fixture(scope="class")
    def results(self):
        return search_configurations(named_model("7B"), 500, 1024, M, 4096)

    def test_returns_feasible_plans_sorted(self, results):
        assert results
        tflops = [t.total_tflops for t in results]
        assert tflops == sorted(tflops, reverse=True)
        for t in results:
            assert t.plan.total_gpus == 1024
            assert t.micro_batch > 0

    def test_tp_stays_within_a_node(self, results):
        assert all(t.plan.tp <= M.gpus_per_node for t in results)

    def test_winner_is_dchag(self, results):
        """The paper's conclusion falls out of the search: the best use of
        1,024 GCDs for 7B/500ch is D-CHAG within a node + DP across."""
        best = results[0]
        assert best.plan.strategy == "dchag"
        assert best.plan.dp > 1

    def test_dchag_beats_every_tp_only_plan(self, results):
        best = results[0]
        tp_only = [t for t in results if t.plan.strategy == "tp"]
        assert tp_only, "search must include TP-only plans"
        assert best.total_tflops > 1.5 * tp_only[0].total_tflops

    def test_respects_channel_divisibility(self):
        # 500 channels: D-CHAG tp must divide 500 → tp ∈ {1, 2, 4} of the
        # pow2 ladder (500 = 4 · 125).
        results = search_configurations(named_model("7B"), 500, 64, M, 256)
        for t in results:
            if t.plan.strategy == "dchag":
                assert 500 % t.plan.tp == 0

    def test_global_batch_divisibility(self, results):
        for t in results:
            assert 4096 % t.plan.dp == 0


class TestBestConfiguration:
    def test_matches_search_head(self):
        results = search_configurations(named_model("7B"), 500, 1024, M, 4096)
        best = max(results, key=lambda t: t.total_tflops)
        assert best.plan == results[0].plan

    def test_infeasible_raises(self):
        with pytest.raises(IndexError):
            # 26B on a single GPU cannot fit under any strategy: no best plan.
            search_configurations(named_model("26B"), 64, 1, M, 8)[0]

    def test_dchag_extends_feasibility_to_tiny_budgets(self):
        """26B with 1024 channels on just one node is only feasible via
        D-CHAG (Fig. 14's message, found by the search)."""
        results = search_configurations(named_model("26B"), 1024, 8, M, 64)
        assert results and all(t.plan.strategy == "dchag" for t in results)

    def test_small_budget_still_works(self):
        best = search_configurations(named_model("1.7B"), 512, 8, M, 32)[0]
        assert best.plan.total_gpus == 8
        assert best.total_tflops > 0


def _const_overlaps(dp: float, fsdp: float) -> DerivedOverlaps:
    return DerivedOverlaps(
        dp=OverlapReport("dp_sync", "backward", 1.0, dp, dp),
        fsdp=OverlapReport("fsdp_gather", "forward", 1.0, fsdp, fsdp),
    )


class TestOverlapThreading:
    """overlaps= flows through global_batch_throughput into the ranking."""

    PLAN = ParallelPlan("dchag", tp=4, dchag_kind="linear", fsdp=2, dp=128)

    def test_more_overlap_means_more_throughput(self):
        lo = global_batch_throughput(
            named_model("7B"), 500, self.PLAN, M, 4096, overlaps=_const_overlaps(0.0, 0.0)
        )
        hi = global_batch_throughput(
            named_model("7B"), 500, self.PLAN, M, 4096, overlaps=_const_overlaps(1.0, 1.0)
        )
        assumed = global_batch_throughput(named_model("7B"), 500, self.PLAN, M, 4096)
        assert lo < assumed < hi

    def test_fixed_overlaps_recorded_on_every_plan(self):
        ov = _const_overlaps(0.9, 0.9)
        results = search_configurations(named_model("7B"), 500, 64, M, 256, overlaps=ov)
        assert results and all(t.overlaps is ov for t in results)

    def test_callable_overlaps_consulted_per_plan(self):
        seen: list[str] = []

        def oracle(plan, micro):
            seen.append(plan.label)
            return None  # fall back to the constants for every plan

        with_oracle = search_configurations(
            named_model("7B"), 500, 64, M, 256, overlaps=oracle
        )
        plain = search_configurations(named_model("7B"), 500, 64, M, 256)
        assert len(seen) == len(with_oracle)
        assert [t.plan.label for t in with_oracle] == [t.plan.label for t in plain]

    def test_simulated_oracle_skips_planless_axes(self):
        oracle = simulated_overlaps(M, named_model("7B"), 500)
        assert oracle(ParallelPlan("tp", tp=8), 4) is None


class TestGoldenRanking:
    """Pin the §6.2 search (7B / 500 ch / 1,024 GCDs / global batch 4,096)
    under the paper constants *and* under per-plan derived overlaps.

    The documented divergence: the paper's podium survives measurement —
    D-CHAG with early DP still wins — but positions 5/6 swap: under derived
    fractions TP4+DP256 overtakes D-CHAG-L-Tree0x1+FSDP2+DP512.  The
    FSDP-carrying plan's *measured* DP overlap collapses to ~0.14 (its FSDP
    gradient ReduceScatter occupies the same backward window and serial
    comm channel, so the DP buckets drain almost fully exposed) while the
    pure-DP plan's buckets hide 0.75 — close to the assumed 0.8.  The FSDP
    prefetch being fully hidden (measured 1.0 vs the assumed 0.5) does not
    make up the difference.  A cost-model edit that silently reorders
    either ranking fails here loudly.
    """

    TOP3 = [
        "D-CHAG-L-Tree0x4+DP256",
        "D-CHAG-L-Tree0x2+DP512",
        "D-CHAG-L-Tree0x4+FSDP2+DP128",
    ]

    @pytest.fixture(scope="class")
    def constant_ranking(self):
        return [
            t.plan.label
            for t in search_configurations(named_model("7B"), 500, 1024, M, 4096)
        ]

    @pytest.fixture(scope="class")
    def derived_ranking(self):
        oracle = simulated_overlaps(M, named_model("7B"), 500)
        return [
            t.plan.label
            for t in search_configurations(
                named_model("7B"), 500, 1024, M, 4096, overlaps=oracle
            )
        ]

    def test_top3_under_paper_constants(self, constant_ranking):
        assert constant_ranking[:3] == self.TOP3

    def test_top3_under_derived_overlaps(self, derived_ranking):
        """The paper's conclusion is robust to measured overlaps."""
        assert derived_ranking[:3] == self.TOP3

    def test_rankings_differ_where_documented(self, constant_ranking, derived_ranking):
        assert constant_ranking != derived_ranking
        assert constant_ranking[5:7] == [
            "D-CHAG-L-Tree0x1+FSDP2+DP512",
            "TP4+DP256",
        ]
        assert derived_ranking[5:7] == [
            "TP4+DP256",
            "D-CHAG-L-Tree0x1+FSDP2+DP512",
        ]

    def test_derived_ranking_is_deterministic(self, derived_ranking):
        oracle = simulated_overlaps(M, named_model("7B"), 500)
        again = [
            t.plan.label
            for t in search_configurations(
                named_model("7B"), 500, 1024, M, 4096, overlaps=oracle
            )
        ]
        assert again == derived_ranking


class TestPrunedSearch:
    """Bound-based pruning (`prune_top_k`) must return the exhaustive
    search's top-k exactly while consulting the per-plan oracle for only a
    handful of candidates (the §6.2 sweep stops paying a full eager world
    per mid-table plan)."""

    ARGS = (named_model("7B"), 500, 1024, M, 4096)

    @pytest.fixture(scope="class")
    def exhaustive(self):
        oracle = simulated_overlaps(M, named_model("7B"), 500)
        return search_configurations(*self.ARGS, overlaps=oracle)

    @pytest.fixture(scope="class")
    def pruned(self):
        oracle = simulated_overlaps(M, named_model("7B"), 500)
        return search_configurations(*self.ARGS, overlaps=oracle, prune_top_k=3)

    def test_top_k_identical_to_exhaustive(self, exhaustive, pruned):
        assert [(t.plan.label, t.micro_batch, t.total_tflops) for t in pruned[:3]] == [
            (t.plan.label, t.micro_batch, t.total_tflops) for t in exhaustive[:3]
        ]

    def test_same_candidate_set(self, exhaustive, pruned):
        assert sorted(t.plan.label for t in pruned) == sorted(
            t.plan.label for t in exhaustive
        )

    def test_only_a_handful_of_candidates_simulated(self, pruned):
        simulated = [t for t in pruned if t.overlaps is not None]
        assert simulated, "the contenders must still carry derived overlaps"
        assert len(simulated) < len(pruned) // 4, (
            "pruning must skip the oracle for the mid-table bulk "
            f"(simulated {len(simulated)} of {len(pruned)})"
        )

    def test_oracle_consulted_only_for_contenders(self):
        calls: list[str] = []
        real = simulated_overlaps(M, named_model("7B"), 500)

        def counting_oracle(plan, micro):
            calls.append(plan.label)
            return real(plan, micro)

        results = search_configurations(
            *self.ARGS, overlaps=counting_oracle, prune_top_k=3
        )
        assert len(calls) < len(results) // 2, "mid-table plans must skip the oracle"
        top3 = {t.plan.label for t in results[:3]}
        assert top3 <= set(calls), "every podium plan must have been simulated"

    def test_prune_ignored_for_non_callable_overlaps(self):
        plain = search_configurations(*self.ARGS)
        pruned = search_configurations(*self.ARGS, prune_top_k=3)
        assert [(t.plan.label, t.total_tflops) for t in plain] == [
            (t.plan.label, t.total_tflops) for t in pruned
        ]

    def test_winner_matches_best_configuration(self, pruned):
        best = search_configurations(*self.ARGS)[0]
        assert pruned[0].plan == best.plan


class TestSec62Podium:
    """The pruned §6.2 search under the simulated oracle, pinned to the
    exact floats ``benchmarks/e2e`` checks (``expected.json``), plus the
    number of oracle consultations pruning leaves."""

    PODIUM = [
        ("D-CHAG-L-Tree0x4+DP256", 79903.00400306087),
        ("D-CHAG-L-Tree0x2+DP512", 52479.890872424614),
        ("D-CHAG-L-Tree0x4+FSDP2+DP128", 48583.872621544935),
    ]

    def test_pruned_podium_floats_and_oracle_calls(self):
        calls: list[str] = []
        real = simulated_overlaps(M, named_model("7B"), 500)

        def counting_oracle(plan, micro):
            calls.append(plan.label)
            return real(plan, micro)

        results = search_configurations(
            named_model("7B"), 500, 1024, M, 4096,
            overlaps=counting_oracle, prune_top_k=3,
        )
        assert [(t.plan.label, t.total_tflops) for t in results[:3]] == self.PODIUM
        assert len(calls) == 4


class TestSequenceParallelAxis:
    """The sp axis: off by default (the golden podium is untouched),
    load-bearing at long sequence length (pinned with
    ``benchmarks/bench_longseq_sp_search.py``)."""

    LONGSEQ = named_model("7B").with_image(768, 1536)  # N = 4,608 tokens

    @pytest.fixture(scope="class")
    def longseq_ranking(self):
        return search_configurations(self.LONGSEQ, 500, 1024, M, 4096, max_sp=8)

    def test_sp_stays_off_by_default(self):
        results = search_configurations(named_model("7B"), 500, 64, M, 256)
        assert all(t.plan.sp == 1 for t in results)

    def test_longseq_winner_uses_sp(self, longseq_ranking):
        best = longseq_ranking[0]
        assert best.plan.sp > 1
        assert best.plan.label == "D-CHAG-L-Tree0x4+SP2+DP128"  # pinned

    def test_longseq_sp_beats_best_sp1_plan(self, longseq_ranking):
        best_sp1 = next(t for t in longseq_ranking if t.plan.sp == 1)
        assert longseq_ranking[0].total_tflops > best_sp1.total_tflops
        # ... and the sp=1 candidates rank exactly as a max_sp=1 sweep.
        sp1_only = search_configurations(self.LONGSEQ, 500, 1024, M, 4096)
        assert best_sp1.plan.label == sp1_only[0].plan.label

    def test_sp_candidates_respect_divisibility(self, longseq_ranking):
        for t in longseq_ranking:
            if t.plan.sp > 1:
                assert self.LONGSEQ.tokens % t.plan.sp == 0
                assert self.LONGSEQ.heads % (t.plan.tp * t.plan.sp) == 0

    def test_plan_axes_and_label(self):
        p = ParallelPlan("tp", tp=2, sp=4, fsdp=2, dp=2)
        assert p.gpus_per_replica == 16
        assert p.total_gpus == 32
        assert p.label == "TP2+SP4+FSDP2+DP2"
        assert "SP" not in ParallelPlan("tp", tp=2, fsdp=1, dp=1).label

    def test_serial_strategy_rejects_sp(self):
        with pytest.raises(ValueError, match="serial strategy requires sp=1"):
            ParallelPlan("serial", sp=2)


# -- the pre-split pricing path, kept as the reference --------------------


def reference_estimate_step_comm(
    model, workload, plan, machine, precision=Precision(),
    dp_overlap=0.8, fsdp_overlap=0.5, overlaps=None,
):
    """The step's comm priced and exposed in one pass, as it was before
    pricing and exposure were split."""
    if overlaps is not None:
        dp_overlap = overlaps.dp_overlap
        fsdp_overlap = overlaps.fsdp_overlap
    cost = CostModel(machine)
    sizes = axis_group_sizes(plan)
    intra = axis_intra_node(plan, machine)
    times = dict.fromkeys(sizes, 0.0)
    wires = dict.fromkeys(sizes, 0)
    for ev in step_comm_schedule(model, workload, plan, precision):
        n = sizes[ev.axis]
        times[ev.axis] += ev.count * cost.collective_seconds(
            ev.op, ev.payload_bytes, n, intra[ev.axis]
        )
        if n > 1:
            wires[ev.axis] += ev.count * cost.wire_bytes(ev.op, ev.payload_bytes, n)
    return CommBreakdown(
        tp_time=times["tp"],
        gather_time=times["gather"],
        sp_time=times["sp"] + times["sp_gather"] + times["sp_scatter"],
        fsdp_time=times["fsdp"] * (1.0 - fsdp_overlap),
        dp_time=times["dp"] * (1.0 - dp_overlap),
        tp_wire=wires["tp"],
        gather_wire=wires["gather"],
        sp_wire=wires["sp"],
        sp_gather_wire=wires["sp_gather"],
        sp_scatter_wire=wires["sp_scatter"],
        fsdp_wire=wires["fsdp"],
        dp_wire=wires["dp"],
    )


def reference_estimate_step(model, workload, plan, machine, precision=Precision(), overlaps=None):
    memory = estimate_memory(model, workload, plan, precision)
    own = TRAIN_MULT * estimate_flops(model, workload, plan).total
    eff = batch_efficiency(machine, workload.batch)
    compute = own / (machine.peak_flops * eff)
    comm = reference_estimate_step_comm(
        model, workload, plan, machine, precision, overlaps=overlaps
    )
    useful = TRAIN_MULT * estimate_flops(model, workload, ParallelPlan("serial")).total
    return StepEstimate(
        plan=plan,
        micro_batch=workload.batch,
        memory=memory,
        compute_seconds=float(compute),
        comm=comm,
        useful_flops=useful,
        fits=memory.fits(machine),
    )


def reference_accumulated_tflops(est, per_replica):
    if not est.fits:
        return 0.0
    n_micro = -(-per_replica // est.micro_batch)
    micro_time = (
        est.compute_seconds + est.comm.tp_time + est.comm.gather_time
        + est.comm.sp_time + est.comm.fsdp_time
    )
    step_time = n_micro * micro_time + est.comm.dp_time
    return est.useful_flops * n_micro * est.plan.dp / step_time / 1e12


def _fleet_bench():
    """``benchmarks/bench_fleet_sweep.py`` as a module (its fleet grid)."""
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "bench_fleet_sweep",
        Path(__file__).resolve().parent.parent / "benchmarks" / "bench_fleet_sweep.py",
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _hex_fields(obj):
    """Every field, floats as ``float.hex`` (nested dataclasses flattened)."""
    if isinstance(obj, float):
        return obj.hex()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, ParallelPlan):
        return {f.name: _hex_fields(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


class TestPricedOnce:
    """Pricing is split from exposure: a step is priced once with nothing
    hidden and the dp/fsdp fractions are applied last.  (a) That split is
    bitwise equal to the one-pass reference above on every field; (b) the
    §6.2 search and the fleet sweep price each distinct (plan, micro-batch)
    once per call."""

    MODELS = (
        named_model("7B"),
        ModelConfig("priced", dim=256, depth=6, heads=8, patch=4, image_hw=(32, 32)),
    )
    OVERLAPS = _const_overlaps(0.37, 0.61)

    @staticmethod
    def _plans():
        strategies = [("tp", "linear", 0), ("dist_tok", "linear", 0)] + [
            ("dchag", kind, fanout) for kind in ("linear", "cross") for fanout in (0, 2)
        ]
        for tp_shard_final, sp, fsdp, dp in itertools.product(
            (True, False), (1, 2), (1, 2), (1, 2)
        ):
            if sp == 1:
                yield ParallelPlan("serial", fsdp=fsdp, dp=dp, tp_shard_final=tp_shard_final)
            for (strategy, kind, fanout), tp in itertools.product(strategies, (2, 16)):
                yield ParallelPlan(
                    strategy, tp=tp, fsdp=fsdp, dp=dp, dchag_kind=kind,
                    dchag_fanout=fanout, tp_shard_final=tp_shard_final, sp=sp,
                )

    def test_split_pricing_is_bitwise_the_one_pass_reference(self):
        compared = fitting = 0
        for model, plan in itertools.product(self.MODELS, self._plans()):
            workload = Workload(64, 3)
            for ov in (None, self.OVERLAPS):
                got = estimate_step(model, workload, plan, M, overlaps=ov)
                want = reference_estimate_step(model, workload, plan, M, overlaps=ov)
                assert _hex_fields(got) == _hex_fields(want), (plan.label, ov)
                assert _hex_fields(
                    estimate_step_comm(model, workload, plan, M, overlaps=ov)
                ) == _hex_fields(want.comm)
                got_tflops = global_batch_throughput(model, 64, plan, M, 8, overlaps=ov)
                b_max = throughput.max_batch_per_replica(model, 64, plan, M)
                want_tflops = 0.0 if b_max == 0 else reference_accumulated_tflops(
                    reference_estimate_step(
                        model, Workload(64, min(8 // plan.dp, b_max)), plan, M, overlaps=ov
                    ),
                    8 // plan.dp,
                )
                assert got_tflops.hex() == want_tflops.hex(), plan.label
                compared += 1
                fitting += got_tflops > 0.0
            explicit = dict(dp_overlap=0.25, fsdp_overlap=0.9)
            assert _hex_fields(
                estimate_step_comm(model, workload, plan, M, **explicit)
            ) == _hex_fields(reference_estimate_step_comm(model, workload, plan, M, **explicit))
        # 2 models x 2 overlap sources x (8 serial + 16 axis settings x 6
        # channel stages x 2 tp widths), most of them fitting.
        assert compared == 2 * 2 * (8 + 16 * 6 * 2)
        assert compared // 2 < fitting < compared

    @pytest.fixture
    def pricings(self, monkeypatch):
        """Every step pricing as ``(model, plan, batch, node size)``."""
        calls: list[tuple] = []
        real = throughput._price_step

        def counting(model, workload, plan, machine, *args, **kwargs):
            calls.append((model.name, plan, workload.batch, machine.gpus_per_node))
            return real(model, workload, plan, machine, *args, **kwargs)

        monkeypatch.setattr(throughput, "_price_step", counting)
        return calls

    @pytest.mark.parametrize("prune", [None, 3])
    def test_sec62_search_prices_each_candidate_once(self, pricings, prune):
        """The bound score and the oracle (or constant) score of a
        candidate are two exposures of one pricing."""
        ov = self.OVERLAPS
        results = search_configurations(
            named_model("7B"), 500, 1024, M, 4096,
            overlaps=lambda plan, micro: ov, prune_top_k=prune,
        )
        assert len(results) == 66
        assert len(pricings) == len(set(pricings)) == 66

    @pytest.mark.parametrize("prune", [None, 3])
    def test_sec62_search_shares_the_oracle_book(self, pricings, prune):
        """Handed a simulated oracle built for its own model, channels,
        machine and precision, the search ranks through the oracle's book:
        each real-model step is priced once, whether the ranking or the
        stand-in ratio asks first (the exhaustive search: 70 distinct
        steps)."""
        model = named_model("7B")
        results = search_configurations(
            model, 500, 1024, M, 4096,
            overlaps=simulated_overlaps(M, model, 500), prune_top_k=prune,
        )
        assert len(results) == 66
        real = [c for c in pricings if c[0] == model.name]
        assert len(real) == len(set(real))
        if prune is None:
            assert len(real) == 70

    def test_fleet_sweep_prices_each_distinct_step_once(self, pricings):
        """Each distinct (plan, micro-step batch) once — the stand-in
        ratio's real side shares those pricings — and the stand-in side
        once per distinct (stand-in plan, node size), not once per key."""
        bench = _fleet_bench()
        model = named_model(bench.FLEET_MODEL_NAME)
        sweep = sweep_replay(
            model, bench.FLEET_CHANNELS, M, bench.FLEET_BUDGETS,
            strategies=bench.FLEET_STRATEGIES,
        )
        assert sweep.candidates == 1304
        assert len(pricings) == len(set(pricings))
        steps = {
            (t.plan, min(b // t.plan.dp, t.micro_batch))
            for (_g, b), ranked in sweep.rankings
            for t in ranked
        }
        real = [(plan, batch) for name, plan, batch, _ in pricings if name == model.name]
        assert set(real) == steps and len(steps) == 268
        standin_side = [c for c in pricings if c[0] != model.name]
        assert len(standin_side) == 5  # for 163 stand-in keys
