"""Tests for the analytic performance models and their structural claims."""

import numpy as np
import pytest

from repro.core import plan_channel_stage, sweep_tree_configs
from repro.perf import (
    CostModel,
    FIGURE_BATCH,
    MODEL_ZOO,
    ModelConfig,
    ParallelPlan,
    Precision,
    Workload,
    estimate_flops,
    estimate_memory,
    estimate_step_comm,
    frontier,
    max_batch_per_replica,
    named_model,
    sustained_estimate,
    throughput_gain,
    transformer_param_count,
)

M = frontier()
SMALL = ModelConfig("test", dim=256, depth=4, heads=8)


class TestModelZoo:
    @pytest.mark.parametrize("name", ["7B", "15B", "26B"])
    def test_paper_sizes_match_labels(self, name):
        cfg = named_model(name)
        count = transformer_param_count(cfg)
        label = float(name[:-1]) * 1e9
        assert abs(count - label) / label < 0.15

    def test_paper_dims_exact(self):
        assert named_model("7B").dim == 4096
        assert named_model("15B").dim == 6144
        assert named_model("26B").dim == 8192
        for n in ("7B", "15B", "26B"):
            assert named_model(n).depth == 32 and named_model(n).heads == 32

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            named_model("999B")

    def test_zoo_monotone_in_size(self):
        sizes = [transformer_param_count(MODEL_ZOO[n]) for n in ("100M", "1B", "3B", "7B", "15B", "26B")]
        assert sizes == sorted(sizes)


class TestMemoryModel:
    def test_monotone_in_channels(self):
        t1 = estimate_memory(SMALL, Workload(64, 4)).total
        t2 = estimate_memory(SMALL, Workload(128, 4)).total
        assert t2 > t1

    def test_monotone_in_batch(self):
        t1 = estimate_memory(SMALL, Workload(64, 2)).total
        t2 = estimate_memory(SMALL, Workload(64, 8)).total
        assert t2 > t1

    def test_aggregation_quadratic_in_channels(self):
        a1 = estimate_memory(SMALL, Workload(128, 1)).aggregation_act
        a2 = estimate_memory(SMALL, Workload(256, 1)).aggregation_act
        assert a2 / a1 > 2.5  # super-linear: the quadratic score term

    def test_tokenization_linear_in_channels(self):
        t1 = estimate_memory(SMALL, Workload(128, 1)).tokenization
        t2 = estimate_memory(SMALL, Workload(256, 1)).tokenization
        np.testing.assert_allclose(t2 / t1, 2.0, rtol=0.05)

    def test_tp_does_not_shard_tokenization(self):
        """The paper's central observation (§4.3)."""
        base = estimate_memory(SMALL, Workload(256, 4), ParallelPlan("tp", tp=1))
        tp4 = estimate_memory(SMALL, Workload(256, 4), ParallelPlan("tp", tp=4))
        np.testing.assert_allclose(tp4.tokenization, base.tokenization, rtol=1e-6)
        assert tp4.transformer < base.transformer / 2

    def test_dchag_shards_tokenization(self):
        tp4 = estimate_memory(SMALL, Workload(256, 4), ParallelPlan("tp", tp=4))
        dc4 = estimate_memory(SMALL, Workload(256, 4), ParallelPlan("dchag", tp=4))
        assert dc4.tokenization < tp4.tokenization / 2

    def test_dist_tok_gather_overhead(self):
        """Distributed tokenization pays a full-token gather buffer (§4.4)."""
        dt = estimate_memory(SMALL, Workload(256, 4), ParallelPlan("dist_tok", tp=4))
        dc = estimate_memory(SMALL, Workload(256, 4), ParallelPlan("dchag", tp=4))
        # dist_tok gathers all C channels, D-CHAG one per rank: ratio C/tp.
        assert dt.gather_buffers == pytest.approx(64 * dc.gather_buffers)

    def test_fsdp_shards_state_not_activations(self):
        f1 = estimate_memory(SMALL, Workload(64, 4), ParallelPlan("tp", fsdp=1))
        f8 = estimate_memory(SMALL, Workload(64, 4), ParallelPlan("tp", fsdp=8))
        assert f8.transformer_state < f1.transformer_state / 2
        np.testing.assert_allclose(f8.transformer_act, f1.transformer_act, rtol=1e-6)

    def test_linear_partial_agg_smaller_than_cross(self):
        lin = estimate_memory(SMALL, Workload(256, 4), ParallelPlan("dchag", tp=4, dchag_kind="linear"))
        cro = estimate_memory(SMALL, Workload(256, 4), ParallelPlan("dchag", tp=4, dchag_kind="cross"))
        assert lin.aggregation < cro.aggregation

    def test_deeper_cross_tree_cuts_activation_quadratic(self):
        t0 = estimate_memory(SMALL, Workload(512, 4), ParallelPlan("dchag", tp=2, dchag_kind="cross", dchag_fanout=0))
        t8 = estimate_memory(SMALL, Workload(512, 4), ParallelPlan("dchag", tp=2, dchag_kind="cross", dchag_fanout=8))
        assert t8.aggregation_act < t0.aggregation_act
        assert t8.aggregation_state > t0.aggregation_state  # extra layers cost params

    def test_component_dict_sums_to_total(self):
        bd = estimate_memory(SMALL, Workload(64, 2))
        np.testing.assert_allclose(sum(bd.component_dict().values()), bd.total, rtol=1e-9)


class TestFlopsModel:
    def test_train_flops_against_runtime_counter(self):
        """The closed-form tokenization formula matches the runtime counter."""
        from repro.nn import PatchTokenizer
        from repro.tensor import Tensor, count_flops

        rng = np.random.default_rng(0)
        cfg = ModelConfig("tiny", dim=32, depth=1, heads=4, patch=4, image_hw=(16, 16))
        tok = PatchTokenizer(8, 4, 32, rng)
        imgs = rng.standard_normal((2, 8, 16, 16)).astype(np.float32)
        with count_flops() as counter:
            tok(imgs)
        analytic = estimate_flops(cfg, Workload(8, 2)).tokenization
        assert abs(counter.by_category["matmul"] - analytic) / analytic < 0.01

    def test_vit_flops_against_runtime_counter(self):
        from repro.nn import ViTEncoder
        from repro.tensor import Tensor, count_flops

        rng = np.random.default_rng(0)
        cfg = ModelConfig("tiny", dim=32, depth=2, heads=4, patch=4, image_hw=(16, 16))
        enc = ViTEncoder(32, 2, 4, rng)
        x = Tensor(rng.standard_normal((2, cfg.tokens, 32)).astype(np.float32))
        with count_flops() as counter:
            enc(x)
        analytic = estimate_flops(cfg, Workload(8, 2)).transformer
        measured = counter.by_category["matmul"]
        assert abs(measured - analytic) / analytic < 0.05

    def test_dchag_linear_removes_agg_flops(self):
        base = estimate_flops(SMALL, Workload(256, 4), ParallelPlan("tp", tp=4))
        dc = estimate_flops(SMALL, Workload(256, 4), ParallelPlan("dchag", tp=4, dchag_kind="linear"))
        assert dc.aggregation < base.aggregation / 10

    def test_tp_tokenization_redundant(self):
        t1 = estimate_flops(SMALL, Workload(128, 2), ParallelPlan("tp", tp=1))
        t4 = estimate_flops(SMALL, Workload(128, 2), ParallelPlan("tp", tp=4))
        assert t1.tokenization == t4.tokenization  # replicated on every rank


class TestCommModel:
    def test_intra_faster_than_inter(self):
        cost = CostModel(M)
        intra = cost.collective_seconds("all_reduce", 1 << 20, 8, intra_node=True)
        inter = cost.collective_seconds("all_reduce", 1 << 20, 8, intra_node=False)
        assert intra < inter

    def test_single_rank_free(self):
        assert CostModel(M).collective_seconds("all_gather", 1 << 20, 1, True) == 0.0

    def test_dchag_gather_cheaper_than_dist_tok(self):
        w = Workload(512, 8)
        cfg = named_model("1.7B")
        dt = estimate_step_comm(cfg, w, ParallelPlan("dist_tok", tp=8), M)
        dc = estimate_step_comm(cfg, w, ParallelPlan("dchag", tp=8), M)
        assert dc.gather_time < dt.gather_time / 50

    def test_tp16_spans_nodes(self):
        """TP beyond one node (8 GCDs) rides the slow interconnect."""
        w = Workload(128, 8)
        cfg = named_model("7B")
        t8 = estimate_step_comm(cfg, w, ParallelPlan("tp", tp=8), M).tp_time
        t16 = estimate_step_comm(cfg, w, ParallelPlan("tp", tp=16), M).tp_time
        assert t16 > 2 * t8


class TestThroughput:
    def test_max_batch_positive_when_fits(self):
        assert max_batch_per_replica(SMALL, 64, ParallelPlan("serial"), M) > 0

    def test_max_batch_zero_when_oom(self):
        assert max_batch_per_replica(named_model("26B"), 256, ParallelPlan("serial"), M) == 0

    def test_dchag_enables_larger_batches(self):
        cfg = named_model("1.7B")
        b_tp = max_batch_per_replica(cfg, 512, ParallelPlan("tp", tp=2), M)
        b_dc = max_batch_per_replica(cfg, 512, ParallelPlan("dchag", tp=2, dchag_kind="linear"), M)
        assert b_dc > 2 * b_tp

    def test_gain_positive_for_paper_configs(self):
        cfg = named_model("7B")
        g = throughput_gain(cfg, 512, ParallelPlan("dchag", tp=16, dchag_kind="linear"), ParallelPlan("tp", tp=16), M)
        assert 0.3 < g < 1.5  # paper: +70 %

    def test_linear_beats_cross(self):
        cfg = named_model("7B")
        base = ParallelPlan("tp", tp=16)
        gl = throughput_gain(cfg, 256, ParallelPlan("dchag", tp=16, dchag_kind="linear"), base, M)
        gc = throughput_gain(cfg, 256, ParallelPlan("dchag", tp=16, dchag_kind="cross"), base, M)
        assert gl > gc

    def test_gains_grow_with_channels(self):
        """§6.1: 'for a fixed model size, better gains as channels increase'."""
        cfg = named_model("15B")
        base = ParallelPlan("tp", tp=16)
        plan = ParallelPlan("dchag", tp=16, dchag_kind="linear")
        assert throughput_gain(cfg, 256, plan, base, M) > throughput_gain(cfg, 128, plan, base, M)

    def test_gains_shrink_with_model_size(self):
        """§6.1: 'as transformer parameters grow, gains become smaller' —
        at the channel counts each model can actually run (Fig. 13 pairs
        channels to model size: 7B@512, 15B@256, 26B@128)."""
        base = ParallelPlan("tp", tp=16)
        plan = ParallelPlan("dchag", tp=16, dchag_kind="linear")
        g7 = throughput_gain(named_model("7B"), 512, plan, base, M)
        g15 = throughput_gain(named_model("15B"), 256, plan, base, M)
        g26 = throughput_gain(named_model("26B"), 128, plan, base, M)
        assert g7 > g15 > g26

    def test_infeasible_baseline_reports_inf(self):
        cfg = named_model("26B")
        g = throughput_gain(
            cfg, 256,
            ParallelPlan("dchag", tp=32, dchag_kind="linear"),
            ParallelPlan("tp", tp=32), M,
            precision=Precision(),
        )
        est = sustained_estimate(cfg, 256, ParallelPlan("tp", tp=32), M, micro_batch=FIGURE_BATCH["fig14"])
        assert not est.fits
        assert g == float("inf") or g > 0


class TestPlanner:
    def test_planner_picks_linear_tree0_like_paper(self):
        """§4.5: 'the best performance is achieved with Tree0-L'."""
        cfg = named_model("1.7B")
        choice = plan_channel_stage(cfg, Workload(512, 8), M, tp=2)
        assert choice.plan.dchag_kind == "linear"
        assert choice.plan.dchag_fanout == 0

    def test_sweep_covers_both_kinds(self):
        cfg = named_model("1.7B")
        choices = sweep_tree_configs(cfg, Workload(512, 8), M, tp=2)
        kinds = {c.plan.dchag_kind for c in choices}
        assert kinds == {"linear", "cross"}

    def test_sweep_skips_too_wide_trees(self):
        choices = sweep_tree_configs(SMALL, Workload(8, 1), M, tp=4, fanouts=(0, 2, 8))
        fanouts = {c.plan.dchag_fanout for c in choices}
        assert 8 not in fanouts  # 8 > 2 local channels
