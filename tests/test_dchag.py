"""Tests for the D-CHAG core: tree geometry, partial aggregation, and the
distributed module's headline properties (§3.3)."""

import numpy as np
import pytest

from repro.core import DCHAG, DCHAGConfig, PartialChannelAggregator, build_tree
from repro.dist import run_spmd, run_spmd_world
from repro.parallel import DistributedTokenizer
from repro.nn import PatchTokenizer
from repro.tensor import Tensor

RNG = np.random.default_rng(41)
B, C, H, P, D, HEADS = 2, 16, 16, 4, 32, 4


class TestTreeGeometry:
    def test_paper_tree2_example(self):
        """512 channels on 2 GPUs, Tree2: two layers of max 128 channels."""
        spec = build_tree(256, 2)
        assert spec.group_sizes == (128, 128)
        assert spec.has_root and spec.num_units == 3
        assert spec.max_channels_per_unit == 128

    def test_paper_tree8_example(self):
        """Tree8: eight aggregation layers, max 32 channels each."""
        spec = build_tree(256, 8)
        assert spec.group_sizes == (32,) * 8
        assert spec.max_channels_per_unit == 32

    def test_tree0_single_unit(self):
        spec = build_tree(256, 0)
        assert spec.group_sizes == (256,)
        assert not spec.has_root and spec.num_units == 1 and spec.depth == 1

    def test_tree1_equals_tree0(self):
        assert build_tree(64, 1).group_sizes == build_tree(64, 0).group_sizes

    def test_uneven_split(self):
        spec = build_tree(10, 4)
        assert spec.group_sizes == (3, 3, 2, 2)
        assert sum(spec.group_sizes) == 10

    def test_fanout_exceeding_channels_raises(self):
        with pytest.raises(ValueError):
            build_tree(4, 8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_tree(0, 2)
        with pytest.raises(ValueError):
            build_tree(8, -1)


class TestPartialAggregator:
    @pytest.mark.parametrize("kind", ["linear", "cross"])
    @pytest.mark.parametrize("fanout", [0, 2, 4])
    def test_reduces_to_one_channel(self, kind, fanout):
        agg = PartialChannelAggregator(8, D, HEADS, RNG, fanout=fanout, kind=kind)
        x = Tensor(RNG.standard_normal((B, 8, 5, D)).astype(np.float32))
        assert agg(x).shape == (B, 1, 5, D)

    def test_gradients_reach_all_units(self):
        agg = PartialChannelAggregator(8, D, HEADS, RNG, fanout=4, kind="cross")
        x = Tensor(RNG.standard_normal((1, 8, 3, D)).astype(np.float32), requires_grad=True)
        agg(x).sum().backward()
        assert x.grad is not None
        for name, p in agg.named_parameters():
            assert p.grad is not None, name

    def test_linear_has_far_fewer_params_than_cross(self):
        lin = PartialChannelAggregator(32, D, HEADS, RNG, fanout=0, kind="linear")
        cro = PartialChannelAggregator(32, D, HEADS, RNG, fanout=0, kind="cross")
        assert lin.num_parameters() * 50 < cro.num_parameters()

    def test_deeper_tree_adds_params(self):
        t0 = PartialChannelAggregator(32, D, HEADS, RNG, fanout=0, kind="cross")
        t4 = PartialChannelAggregator(32, D, HEADS, RNG, fanout=4, kind="cross")
        assert t4.num_parameters() > t0.num_parameters()

    def test_channel_count_mismatch_raises(self):
        agg = PartialChannelAggregator(8, D, HEADS, RNG)
        with pytest.raises(ValueError):
            agg(Tensor(np.zeros((1, 6, 3, D), dtype=np.float32)))

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            PartialChannelAggregator(8, D, HEADS, RNG, kind="conv")


def run_dchag(world, kind="linear", fanout=0, tp_final=False, seed=7):
    imgs = np.random.default_rng(1).standard_normal((B, C, H, H)).astype(np.float32)

    def fn(comm):
        cfg = DCHAGConfig(
            channels=C, patch=P, dim=D, heads=HEADS,
            fanout=fanout, kind=kind, tp_shard_final=tp_final,
        )
        model = DCHAG(comm, None, cfg, rng_seed=seed)
        out = model(imgs)
        loss = (out * out).mean()
        comm.phase = "backward"
        loss.backward()
        comm.phase = ""
        return (
            out.data.copy(),
            [p.grad.copy() for p in model.shared_parameters() if p.grad is not None],
            model.local_channels,
        )

    return run_spmd_world(fn, world)


class TestDCHAG:
    @pytest.mark.parametrize("kind", ["linear", "cross"])
    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_output_replicated_across_ranks(self, kind, world):
        res, _ = run_dchag(world, kind=kind)
        for out, _, _ in res[1:]:
            np.testing.assert_allclose(out, res[0][0], rtol=1e-5, atol=1e-6)

    def test_channels_sharded_evenly(self):
        res, _ = run_dchag(4)
        assert all(r[2] == C // 4 for r in res)

    def test_zero_backward_communication(self):
        """The paper's headline: no collectives in the backward pass."""
        _, world = run_dchag(4, kind="linear", fanout=2)
        assert world.traffic.count(phase="backward") == 0

    def test_single_forward_gather_of_one_channel(self):
        _, world = run_dchag(4)
        hist = world.traffic.ops_histogram()
        assert hist == {"all_gather": 4}
        # Payload per rank = one channel of tokens: B * 1 * N * D floats.
        n_tokens = (H // P) ** 2
        assert world.traffic.payload_bytes(op="all_gather", rank=0) == B * n_tokens * D * 4

    def test_shared_layer_gradients_identical_across_ranks(self):
        """Replicated final layer stays consistent without any AllReduce."""
        res, _ = run_dchag(4, kind="cross", fanout=2)
        ref = res[0][1]
        for _, grads, _ in res[1:]:
            assert len(grads) == len(ref) > 0
            for a, b in zip(ref, grads):
                np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-7)

    def test_tp_sharded_final_matches_replicated(self):
        res_rep, _ = run_dchag(2, tp_final=False)
        res_tp, _ = run_dchag(2, tp_final=True)
        np.testing.assert_allclose(res_tp[0][0], res_rep[0][0], rtol=3e-4, atol=3e-5)

    def test_param_partition_is_disjoint_and_complete(self):
        def fn(comm):
            cfg = DCHAGConfig(channels=C, patch=P, dim=D, heads=HEADS)
            model = DCHAG(comm, None, cfg)
            local = {id(p) for p in model.rank_local_parameters()}
            shared = {id(p) for p in model.shared_parameters()}
            everything = {id(p) for p in model.parameters()}
            return local.isdisjoint(shared) and (local | shared) == everything

        assert all(run_spmd(fn, 2))

    def test_ten_channels_on_four_ranks_uneven_shards(self):
        """The paper's 10-channel example: remainder sharding gives the
        first two ranks 3 channels and the rest 2, covering all channels,
        and the forward pass runs end-to-end on the uneven shards."""
        imgs = RNG.standard_normal((B, 10, H, H)).astype(np.float32)

        def fn(comm):
            cfg = DCHAGConfig(channels=10, patch=P, dim=D, heads=HEADS)
            model = DCHAG(comm, None, cfg, rng_seed=5)
            out = model(imgs)
            return (model.shard.start, model.shard.stop), out.data.shape

        res = run_spmd(fn, 4)
        spans = [r[0] for r in res]
        assert spans == [(0, 3), (3, 6), (6, 8), (8, 10)]
        for _, shape in res:
            assert shape == (B, (H // P) ** 2, D)

    def test_fewer_channels_than_ranks_raises(self):
        def fn(comm):
            cfg = DCHAGConfig(channels=2, patch=P, dim=D, heads=HEADS)
            DCHAG(comm, None, cfg)

        from repro.dist import SpmdError

        with pytest.raises(SpmdError):
            run_spmd(fn, 4)

    def test_master_weights_shard_matches_serial_tokens(self):
        """With master tokenizer weights, the concatenation of all ranks'
        local tokens equals the serial tokenizer output."""
        master = PatchTokenizer(C, P, D, np.random.default_rng(3))
        ids = np.zeros((C, D), dtype=np.float32)
        imgs = np.random.default_rng(1).standard_normal((B, C, H, H)).astype(np.float32)
        expect = master(imgs).data

        def fn(comm):
            cfg = DCHAGConfig(channels=C, patch=P, dim=D, heads=HEADS)
            model = DCHAG(
                comm, None, cfg,
                master_tok_weight=master.weight.data,
                master_tok_bias=master.bias.data,
                master_channel_ids=ids,
            )
            local = model.local_tokens(imgs)
            return np.concatenate(comm.all_gather(local.data), axis=1)

        for gathered in run_spmd(fn, 4):
            np.testing.assert_allclose(gathered, expect, rtol=1e-5, atol=1e-6)


class TestDCHAGConfig:
    def test_variant_names(self):
        assert DCHAGConfig(8, 4, 32, 4, kind="linear").variant_name == "D-CHAG-L-Tree0"
        assert DCHAGConfig(8, 4, 32, 4, fanout=4, kind="cross").variant_name == "D-CHAG-C-Tree4"

    def test_validation(self):
        with pytest.raises(ValueError):
            DCHAGConfig(8, 4, 32, 4, kind="dense")
        with pytest.raises(ValueError):
            DCHAGConfig(8, 4, 33, 4)
        with pytest.raises(ValueError):
            DCHAGConfig(0, 4, 32, 4)


class TestDistTokenizerTraffic:
    def test_dist_tok_pays_backward_reduce_scatter(self):
        """Contrast with D-CHAG: §3.1 gathers full tokens and pays a
        ReduceScatter in backward — the overhead Fig. 8 shows."""
        master = PatchTokenizer(C, P, D, np.random.default_rng(3))
        imgs = np.random.default_rng(1).standard_normal((B, C, H, H)).astype(np.float32)

        def fn(comm):
            tok = DistributedTokenizer(
                comm, None, C, P, D, master.weight.data, master.bias.data
            )
            out = tok(imgs)
            (out * out).mean().backward()
            return None

        _, world = run_spmd_world(fn, 2)
        assert world.traffic.count(op="reduce_scatter", phase="backward") == 2
        # Forward gather payload: the full local token block (C/tp channels).
        n_tokens = (H // P) ** 2
        expected = B * (C // 2) * n_tokens * D * 4
        assert world.traffic.payload_bytes(op="all_gather", rank=0) == expected


class TestPerceiverPartialAggregation:
    """§3.5: the Perceiver fusion module as D-CHAG partial units."""

    def test_partial_aggregator_perceiver_kind(self):
        agg = PartialChannelAggregator(8, D, HEADS, RNG, fanout=2, kind="perceiver")
        x = Tensor(RNG.standard_normal((1, 8, 3, D)).astype(np.float32))
        out = agg(x)
        assert out.shape == (1, 1, 3, D)
        out.sum().backward()
        for name, p in agg.named_parameters():
            assert p.grad is not None, name

    def test_dchag_runs_with_perceiver_partials(self):
        res, world = run_dchag(2, kind="perceiver", fanout=0)
        np.testing.assert_allclose(res[1][0], res[0][0], rtol=1e-5, atol=1e-6)
        assert world.traffic.count(phase="backward") == 0

    def test_variant_name(self):
        assert DCHAGConfig(8, 4, 32, 4, kind="perceiver").variant_name == "D-CHAG-P-Tree0"
