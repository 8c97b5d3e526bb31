"""TP ≡ serial equivalence — the correctness foundation of the paper's
baseline (§4.3, §5: "single-GPU runs as a more reliable baseline")."""

import numpy as np
import pytest

from repro.dist import run_spmd, run_spmd_world
from repro.nn import ChannelCrossAttention, MLP, ViTEncoder
from repro.parallel import (
    ColumnParallelLinear,
    RowParallelLinear,
    TPChannelCrossAttention,
    TPContext,
    TPMLP,
    TPViTEncoder,
)
from repro.tensor import Tensor, functional as F

RNG = np.random.default_rng(21)
DIM, DEPTH, HEADS = 32, 2, 4


class TestParallelLinears:
    def test_column_parallel_shards_columns(self):
        w = RNG.standard_normal((6, 8)).astype(np.float32)
        b = RNG.standard_normal(8).astype(np.float32)
        x = RNG.standard_normal((3, 6)).astype(np.float32)

        def fn(comm):
            ctx = TPContext(comm)
            col = ColumnParallelLinear(ctx, w, b)
            return col(Tensor(x)).data.copy()

        res = run_spmd(fn, 2)
        full = x @ w + b
        np.testing.assert_allclose(res[0], full[:, :4], rtol=1e-5)
        np.testing.assert_allclose(res[1], full[:, 4:], rtol=1e-5)

    def test_row_parallel_sums_to_full(self):
        w = RNG.standard_normal((8, 6)).astype(np.float32)
        x = RNG.standard_normal((3, 8)).astype(np.float32)

        def fn(comm):
            ctx = TPContext(comm)
            row = RowParallelLinear(ctx, w)
            shard = ctx.shard(8)
            partial = row(Tensor(x[:, shard]))
            return comm.all_reduce(partial.data)

        for out in run_spmd(fn, 2):
            np.testing.assert_allclose(out, x @ w, rtol=1e-4, atol=1e-5)

    def test_indivisible_shard_raises(self):
        def fn(comm):
            ctx = TPContext(comm)
            ctx.shard(5)

        from repro.dist import SpmdError

        with pytest.raises(SpmdError):
            run_spmd(fn, 2)


class TestTPMLP:
    def test_matches_serial(self):
        serial = MLP(DIM, 4 * DIM, np.random.default_rng(5))
        x = RNG.standard_normal((2, 7, DIM)).astype(np.float32)
        expect = serial(Tensor(x)).data

        def fn(comm):
            ctx = TPContext(comm)
            tp = TPMLP(
                ctx,
                serial.fc1.weight.data,
                serial.fc1.bias.data,
                serial.fc2.weight.data,
                serial.fc2.bias.data,
            )
            partial = tp(Tensor(x))
            return comm.all_reduce(partial.data) + tp.fc2_bias.data

        for out in run_spmd(fn, 4):
            np.testing.assert_allclose(out, expect, rtol=2e-4, atol=2e-5)


class TestTPViT:
    @pytest.mark.parametrize("tp", [2, 4])
    def test_forward_matches_serial(self, tp):
        serial = ViTEncoder(DIM, DEPTH, HEADS, np.random.default_rng(42))
        state = serial.state_dict()
        x = RNG.standard_normal((2, 6, DIM)).astype(np.float32)
        expect = serial(Tensor(x)).data

        def fn(comm):
            enc = TPViTEncoder(TPContext(comm), DIM, DEPTH, HEADS, state)
            return enc(Tensor(x)).data.copy()

        for out in run_spmd(fn, tp):
            np.testing.assert_allclose(out, expect, rtol=3e-4, atol=3e-5)

    def test_input_gradients_match_serial(self):
        serial = ViTEncoder(DIM, DEPTH, HEADS, np.random.default_rng(42))
        state = serial.state_dict()
        x = RNG.standard_normal((2, 6, DIM)).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        (serial(xt) ** 2).mean().backward()
        expect = xt.grad.copy()

        def fn(comm):
            enc = TPViTEncoder(TPContext(comm), DIM, DEPTH, HEADS, state)
            xi = Tensor(x, requires_grad=True)
            (enc(xi) ** 2).mean().backward()
            return xi.grad.copy()

        for grad in run_spmd(fn, 2):
            np.testing.assert_allclose(grad, expect, rtol=2e-3, atol=2e-5)

    def test_shard_gradients_match_serial_slices(self):
        """Each rank's qkv-weight gradient equals the serial gradient slice
        for its heads."""
        serial = ViTEncoder(DIM, 1, HEADS, np.random.default_rng(42))
        state = serial.state_dict()
        x = RNG.standard_normal((2, 6, DIM)).astype(np.float32)
        (serial(Tensor(x)) ** 2).mean().backward()
        serial_qkv_grad = serial.blocks[0].attn.qkv.weight.grad.copy()

        def fn(comm):
            enc = TPViTEncoder(TPContext(comm), DIM, 1, HEADS, state)
            (enc(Tensor(x)) ** 2).mean().backward()
            return enc.blocks[0].attn.qkv.weight.grad.copy()

        res = run_spmd(fn, 2)
        hd = DIM // HEADS
        half = HEADS // 2 * hd
        # Rank 0 holds q/k/v columns for heads 0-1.
        expect_rank0 = np.concatenate(
            [
                serial_qkv_grad[:, :half],
                serial_qkv_grad[:, DIM : DIM + half],
                serial_qkv_grad[:, 2 * DIM : 2 * DIM + half],
            ],
            axis=1,
        )
        np.testing.assert_allclose(res[0], expect_rank0, rtol=2e-3, atol=2e-5)

    def test_tp_traffic_is_allreduce_only(self):
        serial = ViTEncoder(DIM, DEPTH, HEADS, np.random.default_rng(42))
        state = serial.state_dict()
        x = RNG.standard_normal((1, 4, DIM)).astype(np.float32)

        def fn(comm):
            enc = TPViTEncoder(TPContext(comm), DIM, DEPTH, HEADS, state)
            xi = Tensor(x, requires_grad=True)
            (enc(xi) ** 2).mean().backward()
            return None

        _, world = run_spmd_world(fn, 2)
        hist = world.traffic.ops_histogram()
        assert set(hist) == {"all_reduce"}
        # 2 regions/block × (1 fwd g + 1 bwd f) × depth × ranks
        assert hist["all_reduce"] == 2 * 2 * DEPTH * 2


def _tp_cross_attention(comm, serial):
    return TPChannelCrossAttention(
        TPContext(comm),
        DIM,
        HEADS,
        master_query_tokens=serial.query_tokens.data,
        master_q_w=serial.q_proj.weight.data,
        master_q_b=serial.q_proj.bias.data,
        master_kv_w=serial.kv_proj.weight.data,
        master_kv_b=serial.kv_proj.bias.data,
        master_proj_w=serial.proj.weight.data,
        master_proj_b=serial.proj.bias.data,
    )


class TestTPCrossAttention:
    @pytest.mark.parametrize("tp", [2, 4])
    def test_matches_serial(self, tp):
        serial = ChannelCrossAttention(DIM, HEADS, np.random.default_rng(9))
        x = RNG.standard_normal((2, 5, 4, DIM)).astype(np.float32)
        expect = serial(Tensor(x)).data

        def fn(comm):
            return _tp_cross_attention(comm, serial)(Tensor(x)).data.copy()

        for out in run_spmd(fn, tp):
            np.testing.assert_allclose(out, expect, rtol=3e-4, atol=3e-5)

    @pytest.mark.parametrize("tp", [2, 4])
    def test_shard_gradients_match_serial_slices(self, tp):
        """Every rank's parameter gradients are the serial gradients of its
        heads' columns (q, k, v) and rows (proj); the input gradient and the
        post-reduce bias are replicated; the replicated query tokens hold
        each rank's heads' share, summing to the serial gradient."""
        rng = np.random.default_rng(9)
        serial = ChannelCrossAttention(DIM, HEADS, rng)
        for lin in (serial.q_proj, serial.kv_proj, serial.proj):  # zero-init biases
            lin.bias.data = (rng.standard_normal(lin.bias.shape) * 0.1).astype(np.float32)
        x = RNG.standard_normal((2, 5, 4, DIM)).astype(np.float32)

        def loss_grads(layer):
            xt = Tensor(x, requires_grad=True)
            (layer(xt) ** 2).mean().backward()
            return {"x": xt.grad.copy(), **{n: p.grad.copy() for n, p in layer.named_parameters()}}

        want = loss_grads(serial)
        results = run_spmd(lambda comm: loss_grads(_tp_cross_attention(comm, serial)), tp)
        width = DIM // tp
        close = dict(rtol=2e-3, atol=2e-6)
        for rank, got in enumerate(results):
            cols = slice(rank * width, (rank + 1) * width)
            kv_cols = np.r_[cols, DIM + cols.start : DIM + cols.stop]
            np.testing.assert_allclose(got["x"], want["x"], **close)
            np.testing.assert_allclose(got["q_proj.weight"], want["q_proj.weight"][:, cols], **close)
            np.testing.assert_allclose(got["q_proj.bias"], want["q_proj.bias"][cols], **close)
            np.testing.assert_allclose(got["kv_proj.weight"], want["kv_proj.weight"][:, kv_cols], **close)
            np.testing.assert_allclose(got["kv_proj.bias"], want["kv_proj.bias"][kv_cols], **close)
            np.testing.assert_allclose(got["proj.linear.weight"], want["proj.weight"][cols], **close)
            np.testing.assert_allclose(got["proj_bias"], want["proj.bias"], **close)
        np.testing.assert_allclose(
            sum(got["query_tokens"] for got in results), want["query_tokens"], **close
        )

    def test_rejects_wrong_trailing_dim(self):
        from repro.dist import SpmdError

        serial = ChannelCrossAttention(DIM, HEADS, np.random.default_rng(9))
        bad = Tensor(np.zeros((1, 3, 2, DIM + 1), dtype=np.float32))
        with pytest.raises(SpmdError, match=f"expected dim {DIM}, got {DIM + 1}"):
            run_spmd(lambda comm: _tp_cross_attention(comm, serial)(bad), 2)
