"""The fused transformer-step kernels against the composite chains they replace.

``F.linear`` (matmul + bias), ``scaled_dot_product_attention`` (scores,
scale, mask, softmax, dropout, pooling), ``split_heads`` / ``merge_heads``
(one view node each) and FSDP's unflatten (one node per parameter, a view of
the gathered unit whose grad lands in one flat buffer) each replaced a chain
of single-op nodes.  The composite chains below are those chains, kept here
as the reference: outputs, input gradients, every parameter gradient and the
FLOP books must match them bitwise (``np.array_equal``), not within a
tolerance, and an FSDP rank's traffic records must be identical.
"""

import numpy as np
import pytest

import repro.nn.attention as attention
import repro.nn.perceiver as perceiver
import repro.nn.swin as swin
from repro.dist import all_gather_autograd, run_spmd, run_spmd_world
from repro.models import build_serial_mae
from repro.nn import (
    Dropout,
    Linear,
    MultiHeadSelfAttention,
    PerceiverChannelFusion,
    SwinBlock,
    TransformerBlock,
    ViTEncoder,
)
from repro.parallel import (
    FSDPModel,
    ParallelContext,
    scatter_sequence,
    sequence_parallel,
    tensor_parallel,
)
from repro.parallel.fsdp import FlatParamShard
from repro.tensor import AdamW, FlopCounter, Tensor, count_flops, functional as F

# The e2e benchmark's train_serial model: B=4, C=32, 32x32 images with 4x4
# patches (N=64, 16 visible to the encoder), D=128, 4 heads, depth 4.
SERIAL = dict(channels=32, image=32, patch=4, dim=128, depth=4, heads=4)


# -- the composite chains -----------------------------------------------------
def composite_linear(self, x):
    """matmul node, then a broadcast add node."""
    out = x @ self.weight
    return out + self.bias if self.has_bias else out


def composite_split_heads(x, heads, part=0, parts=1):
    """getitem (for one of several parts), reshape, transpose."""
    b, n, width = x.shape
    d = width // parts
    if parts > 1:
        x = x[:, :, part * d : (part + 1) * d]
    return x.reshape(b, n, heads, d // heads).transpose(0, 2, 1, 3)


def composite_merge_heads(x):
    """transpose, reshape."""
    b, h, n, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * hd)


def composite_attention(q, k, v, dropout=None, mask=None):
    """swapaxes, matmul, scale, (mask add), softmax, (dropout), matmul."""
    scale = 1.0 / float(np.sqrt(q.shape[-1]))
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if mask is not None:
        scores = scores + Tensor(mask)
    attn = F.softmax(scores, axis=-1)
    if dropout is not None:
        attn = dropout(attn)
    return attn @ v


def tiled_window_attention(self, x, mask=None):
    """``WindowAttention.forward`` with the ``[nW, T, T]`` mask tiled to
    ``[B·nW, 1, T, T]`` on every call."""
    bn, t, _ = x.shape
    qkv = self.qkv(x)
    q, k, v = (swin.split_heads(qkv, self.heads, i, 3) for i in range(3))
    if mask is not None:
        mask = np.tile(mask[None, :, None], (bn // mask.shape[0], 1, 1, 1, 1)).reshape(bn, 1, t, t)
    return self.proj(swin.merge_heads(swin.scaled_dot_product_attention(q, k, v, mask=mask)))


@pytest.fixture
def composite(monkeypatch):
    """Route every call site through the composite chains instead."""

    def use():
        monkeypatch.setattr(Linear, "forward", composite_linear)
        monkeypatch.setattr(swin.WindowAttention, "forward", tiled_window_attention)
        for module in (attention, swin, perceiver):
            for name, chain in (
                ("split_heads", composite_split_heads),
                ("merge_heads", composite_merge_heads),
                ("scaled_dot_product_attention", composite_attention),
            ):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, chain)

    return use


def randomised(module, seed):
    """Biases and LayerNorm affines start constant: randomise every
    parameter so each grad is live and distinct."""
    rng = np.random.default_rng(seed)
    for p in module.parameters():
        p.data[...] = rng.standard_normal(p.shape).astype(p.dtype) * 0.1
    return module


def assert_bitwise(want, got):
    assert want.keys() == got.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert np.array_equal(got[name], want[name]), name


def reseeded(module):
    """Give every dropout a fresh generator: the same masks on each run."""
    for i, m in enumerate(module.modules()):
        if isinstance(m, Dropout):
            m.rng = np.random.default_rng(5 + i)
    return module


def run(module, inputs, upstream_seed=9, forward=None):
    """Forward, backward through a fixed random upstream gradient, and the
    FLOP books; returns every array that must match."""
    module.zero_grad()
    reseeded(module)
    counter = FlopCounter()
    with count_flops(counter):
        out = (forward or module)(*inputs)
        upstream = np.random.default_rng(upstream_seed).standard_normal(out.shape)
        (out * Tensor(upstream.astype(out.dtype))).sum().backward()
    arrays = {"out": out.data}
    arrays.update({n: p.grad for n, p in module.named_parameters()})
    arrays.update({f"{k}.grad": t.grad for k, t in enumerate(inputs) if isinstance(t, Tensor)})
    arrays["flops"] = np.array(sorted(counter.by_category.items()), dtype=object)
    return arrays


def graph_ops(root):
    """The op of every node on *root*'s graph (leaves excluded)."""
    ops, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._parents:
                ops.append(node.op)
            stack.extend(node._parents)
    return sorted(ops)


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)


# -- Linear ---------------------------------------------------------------------
class TestLinearKernel:
    @pytest.mark.parametrize("shape", [(6, 16), (2, 5, 16), (2, 3, 4, 16)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_matches_composite(self, composite, shape, bias):
        rng = np.random.default_rng(0)
        layer = randomised(Linear(16, 12, rng, bias=bias), 1)
        x = rng.standard_normal(shape).astype(np.float32)
        got = run(layer, [Tensor(x, requires_grad=True)])
        composite()
        assert_bitwise(run(layer, [Tensor(x, requires_grad=True)]), got)

    def test_is_one_node(self):
        layer = Linear(4, 3, np.random.default_rng(0))
        out = layer(leaf(np.random.default_rng(1), 2, 5, 4))
        assert graph_ops(out) == ["linear"]


# -- attention ------------------------------------------------------------------
class TestAttentionKernel:
    @pytest.mark.parametrize("tokens", [16, 64])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_train_serial_block(self, composite, tokens, dropout):
        """A train_serial encoder block: 16 visible tokens (and all 64)."""
        rng = np.random.default_rng(2)
        block = TransformerBlock(SERIAL["dim"], SERIAL["heads"], rng, dropout=dropout)
        randomised(block, 3)
        x = rng.standard_normal((4, tokens, SERIAL["dim"])).astype(np.float32)
        got = run(block, [Tensor(x, requires_grad=True)])
        composite()
        assert_bitwise(run(block, [Tensor(x, requires_grad=True)]), got)

    def test_eval_mode_skips_dropout(self, composite):
        rng = np.random.default_rng(2)
        block = randomised(TransformerBlock(32, 4, rng, dropout=0.3), 3).eval()
        x = rng.standard_normal((2, 6, 32)).astype(np.float32)
        got = run(block, [Tensor(x, requires_grad=True)])
        composite()
        assert_bitwise(run(block, [Tensor(x, requires_grad=True)]), got)

    def test_train_serial_model(self, composite):
        """The whole train_serial MAE: loss and every parameter grad."""
        model = randomised(build_serial_mae(rng=np.random.default_rng(0), **SERIAL), 1)
        images = np.random.default_rng(4).standard_normal(
            (4, SERIAL["channels"], SERIAL["image"], SERIAL["image"])).astype(np.float32)

        def once():
            return run(model, [images], forward=lambda im: model.loss(im, np.random.default_rng(7)))

        got = once()
        composite()
        assert_bitwise(once(), got)

    @pytest.mark.parametrize("shift", [0, 1])
    def test_swin_block(self, composite, shift):
        rng = np.random.default_rng(2)
        block = randomised(SwinBlock(32, 4, (4, 4), 2, shift, rng), 3)
        x = rng.standard_normal((2, 16, 32)).astype(np.float32)
        got = run(block, [Tensor(x, requires_grad=True)])
        composite()
        assert_bitwise(run(block, [Tensor(x, requires_grad=True)]), got)

    @pytest.mark.parametrize("shift", [0, 1])
    def test_swin_window_mask_broadcast_matches_tiled(self, monkeypatch, shift):
        """The fused kernel alone, with the mask broadcast per window group
        against the same kernel fed the tiled mask."""
        rng = np.random.default_rng(4)
        block = randomised(SwinBlock(32, 4, (4, 4), 2, shift, rng), 5)
        x = rng.standard_normal((3, 16, 32)).astype(np.float32)
        got = run(block, [Tensor(x, requires_grad=True)])
        monkeypatch.setattr(swin.WindowAttention, "forward", tiled_window_attention)
        assert_bitwise(run(block, [Tensor(x, requires_grad=True)]), got)

    def test_perceiver_block(self, composite):
        rng = np.random.default_rng(2)
        fusion = randomised(PerceiverChannelFusion(32, 4, rng, num_latents=3, iterations=2), 3)
        x = rng.standard_normal((2, 5, 4, 32)).astype(np.float32)
        got = run(fusion, [Tensor(x, requires_grad=True)])
        composite()
        assert_bitwise(run(fusion, [Tensor(x, requires_grad=True)]), got)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_tp2_encoder(self, composite, dropout):
        """tensor_parallel on 2 ranks: every rank's output and grads."""
        x = np.random.default_rng(6).standard_normal((2, 8, 32)).astype(np.float32)

        def rank(comm):
            enc = randomised(ViTEncoder(32, 2, 4, np.random.default_rng(0), dropout=dropout), 1)
            enc = tensor_parallel(ParallelContext(comm), enc)
            return run(enc, [Tensor(x, requires_grad=True)])

        got = run_spmd(rank, 2)
        composite()
        for want_r, got_r in zip(run_spmd(rank, 2), got):
            assert_bitwise(want_r, got_r)

    def test_sp2_encoder(self, composite):
        """sequence_parallel on 2 ranks: Ulysses all-to-alls around the
        kernel, token-sharded input."""
        x = np.random.default_rng(6).standard_normal((2, 8, 32)).astype(np.float32)

        def rank(comm):
            ctx = ParallelContext(comm)
            enc = randomised(ViTEncoder(32, 2, 4, np.random.default_rng(0)), 1)
            enc = sequence_parallel(ctx, enc)
            xt = Tensor(x, requires_grad=True)
            return run(enc, [xt], forward=lambda t: enc(scatter_sequence(ctx, t)))

        got = run_spmd(rank, 2)
        composite()
        for want_r, got_r in zip(run_spmd(rank, 2), got):
            assert_bitwise(want_r, got_r)

    def test_self_attention_is_seven_nodes(self):
        """qkv Linear, three head views, the kernel, merge_heads, proj."""
        layer = MultiHeadSelfAttention(8, 2, np.random.default_rng(0), dropout=0.3)
        out = layer(leaf(np.random.default_rng(1), 2, 3, 8))
        assert graph_ops(out) == sorted(
            ["linear", "split_heads", "split_heads", "split_heads", "attention",
             "merge_heads", "linear"])

    def test_head_views_share_one_grad_buffer(self):
        """q, k and v are views of the qkv output; their backwards fill one
        qkv-shaped grad, which the qkv Linear's backward consumes."""
        rng = np.random.default_rng(0)
        qkv = leaf(rng, 2, 3, 12)
        q, k, v = (attention.split_heads(qkv, 2, i, 3) for i in range(3))
        for t in (q, k, v):
            assert np.shares_memory(t.data, qkv.data)
        (q * 1.0 + k * 2.0 + v * 3.0).sum().backward()
        want = np.repeat(np.array([1.0, 2.0, 3.0], dtype=np.float32), 4)
        assert np.array_equal(qkv.grad, np.broadcast_to(want, (2, 3, 12)))


# -- FSDP unflatten -------------------------------------------------------------
def composite_materialize(self):
    """AllGather, then a getitem + reshape node pair per parameter."""
    with self.comm.phase_scope("fsdp_gather"):
        full = all_gather_autograd(
            self.comm, self.shard, self.group, axis=0, reduce_op="mean", pool_key=self.pool_key
        )
    return [
        full[lo:hi].reshape(shape)
        for shape, lo, hi in zip(self.shapes, self.offsets, self.offsets[1:])
    ]


def fsdp_run(world, forwards, chained=False):
    """*forwards* forwards of one FSDP encoder (blocks as units, the final
    norm the residual unit, AdamW-owned shards as in the elastic segment)
    before one backward, on fresh inputs or *chained* (each forward on the
    last one's output, so the backwards interleave); per rank, every shard
    grad and the loss, plus the rank's traffic records in issue order."""

    def rank(comm):
        enc = randomised(ViTEncoder(32, 2, 4, np.random.default_rng(0)), 1)
        model = FSDPModel(comm, None, enc, units=list(enc.blocks))
        AdamW(model.shard_parameters())
        rng = np.random.default_rng(2)
        loss, out = None, None
        for _ in range(forwards):
            x = rng.standard_normal((2, 6, 32)).astype(np.float32)
            u = rng.standard_normal((2, 6, 32)).astype(np.float32)
            out = model(out if chained and out is not None else Tensor(x))
            term = (out * Tensor(u)).sum()
            loss = term if loss is None else loss + term
        loss.backward()
        out = {f"shard{i}": s.grad.copy() for i, s in enumerate(model.shard_parameters())}
        out["loss"] = loss.data
        return out

    results, w = run_spmd_world(rank, world)
    records = [
        [(r.op, r.phase, r.group_size, r.payload_bytes, r.wire_bytes)
         for r in w.traffic.records(rank=i)]
        for i in range(world)
    ]
    return results, records


class TestFSDPUnflatten:
    @pytest.mark.parametrize("world", [2, 3])
    @pytest.mark.parametrize("forwards,chained", [(1, False), (2, False), (2, True)])
    def test_matches_composite(self, monkeypatch, world, forwards, chained):
        got, got_records = fsdp_run(world, forwards, chained)
        monkeypatch.setattr(FlatParamShard, "materialize", composite_materialize)
        want, want_records = fsdp_run(world, forwards, chained)
        for want_r, got_r in zip(want, got):
            assert_bitwise(want_r, got_r)
        assert got_records == want_records
        assert {op for op, *_ in got_records[0]} == {"all_gather", "reduce_scatter"}

    def test_one_node_per_parameter_viewing_the_gathered_unit(self):
        def rank(comm):
            enc = ViTEncoder(16, 1, 2, np.random.default_rng(0))
            model = FSDPModel(comm, None, enc)
            params = model.units[0].flat.materialize()
            full = params[0]._parents[0]
            assert all(p.op == "unflatten" and p._parents == (full,) for p in params)
            assert all(np.shares_memory(p.data, full.data) for p in params)
            (sum((p * p).sum() for p in params)).backward()
            return model.units[0].flat.shard.grad is not None

        assert all(run_spmd(rank, 2))
