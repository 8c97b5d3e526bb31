"""Bitwise fence for the model-parallel layers: TP and SP encoders and the
TP channel cross-attention against an explicit per-rank reference.

The reference writes each rank's block math out with ``Tensor`` ops,
Megatron's ``f``/``g`` (:func:`copy_to_group` / :func:`reduce_from_group`)
and the Ulysses all-to-alls, on hand-sliced shards of one master state.
Output, input gradient and every parameter gradient must be
``np.array_equal`` to the layer under test — no tolerance.  Parameters are
matched to the reference by their (distinct, randomised) initial values, so
the fence holds whatever the layer names or orders them.
"""

import numpy as np
import pytest

from repro.dist import copy_to_group, reduce_from_group, run_spmd
from repro.nn import ChannelCrossAttention, Linear, ViTEncoder
from repro.nn.attention import (
    channel_query_attention,
    merge_heads,
    scaled_dot_product_attention,
    split_heads,
)
from repro.parallel import (
    ParallelContext,
    all_to_all_heads_to_tokens,
    all_to_all_tokens_to_heads,
    gather_sequence,
    scatter_sequence,
    sequence_parallel,
    tensor_parallel,
)
from repro.tensor import Tensor, functional as F

DIM, DEPTH, HEADS, B, N, C = 32, 2, 4, 2, 8, 5


# -- the layers under test ----------------------------------------------------
def build_tp_encoder(comm, state):
    enc = _load(ViTEncoder(DIM, DEPTH, HEADS, np.random.default_rng(0)), state)
    return tensor_parallel(ParallelContext(comm), enc)


def build_sp_encoder(comm, state):
    ctx = ParallelContext(comm)
    enc = _load(ViTEncoder(DIM, DEPTH, HEADS, np.random.default_rng(0)), state)
    return ctx, sequence_parallel(ctx, enc)


def build_tp_cross(comm, state):
    layer = _load(ChannelCrossAttention(DIM, HEADS, np.random.default_rng(0)), state)
    return tensor_parallel(ParallelContext(comm), layer)


# -- helpers --------------------------------------------------------------------
def _load(module, state):
    module.load_state_dict(state)
    return module


def _distinct_state(module, seed):
    """Perturb every entry so no two parameters share an initial value."""
    rng = np.random.default_rng(seed)
    return {
        k: (v + 0.1 * rng.standard_normal(v.shape)).astype(np.float32)
        for k, v in module.state_dict().items()
    }


class _Shards:
    """Hand-sliced shards of a master state for one rank of *size*."""

    def __init__(self, state, rank, size):
        self.state, self.rank, self.size = state, rank, size
        self.params = []

    def p(self, a):
        t = Tensor(np.ascontiguousarray(a), requires_grad=True)
        self.params.append(t)
        return t

    def full(self, key):
        return self.p(self.state[key])

    def cols(self, key, groups=1):
        """This rank's share of each of *groups* equal blocks of the last axis."""
        a = self.state[key]
        block = a.shape[-1] // groups
        step = block // self.size
        lo = self.rank * step
        return self.p(
            np.concatenate([a[..., g * block + lo : g * block + lo + step] for g in range(groups)], axis=-1)
        )

    def rows(self, key):
        a = self.state[key]
        step = a.shape[0] // self.size
        return self.p(a[self.rank * step : (self.rank + 1) * step])


def _ln(x, s, key):
    return F.layer_norm(x, s.full(f"{key}.weight"), s.full(f"{key}.bias"), eps=1e-5)


def tp_encoder_reference(comm, state, x):
    s = _Shards(state, comm.rank, comm.size)
    local_heads = HEADS // comm.size
    for i in range(DEPTH):
        blk = f"blocks.{i}."
        h = copy_to_group(comm, _ln(x, s, blk + "norm1"))
        qkv = h @ s.cols(blk + "attn.qkv.weight", 3) + s.cols(blk + "attn.qkv.bias", 3)
        q, k, v = (split_heads(t, local_heads) for t in qkv.split(3, axis=-1))
        a = merge_heads(scaled_dot_product_attention(q, k, v)) @ s.rows(blk + "attn.proj.weight")
        x = x + (reduce_from_group(comm, a) + s.full(blk + "attn.proj.bias"))
        h = copy_to_group(comm, _ln(x, s, blk + "norm2"))
        m = F.gelu(h @ s.cols(blk + "mlp.fc1.weight") + s.cols(blk + "mlp.fc1.bias"))
        m = m @ s.rows(blk + "mlp.fc2.weight")
        x = x + (reduce_from_group(comm, m) + s.full(blk + "mlp.fc2.bias"))
    return _ln(x, s, "norm"), s.params


def sp_encoder_reference(ctx, state, x):
    s = _Shards(state, 0, 1)
    for i in range(DEPTH):
        blk = f"blocks.{i}."
        h = _ln(x, s, blk + "norm1")
        qkv = h @ s.full(blk + "attn.qkv.weight") + s.full(blk + "attn.qkv.bias")
        q, k, v = (split_heads(t, HEADS) for t in qkv.split(3, axis=-1))
        q, k, v = (all_to_all_tokens_to_heads(ctx, t) for t in (q, k, v))
        o = all_to_all_heads_to_tokens(ctx, scaled_dot_product_attention(q, k, v))
        x = x + (merge_heads(o) @ s.full(blk + "attn.proj.weight") + s.full(blk + "attn.proj.bias"))
        h = _ln(x, s, blk + "norm2")
        m = F.gelu(h @ s.full(blk + "mlp.fc1.weight") + s.full(blk + "mlp.fc1.bias"))
        x = x + (m @ s.full(blk + "mlp.fc2.weight") + s.full(blk + "mlp.fc2.bias"))
    return _ln(x, s, "norm"), s.params


def _linear(w, b):
    """A ``Linear`` whose parameters are the given reference tensors."""
    lin = Linear(*w.shape, weight=w.data)
    lin.weight, lin.bias = w, b
    return lin


def tp_cross_reference(comm, state, x):
    s = _Shards(state, comm.rank, comm.size)
    q_proj = _linear(s.cols("q_proj.weight"), s.cols("q_proj.bias"))
    kv_proj = _linear(s.cols("kv_proj.weight", 2), s.cols("kv_proj.bias", 2))
    b, _, n, d = x.shape
    x = copy_to_group(comm, x)
    out = channel_query_attention(x, s.full("query_tokens"), q_proj, kv_proj, HEADS // comm.size)
    out = reduce_from_group(comm, out @ s.rows("proj.weight")) + s.full("proj.bias")
    return out.reshape(b, n, 1, d).transpose(0, 2, 1, 3).squeeze(1), s.params


def _run(forward, params, reference, x, cotangent):
    """Output, input grad and ``[(initial bytes, grad)]`` in parameter
    order, for the layer under test and then for the reference."""
    results = []
    for run in (lambda xi: (forward(xi), params), reference):
        xi = Tensor(x, requires_grad=True)
        out, ps = run(xi)
        (out * Tensor(cotangent)).sum().backward()
        results.append((out.data.copy(), xi.grad.copy(), [(p.data.tobytes(), p.grad.copy()) for p in ps]))
    return results


def _assert_bitwise(got, want, skip=()):
    out, dx, grads = got
    ref_out, ref_dx, ref_grads = want
    assert np.array_equal(out, ref_out)
    assert np.array_equal(dx, ref_dx)
    ref = dict(ref_grads)
    assert len(ref) == len(ref_grads) == len(grads)
    for i, (key, grad) in enumerate(grads):
        if key in skip:
            continue
        assert np.array_equal(grad, ref[key]), f"parameter {i} gradient differs"


@pytest.mark.parametrize("ranks", [2, 4])
def test_tp_encoder_is_bitwise_the_reference(ranks):
    state = _distinct_state(ViTEncoder(DIM, DEPTH, HEADS, np.random.default_rng(42)), 1)
    x = np.random.default_rng(2).standard_normal((B, N, DIM)).astype(np.float32)
    cot = np.random.default_rng(3).standard_normal((B, N, DIM)).astype(np.float32)

    def fn(comm):
        enc = build_tp_encoder(comm, state)
        got, want = _run(enc, enc.parameters(), lambda xi: tp_encoder_reference(comm, state, xi), x, cot)
        _assert_bitwise(got, want)

    run_spmd(fn, ranks)


@pytest.mark.parametrize("ranks", [2, 4])
def test_sp_encoder_is_bitwise_the_reference(ranks):
    state = _distinct_state(ViTEncoder(DIM, DEPTH, HEADS, np.random.default_rng(42)), 4)
    x = np.random.default_rng(5).standard_normal((B, N, DIM)).astype(np.float32)
    cot = np.random.default_rng(6).standard_normal((B, N, DIM)).astype(np.float32)

    def fn(comm):
        ctx, enc = build_sp_encoder(comm, state)

        def reference(xi):
            out, params = sp_encoder_reference(ctx, state, scatter_sequence(ctx, xi))
            return gather_sequence(ctx, out), params

        def forward(xi):
            return gather_sequence(ctx, enc(scatter_sequence(ctx, xi)))

        got, want = _run(forward, enc.parameters(), reference, x, cot)
        _assert_bitwise(got, want)

    run_spmd(fn, ranks)


@pytest.mark.parametrize("ranks", [2, 4])
def test_tp_cross_attention_is_bitwise_the_reference(ranks):
    """Everything but the replicated query tokens, whose gradient the
    reference leaves at this rank's heads' share."""
    state = _distinct_state(ChannelCrossAttention(DIM, HEADS, np.random.default_rng(9)), 7)
    x = np.random.default_rng(8).standard_normal((B, C, 4, DIM)).astype(np.float32)
    cot = np.random.default_rng(10).standard_normal((B, 4, DIM)).astype(np.float32)

    def fn(comm):
        layer = build_tp_cross(comm, state)
        got, want = _run(layer, layer.parameters(), lambda xi: tp_cross_reference(comm, state, xi), x, cot)
        _assert_bitwise(got, want, skip={state["query_tokens"].tobytes()})

    run_spmd(fn, ranks)
