"""The fused channel-stage kernels against the composite chains they replace.

``tokenize_channels`` (tokenize + bias + channel IDs) and ``pool_channels``
(scores, softmax, dropout, pooling, value projection) each run as one
autograd node with a hand-written backward.  The composite forms below are
the op-by-op chains they replaced, kept here as the reference: outputs,
input gradients, every parameter gradient and the FLOP books must match
them bitwise (``np.array_equal``), not within a tolerance.
"""

import numpy as np
import pytest

import repro.nn.attention as attention
import repro.nn.patch_embed as patch_embed
from repro.core import DCHAG, DCHAGConfig
from repro.dist import run_spmd
from repro.models import SerialChannelFrontend
from repro.nn import ChannelCrossAttention, ChannelIDEmbedding, Module, PatchTokenizer, patchify
from repro.tensor import FlopCounter, Tensor, count_flops, functional as F

# The e2e benchmark's train_serial front end: B=4, C=32, 32x32 images with
# 4x4 patches (N=64), D=128, 4 heads.
SERIAL = dict(batch=4, channels=32, image=32, patch=4, dim=128, heads=4)


def composite_tokens(images, patch, weight, bias, channel_ids=None):
    """tokenize → + bias → + channel IDs, one node per op."""
    b, c = images.shape[:2]
    d = weight.shape[-1]
    x = Tensor(patchify(images, patch)).transpose(1, 0, 2, 3)      # [C, B, N, pp]
    n = x.shape[2]
    tokens = x.reshape(c, b * n, patch * patch) @ weight             # [C, B*N, D]
    tokens = tokens.reshape(c, b, n, d).transpose(1, 0, 2, 3)
    tokens = tokens + bias.reshape(1, c, 1, d)
    if channel_ids is not None:
        tokens = tokens + channel_ids.reshape(1, c, 1, d)
    return tokens


def composite_pool(x, w_score, b_score, w_v, b_v, num_queries, dropout=None):
    """The absorbed-query token side, one node per op."""
    b, c, n, d = x.shape
    heads, hd, nq = w_v.shape[0], w_v.shape[-1], num_queries
    tokens = x.transpose(0, 2, 1, 3).reshape(b * n, c, d)            # [B*N, C, D]
    scores = tokens @ w_score + b_score                              # [B*N, C, h*Q]
    attn = F.softmax(scores.swapaxes(-1, -2), axis=-1)               # [B*N, h*Q, C]
    if dropout is not None:
        attn = dropout(attn)
    pooled = attn @ tokens                                           # [B*N, h*Q, D]

    def by_head(t):
        return t.reshape(b * n, heads, nq, -1).transpose(1, 0, 2, 3).reshape(heads, b * n * nq, -1)

    out = by_head(pooled) @ w_v + by_head(attn.sum(axis=-1, keepdims=True)) * b_v
    return out.reshape(heads, b * n, nq, hd).transpose(1, 2, 0, 3).reshape(b * n, nq, heads * hd)


@pytest.fixture
def composite(monkeypatch):
    """Route every call site through the composite chains instead."""

    def use():
        monkeypatch.setattr(patch_embed, "tokenize_channels", composite_tokens)
        monkeypatch.setattr(attention, "pool_channels", composite_pool)

    return use


def assert_bitwise(want, got):
    assert want.keys() == got.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert np.array_equal(got[name], want[name]), name


def run(module, inputs, upstream_seed=9):
    """Forward, backward through a fixed random upstream gradient, and the
    FLOP books; returns every array that must match."""
    module.zero_grad()
    counter = FlopCounter()
    with count_flops(counter):
        out = module(*inputs)
        upstream = np.random.default_rng(upstream_seed).standard_normal(out.shape)
        (out * Tensor(upstream.astype(out.dtype))).sum().backward()
    arrays = {"out": out.data}
    arrays.update({n: p.grad for n, p in module.named_parameters()})
    arrays.update({f"{k}.grad": t.grad for k, t in enumerate(inputs) if isinstance(t, Tensor)})
    arrays["flops"] = np.array(sorted(counter.by_category.items()), dtype=object)
    return arrays


def randomised(module, seed):
    """Biases start at zero: randomise every parameter so each grad is live."""
    rng = np.random.default_rng(seed)
    for p in module.parameters():
        p.data[...] = rng.standard_normal(p.shape).astype(p.dtype) * 0.1
    return module


class TokenStage(Module):
    """The tokenizer and (optionally) the channel-ID table as one module."""

    def __init__(self, tokenizer, channel_ids=None):
        super().__init__()
        self.tokenizer = tokenizer
        self.channel_ids = channel_ids

    def forward(self, images):
        return self.tokenizer(images, self.channel_ids)


class TestTokenizeKernel:
    @pytest.mark.parametrize("with_ids", [False, True])
    def test_train_serial_shape(self, composite, with_ids):
        s = SERIAL
        rng = np.random.default_rng(0)
        stage = TokenStage(
            PatchTokenizer(s["channels"], s["patch"], s["dim"], rng),
            ChannelIDEmbedding(s["channels"], s["dim"], rng) if with_ids else None,
        )
        randomised(stage, 1)
        images = rng.standard_normal(
            (s["batch"], s["channels"], s["image"], s["image"])).astype(np.float32)
        got = run(stage, [images])
        composite()
        assert_bitwise(run(stage, [images]), got)

    def test_is_one_node_over_a_channel_major_buffer(self):
        rng = np.random.default_rng(0)
        tok = PatchTokenizer(3, 2, 8, rng)
        ids = ChannelIDEmbedding(3, 8, rng)
        out = tok(rng.standard_normal((2, 3, 4, 6)).astype(np.float32), ids)
        assert out.op == "tokenize"
        assert set(map(id, out._parents)) == {id(tok.weight), id(tok.bias), id(ids.table)}
        # [B, C, N, D] view of a contiguous [B*N, C, D] buffer
        assert out.data.transpose(0, 2, 1, 3).reshape(2 * 6, 3, 8).base is not None
        assert out.data.base.flags.c_contiguous

    def test_rejects_mismatched_id_table(self):
        rng = np.random.default_rng(0)
        tok = PatchTokenizer(3, 2, 8, rng)
        with pytest.raises(ValueError, match="expected 4 channels, got 3"):
            tok(np.zeros((1, 3, 4, 4), dtype=np.float32), ChannelIDEmbedding(4, 8, rng))


class TestPoolKernel:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("queries", [1, 3])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_matches_composite(self, composite, dropout, queries, training):
        rng = np.random.default_rng(2)
        layer = randomised(
            ChannelCrossAttention(32, 4, rng, num_queries=queries, dropout=dropout), 3)
        layer.train(training)
        x = rng.standard_normal((2, 5, 6, 32)).astype(np.float32)

        def once():
            if layer.attn_drop is not None:
                layer.attn_drop.rng = np.random.default_rng(5)  # the same mask
            return run(layer, [Tensor(x, requires_grad=True)])

        got = once()
        composite()
        assert_bitwise(once(), got)

    def test_train_serial_front_end(self, composite):
        """Tokenize → pool at train_serial's shape: the kernels chained, so
        the pooling reads the tokenizer's buffer without a copy."""
        s = SERIAL
        front = randomised(SerialChannelFrontend(
            s["channels"], s["patch"], s["dim"], s["heads"], np.random.default_rng(0)), 1)
        images = np.random.default_rng(4).standard_normal(
            (s["batch"], s["channels"], s["image"], s["image"])).astype(np.float32)
        got = run(front, [images])
        composite()
        assert_bitwise(run(front, [images]), got)

    def test_is_one_node(self):
        layer = ChannelCrossAttention(8, 2, np.random.default_rng(0))
        x = Tensor(np.ones((1, 3, 2, 8), dtype=np.float32), requires_grad=True)
        out = attention.channel_query_attention(
            x, layer.query_tokens, layer.q_proj, layer.kv_proj, layer.heads)
        assert out.op == "channel_pool" and out.shape == (2, 1, 8)
        assert out._parents[0] is x


@pytest.mark.parametrize("kind", ["cross", "linear"])
def test_dchag_tp2_sharded_final(composite, kind):
    """A D-CHAG shape: 16 channels over tp=2 (8 local, D=32), the final
    layer TP-sharded; every rank's output and gradients match bitwise."""
    config = DCHAGConfig(channels=16, patch=4, dim=32, heads=4, kind=kind, tp_shard_final=True)
    images = np.random.default_rng(6).standard_normal((2, 16, 8, 8)).astype(np.float32)

    def rank(comm):
        return run(randomised(DCHAG(comm, None, config, rng_seed=3), 7), [images])

    got = run_spmd(rank, 2)
    composite()
    for want_r, got_r in zip(run_spmd(rank, 2), got):
        assert_bitwise(want_r, got_r)
