"""Tests for attention layers, tokenization, and the MAE decoder."""

import numpy as np
import pytest

from repro.nn import (
    ChannelCrossAttention,
    Dropout,
    Linear,
    LinearChannelMixer,
    MAEDecoder,
    MultiHeadSelfAttention,
    PatchTokenizer,
    patchify,
    random_masking,
    unpatchify,
)
from repro.nn.attention import (
    channel_query_attention,
    merge_heads,
    scaled_dot_product_attention,
    split_heads,
)
from repro.tensor import MemoryTracker, Tensor, count_flops, functional as F, track_memory
from repro.tensor.grad_check import check_gradients

RNG = np.random.default_rng(11)


def manual_single_head_attention(x, qkv_w, qkv_b, proj_w, proj_b):
    """Reference implementation for heads=1."""
    qkv = x @ qkv_w + qkv_b
    d = x.shape[-1]
    q, k, v = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
    scores = q @ k.swapaxes(-1, -2) / np.sqrt(d)
    scores = scores - scores.max(axis=-1, keepdims=True)
    attn = np.exp(scores)
    attn = attn / attn.sum(axis=-1, keepdims=True)
    return attn @ v @ proj_w + proj_b


class TestSelfAttention:
    def test_matches_manual_single_head(self):
        mha = MultiHeadSelfAttention(8, 1, RNG)
        x = RNG.standard_normal((2, 5, 8)).astype(np.float32)
        expect = manual_single_head_attention(
            x, mha.qkv.weight.data, mha.qkv.bias.data, mha.proj.weight.data, mha.proj.bias.data
        )
        np.testing.assert_allclose(mha(Tensor(x)).data, expect, rtol=1e-4, atol=1e-5)

    def test_multihead_shape_and_grads(self):
        mha = MultiHeadSelfAttention(16, 4, RNG)
        x = Tensor(RNG.standard_normal((2, 6, 16)).astype(np.float32), requires_grad=True)
        out = mha(x)
        assert out.shape == (2, 6, 16)
        out.sum().backward()
        assert x.grad is not None and mha.qkv.weight.grad is not None

    def test_permutation_equivariance(self):
        """Self-attention without positions commutes with token permutation."""
        mha = MultiHeadSelfAttention(8, 2, RNG)
        x = RNG.standard_normal((1, 5, 8)).astype(np.float32)
        perm = np.array([3, 1, 4, 0, 2])
        out = mha(Tensor(x)).data
        out_perm = mha(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out[:, perm], out_perm, rtol=1e-4, atol=1e-5)

    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3, RNG)


class TestChannelCrossAttention:
    def test_reduces_channels(self):
        agg = ChannelCrossAttention(8, 2, RNG)
        x = Tensor(RNG.standard_normal((2, 6, 4, 8)).astype(np.float32))
        assert agg(x).shape == (2, 4, 8)

    def test_multi_query_keeps_axis(self):
        agg = ChannelCrossAttention(8, 2, RNG, num_queries=3)
        x = Tensor(RNG.standard_normal((1, 6, 4, 8)).astype(np.float32))
        assert agg(x).shape == (1, 3, 4, 8)

    def test_channel_permutation_invariance(self):
        """Aggregation over channels (no channel IDs here) is a set operation."""
        agg = ChannelCrossAttention(8, 2, RNG)
        x = RNG.standard_normal((1, 5, 3, 8)).astype(np.float32)
        perm = np.array([4, 2, 0, 3, 1])
        a = agg(Tensor(x)).data
        b = agg(Tensor(x[:, perm])).data
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-5)

    def test_spatial_locations_independent(self):
        """Channel aggregation must not mix spatial positions."""
        agg = ChannelCrossAttention(8, 2, RNG)
        x = RNG.standard_normal((1, 4, 6, 8)).astype(np.float32)
        base = agg(Tensor(x)).data
        x2 = x.copy()
        x2[:, :, 3, :] = RNG.standard_normal((1, 4, 8))
        out2 = agg(Tensor(x2)).data
        np.testing.assert_allclose(out2[:, :3], base[:, :3], rtol=1e-5)
        np.testing.assert_allclose(out2[:, 4:], base[:, 4:], rtol=1e-5)
        assert not np.allclose(out2[:, 3], base[:, 3])

    def test_gradients_flow(self):
        agg = ChannelCrossAttention(8, 2, RNG)
        x = Tensor(RNG.standard_normal((1, 4, 3, 8)).astype(np.float32), requires_grad=True)
        agg(x).sum().backward()
        assert x.grad is not None and agg.query_tokens.grad is not None


def explicit_cross_attention(layer, x, dropout=None):
    """The explicit q/k/v formulation the layer used before the query was
    absorbed — every channel token projected to K and V, then a Q-row
    attention.  Lives here only, as the oracle for the absorbed form."""
    b, c, n, d = x.shape
    h, nq = layer.heads, layer.num_queries
    tokens = x.transpose(0, 2, 1, 3).reshape(b * n, c, d)
    q_in = layer.query_tokens.expand_dims(0).broadcast_to((b * n, nq, d))
    q = split_heads(layer.q_proj(q_in), h)
    k, v = layer.kv_proj(tokens).split(2, axis=-1)
    out = scaled_dot_product_attention(q, split_heads(k, h), split_heads(v, h), dropout)
    out = layer.proj(merge_heads(out)).reshape(b, n, nq, d).transpose(0, 2, 1, 3)
    return out.squeeze(1) if nq == 1 else out


def _graph_ops(root):
    ops, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.append(node.op)
            stack.extend(node._parents)
    return ops


class TestAbsorbedQueryEquivalence:
    """The absorbed form is the explicit one re-associated: float64 agreement
    on the output, the input gradient and every parameter gradient."""

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("channels", [1, 5])
    @pytest.mark.parametrize("queries", [1, 3])
    def test_matches_explicit_form_float64(self, queries, channels, heads, dropout):
        rng = np.random.default_rng(3)
        layer = ChannelCrossAttention(8, heads, rng, num_queries=queries, dropout=dropout)
        for p in layer.parameters():  # biases start at zero: randomise everything
            p.data = rng.standard_normal(p.shape) * 0.5
        x = rng.standard_normal((2, channels, 3, 8))
        weight = rng.standard_normal(layer(Tensor(x, dtype=np.float64)).shape)

        def run(forward):
            layer.zero_grad()
            xt = Tensor(x, requires_grad=True, dtype=np.float64)
            out = forward(xt)
            (out * Tensor(weight, dtype=np.float64)).sum().backward()
            return [out.data, xt.grad] + [p.grad for p in layer.parameters()]

        def explicit(xt):
            drop = Dropout(dropout, np.random.default_rng(5)) if dropout else None
            return explicit_cross_attention(layer, xt, drop)

        def absorbed(xt):
            if dropout:
                layer.attn_drop.rng = np.random.default_rng(5)  # the same mask
            return layer(xt)

        names = ["out", "x.grad"] + [n for n, _ in layer.named_parameters()]
        for name, want, got in zip(names, run(explicit), run(absorbed)):
            assert got.dtype == np.float64
            # atol: the key bias's gradient is zero up to rounding in both forms
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-13, err_msg=name)

    @pytest.mark.parametrize("queries,heads", [(1, 2), (3, 2), (1, 1)])
    def test_numerical_jacobian(self, queries, heads):
        rng = np.random.default_rng(4)
        d = 4

        def linear(w, b):
            lin = Linear(*w.shape, weight=np.zeros(w.shape), bias_value=np.zeros(b.shape))
            lin.weight, lin.bias = w, b
            return lin

        def fn(x, query, q_w, q_b, kv_w, kv_b):
            return channel_query_attention(x, query, linear(q_w, q_b), linear(kv_w, kv_b), heads)

        shapes = [(1, 3, 2, d), (queries, d), (d, d), (d,), (d, 2 * d), (2 * d,)]
        check_gradients(fn, [rng.standard_normal(s) for s in shapes])

    def test_rejects_wrong_trailing_dim(self):
        layer = ChannelCrossAttention(8, 2, RNG)
        with pytest.raises(ValueError, match="expected dim 8, got 6"):
            layer(Tensor(np.zeros((1, 4, 3, 6), dtype=np.float32)))


class TestAbsorbedQueryCost:
    """Pins on what the absorbed form must not do, at the e2e benchmark's
    ``train_serial`` shape (B=4, C=32, N=64, D=128, 4 heads, Q=1)."""

    B, C, N, D, H, Q = 4, 32, 64, 128, 4, 1

    def _layer_and_input(self):
        rng = np.random.default_rng(0)
        layer = ChannelCrossAttention(self.D, self.H, rng, num_queries=self.Q)
        x = rng.standard_normal((self.B, self.C, self.N, self.D)).astype(np.float32)
        return layer, x

    def test_forward_matmul_flops_match_closed_form(self):
        b_n, c, d, h, q = self.B * self.N, self.C, self.D, self.H, self.Q
        layer, x = self._layer_and_input()
        with count_flops() as counter:
            layer(Tensor(x))
        # scores + pooling + values + proj per location; q_proj, W_k q, b_k.q once
        closed_form = b_n * (2 * c * d * h * q + 2 * h * q * c * d + 4 * q * d * d) + (
            4 * q * d * d + 2 * q * d
        )
        assert counter.by_category["matmul"] == closed_form
        assert closed_form < 2 * b_n * (2 * c * d * d + 2 * q * c * d) / 10

    def test_no_kv_tensor_and_bounded_peak(self):
        layer, x = self._layer_and_input()
        token_bytes = x.nbytes  # the [B*N, C, D] token tensor: 4 MiB
        sizes = []

        class Recording(MemoryTracker):
            def allocate(self, nbytes):
                sizes.append(nbytes)
                super().allocate(nbytes)

        xt = Tensor(x, requires_grad=True)  # the input is the caller's, not the layer's
        with track_memory(Recording()) as tracker:
            layer(xt).sum().backward()
        assert 2 * token_bytes not in sizes  # B*N*C*2D float32 elements
        assert max(sizes) == token_bytes
        assert tracker.peak_bytes <= 3 * token_bytes

    def test_query_projected_once_without_broadcast(self):
        layer, x = self._layer_and_input()
        seen = []
        project = layer.q_proj.forward
        layer.q_proj.forward = lambda t: seen.append(t.shape) or project(t)
        out = layer(Tensor(x, requires_grad=True))
        assert seen == [(self.Q, self.D)]
        assert "broadcast_to" not in _graph_ops(out)


class TestLinearChannelMixer:
    def test_is_weighted_channel_sum(self):
        mix = LinearChannelMixer(3, 1, RNG)
        x = RNG.standard_normal((2, 3, 4, 5)).astype(np.float32)
        out = mix(Tensor(x)).data
        expect = np.einsum("oc,bcnd->bond", mix.weight.data, x)[:, 0] + mix.bias.data[0]
        np.testing.assert_allclose(out, expect, rtol=1e-5, atol=1e-6)

    def test_multi_output(self):
        mix = LinearChannelMixer(4, 2, RNG)
        x = Tensor(RNG.standard_normal((1, 4, 3, 5)).astype(np.float32))
        assert mix(x).shape == (1, 2, 3, 5)

    def test_init_near_average(self):
        mix = LinearChannelMixer(10, 1, np.random.default_rng(0))
        np.testing.assert_allclose(mix.weight.data.sum(), 1.0, atol=0.5)

    def test_channel_mismatch_raises(self):
        mix = LinearChannelMixer(3, 1, RNG)
        with pytest.raises(ValueError):
            mix(Tensor(np.zeros((1, 4, 2, 5), dtype=np.float32)))


class TestPatchTokenizer:
    def test_patchify_unpatchify_inverse(self):
        x = RNG.standard_normal((2, 3, 16, 24)).astype(np.float32)
        np.testing.assert_allclose(unpatchify(patchify(x, 4), 4, 16, 24), x)

    def test_patchify_rejects_indivisible(self):
        with pytest.raises(ValueError):
            patchify(np.zeros((1, 1, 10, 10)), 4)

    def test_tokenizer_matches_per_channel_matmul(self):
        tok = PatchTokenizer(3, 4, 8, RNG)
        imgs = RNG.standard_normal((2, 3, 8, 8)).astype(np.float32)
        out = tok(imgs).data
        patches = patchify(imgs, 4)  # [2, 3, 4, 16]
        for c in range(3):
            expect = patches[:, c] @ tok.weight.data[c] + tok.bias.data[c]
            np.testing.assert_allclose(out[:, c], expect, rtol=1e-4, atol=1e-5)

    def test_channels_are_independent(self):
        tok = PatchTokenizer(4, 4, 8, RNG)
        imgs = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        base = tok(imgs).data
        imgs2 = imgs.copy()
        imgs2[:, 2] = 0.0
        out2 = tok(imgs2).data
        np.testing.assert_allclose(out2[:, [0, 1, 3]], base[:, [0, 1, 3]], rtol=1e-5)

    def test_wrong_channel_count(self):
        tok = PatchTokenizer(3, 4, 8, RNG)
        with pytest.raises(ValueError):
            tok(np.zeros((1, 5, 8, 8), dtype=np.float32))


class TestMasking:
    def test_mask_partition(self):
        keep, masked, mask = random_masking(16, 0.75, np.random.default_rng(0))
        assert len(keep) == 4 and len(masked) == 12
        assert set(keep) | set(masked) == set(range(16))
        np.testing.assert_allclose(mask[keep], 0.0)
        np.testing.assert_allclose(mask[masked], 1.0)

    def test_keeps_at_least_one(self):
        keep, _, _ = random_masking(4, 0.999, np.random.default_rng(0))
        assert len(keep) >= 1

    def test_deterministic_given_rng(self):
        a = random_masking(32, 0.5, np.random.default_rng(7))
        b = random_masking(32, 0.5, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])


class TestMAEDecoder:
    def test_output_shape_and_grads(self):
        dec = MAEDecoder(
            encoder_dim=8, decoder_dim=16, depth=1, heads=2,
            num_tokens=9, patch=2, out_channels=3, rng=RNG,
        )
        keep = np.array([0, 2, 5])
        vis = Tensor(RNG.standard_normal((2, 3, 8)).astype(np.float32), requires_grad=True)
        out = dec(vis, keep)
        assert out.shape == (2, 9, 2 * 2 * 3)
        out.sum().backward()
        assert vis.grad is not None and dec.mask_token.grad is not None

    def test_mask_token_fills_hidden_positions(self):
        dec = MAEDecoder(8, 16, 0, 2, num_tokens=4, patch=2, out_channels=1, rng=RNG)
        dec.pos.table.data[:] = 0.0  # remove positional differences
        keep = np.array([1])
        vis = Tensor(np.zeros((1, 1, 8), dtype=np.float32))
        # With depth 0 the decoder is embed + scatter + norm + head; hidden
        # positions all receive the same mask token -> identical outputs.
        out = dec(vis, keep).data
        np.testing.assert_allclose(out[0, 0], out[0, 2], rtol=1e-5)
        np.testing.assert_allclose(out[0, 2], out[0, 3], rtol=1e-5)
