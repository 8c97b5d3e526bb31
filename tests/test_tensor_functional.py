"""Tests for NN functional primitives (softmax, gelu, layer_norm, losses)."""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, functional as F

RNG = np.random.default_rng(7)


def r(*shape):
    return RNG.standard_normal(shape)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        s = F.softmax(Tensor(r(4, 7)))
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), atol=1e-6)

    def test_stability_large_logits(self):
        s = F.softmax(Tensor(np.array([[1e4, 1e4 - 1.0]])))
        assert np.isfinite(s.data).all()

    def test_grads(self):
        check_gradients(lambda x: F.softmax(x), [r(3, 5)])
        check_gradients(lambda x: F.softmax(x, axis=0), [r(3, 5)])

    def test_shift_invariance(self):
        x = r(2, 6)
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-6)


class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        x = r(3, 5)
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data, np.log(F.softmax(Tensor(x)).data), atol=1e-6
        )

    def test_grads(self):
        check_gradients(lambda x: F.log_softmax(x), [r(3, 5)])


class TestGelu:
    def test_grads_exact(self):
        check_gradients(lambda x: F.gelu(x), [r(4, 4)])

    def test_approximate_close_to_exact(self):
        x = Tensor(r(100))
        np.testing.assert_allclose(
            F.gelu(x, approximate=True).data, F.gelu(x).data, atol=2e-3
        )

    def test_known_values(self):
        out = F.gelu(Tensor(np.array([0.0])))
        np.testing.assert_allclose(out.data, [0.0], atol=1e-7)


class TestLayerNorm:
    def test_normalises_last_axis(self):
        x = Tensor(r(6, 32) * 5 + 3)
        out = F.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_grads(self):
        w, b = r(6), r(6)
        check_gradients(lambda x, w, b: F.layer_norm(x, w, b), [r(3, 6), w, b], atol=5e-4)

    def test_affine_applies(self):
        x = Tensor(r(2, 4))
        out = F.layer_norm(x, Tensor(np.full(4, 2.0)), Tensor(np.full(4, 1.0)))
        base = F.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, base.data * 2.0 + 1.0, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 6), (4, 16, 128), (2, 5, 33), (7, 257)])
    def test_bitwise_the_mean_formula(self, dtype, shape):
        """Output and every grad bitwise equal to the same formula with
        ``ndarray.mean`` for its four means (``layer_norm`` uses sum / n)."""
        rng = np.random.default_rng(11)
        x, g = (rng.standard_normal(shape).astype(dtype) * 3 + 1 for _ in range(2))
        w, b = (rng.standard_normal(shape[-1:]).astype(dtype) for _ in range(2))
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
        x_hat = centered * inv_std
        gw = g * w
        want = {
            "out": (x_hat * w + b).astype(dtype),
            "x": inv_std * (gw - gw.mean(axis=-1, keepdims=True)
                            - x_hat * (gw * x_hat).mean(axis=-1, keepdims=True)),
        }
        xt, wt, bt = (Tensor(a, requires_grad=True, dtype=dtype) for a in (x, w, b))
        out = F.layer_norm(xt, wt, bt)
        out.backward(g)
        for name, got in (("out", out.data), ("x", xt.grad)):
            assert got.dtype == want[name].dtype
            assert np.array_equal(got.view(np.uint8), want[name].view(np.uint8)), name


class TestDropout:
    def test_identity_in_eval(self):
        x = Tensor(r(10, 10))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_preserves_expectation(self):
        x = Tensor(np.ones((2000,)))
        out = F.dropout(x, 0.3, np.random.default_rng(0), training=True)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_grad_masks(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        out = F.dropout(x, 0.5, np.random.default_rng(1))
        out.sum().backward()
        # Gradient is 0 where dropped, 1/keep where kept.
        assert set(np.unique(x.grad)).issubset({0.0, 2.0})


class TestLosses:
    def test_mse_zero_when_equal(self):
        x = Tensor(r(3, 4))
        assert F.mse_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_mse_grads(self):
        t = r(3, 4)
        check_gradients(lambda p: F.mse_loss(p, Tensor(t, dtype=np.float64)), [r(3, 4)])

    def test_masked_mse_only_masked(self):
        pred = Tensor(np.zeros((1, 4, 2)))
        target = Tensor(np.ones((1, 4, 2)))
        mask = np.array([1.0, 0.0, 0.0, 0.0])[None, :, None]
        loss = F.masked_mse_loss(pred, target, mask)
        np.testing.assert_allclose(loss.item(), 1.0)

    def test_masked_mse_empty_mask_raises(self):
        with pytest.raises(ValueError):
            F.masked_mse_loss(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), np.zeros((1, 2)))

    def test_weighted_mse_normalised_weights(self):
        pred, target = Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 3)))
        w = np.array([1.0, 2.0, 3.0])
        # Weights normalise to mean 1 so a constant error of 1 gives loss 1.
        np.testing.assert_allclose(F.weighted_mse_loss(pred, target, w).item(), 1.0, rtol=1e-6)

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-4

    def test_cross_entropy_grads(self):
        labels = np.array([0, 2, 1])
        check_gradients(lambda x: F.cross_entropy(x, labels), [r(3, 4)])
