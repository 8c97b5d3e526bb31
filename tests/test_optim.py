"""Optimizer tests: convergence, state accounting, clipping."""

import numpy as np
import pytest

from repro.tensor import AdamW, SGD, Tensor, clip_grad_norm
from repro.tensor.memory import MemoryTracker, track_memory


def quadratic_problem(seed=0):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(8).astype(np.float32)
    x = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
    return x, target


def run(opt_cls, steps=200, **kwargs):
    x, target = quadratic_problem()
    opt = opt_cls([x], **kwargs)
    for _ in range(steps):
        opt.zero_grad()
        loss = ((x - Tensor(target)) ** 2).sum()
        loss.backward()
        opt.step()
    return x, target


class TestSGD:
    def test_converges(self):
        x, target = run(SGD, lr=0.1)
        np.testing.assert_allclose(x.data, target, atol=1e-3)

    def test_momentum_converges(self):
        x, target = run(SGD, lr=0.05, momentum=0.9)
        np.testing.assert_allclose(x.data, target, atol=1e-3)

    def test_weight_decay_shrinks(self):
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        opt = SGD([x], lr=0.1, weight_decay=0.5)
        x.grad = np.zeros(4, dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(x.data, 0.95 * np.ones(4), rtol=1e-6)


class TestAdamW:
    def test_converges(self):
        x, target = run(AdamW, steps=400, lr=0.05, weight_decay=0.0)
        np.testing.assert_allclose(x.data, target, atol=1e-2)

    def test_decoupled_weight_decay(self):
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        opt = AdamW([x], lr=0.1, weight_decay=0.5)
        x.grad = np.zeros(4, dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(x.data, 0.95 * np.ones(4), rtol=1e-5)

    def test_state_bytes_counts_moments(self):
        x = Tensor(np.zeros(100, dtype=np.float32), requires_grad=True)
        opt = AdamW([x])
        x.grad = np.ones(100, dtype=np.float32)
        opt.step()
        assert opt.state_bytes() == 2 * 100 * 4  # m and v, fp32

    def test_optimizer_state_tracked_by_memory_tracker(self):
        tracker = MemoryTracker()
        with track_memory(tracker):
            x = Tensor(np.zeros(1000, dtype=np.float32), requires_grad=True)
            opt = AdamW([x])
            x.grad = np.ones(1000, dtype=np.float32)
            opt.step()
        assert tracker.peak_bytes >= 3 * 1000 * 4  # param + m + v

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_is_bitwise_the_textbook_formula(self, weight_decay, dtype):
        # The scratch-buffer step must reproduce the allocating formula bit
        # for bit (elastic N->M->N gates compare optimizer bytes exactly).
        # (300, 250) is larger than one optimizer block.  The (5,) parameter
        # has no gradient in the last three steps: its data and moments must
        # stay untouched, whatever its last gradient left behind.
        rng = np.random.default_rng(3)
        shapes = [(7, 5), (5,), (), (2, 3, 4), (300, 250), (3,)]
        params = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True, dtype=dtype)
                  for s in shapes]
        opt = AdamW(params, lr=3e-3, weight_decay=weight_decay)
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros(s, dtype=np.float32) for s in shapes]
        ref_v = [np.zeros(s, dtype=np.float32) for s in shapes]
        for t in range(1, 6):
            opt.lr = lr = 3e-3 / t
            bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for i, (p, rp, m, v) in enumerate(zip(params, ref_p, ref_m, ref_v)):
                if i == 1 and t >= 3:
                    p.grad = None
                    continue
                g = p.grad = np.asarray(rng.standard_normal(p.shape), dtype=dtype)
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * (g * g)
                if weight_decay:
                    rp *= 1.0 - lr * weight_decay
                rp -= lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
            opt.step()
            state = opt.state_dict()
            for i, p in enumerate(params):
                assert np.array_equal(p.data, ref_p[i])
                assert np.array_equal(state["m"][i], ref_m[i])
                assert np.array_equal(state["v"][i], ref_v[i])

    def test_skips_params_without_grad(self):
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        opt = AdamW([x], weight_decay=0.0)
        opt.step()  # no grad: no update, no crash
        np.testing.assert_allclose(x.data, np.ones(4))

    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            AdamW([])


class TestClipGradNorm:
    @pytest.mark.parametrize("owned", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_norm_is_bitwise_the_per_parameter_float64_sum(self, dtype, owned):
        # Reference: each grad's float64 squares summed by numpy, then a
        # sequential Python += in parameter order (not sum(), which
        # compensates on newer CPython).  With *owned* an optimizer holds
        # the parameters; (300, 250) spans more than one of its blocks and
        # the (3,) parameter has no gradient.
        rng = np.random.default_rng(5)
        shapes = [(7, 5), (300, 250), (), (3,), (2, 3, 40), (1000,)]
        params = [Tensor(np.zeros(s, dtype=dtype), requires_grad=True, dtype=dtype)
                  for s in shapes]
        if owned:
            SGD(params)
        for i, p in enumerate(params):
            p.grad = None if i == 3 else np.asarray(rng.standard_normal(p.shape) * 3, dtype=dtype)
        grads = [None if p.grad is None else p.grad.copy() for p in params]
        sq = 0.0
        for g in grads:
            if g is not None:
                sq += float((g.astype(np.float64) ** 2).sum())
        want = float(np.sqrt(sq))
        assert clip_grad_norm(params, 1.0) == want
        for p, g in zip(params, grads):
            if g is None:
                assert p.grad is None
            else:
                assert np.array_equal(p.grad, g * (1.0 / want))

    def test_clips_large(self):
        x = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        x.grad = np.full(4, 10.0, dtype=np.float32)
        norm = clip_grad_norm([x], 1.0)
        np.testing.assert_allclose(norm, 20.0)
        np.testing.assert_allclose(np.linalg.norm(x.grad), 1.0, rtol=1e-5)

    def test_leaves_small(self):
        x = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        x.grad = np.full(4, 0.1, dtype=np.float32)
        clip_grad_norm([x], 10.0)
        np.testing.assert_allclose(x.grad, 0.1, rtol=1e-6)
