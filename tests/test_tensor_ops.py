"""Gradient and semantics tests for the core autograd ops."""

import operator

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, no_grad

RNG = np.random.default_rng(1234)


def r(*shape):
    return RNG.standard_normal(shape)


class TestArithmetic:
    def test_add_grads(self):
        check_gradients(lambda a, b: a + b, [r(3, 4), r(3, 4)])

    def test_add_broadcast_grads(self):
        check_gradients(lambda a, b: a + b, [r(3, 4), r(4)])
        check_gradients(lambda a, b: a + b, [r(2, 1, 4), r(3, 1)])

    def test_sub_grads(self):
        check_gradients(lambda a, b: a - b, [r(3, 4), r(1, 4)])

    def test_mul_grads(self):
        check_gradients(lambda a, b: a * b, [r(3, 4), r(3, 4)])

    def test_div_grads(self):
        check_gradients(lambda a, b: a / b, [r(3, 4), np.abs(r(3, 4)) + 1.0])

    def test_pow_grads(self):
        check_gradients(lambda a: a**3, [r(3, 4)])

    def test_neg_grads(self):
        check_gradients(lambda a: -a, [r(5)])

    def test_scalar_operands(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = (2.0 * x + 1.0) / 2.0 - 0.5
        y.backward(np.ones(2))
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_rsub_rdiv(self):
        x = Tensor(np.array([2.0, 4.0]))
        np.testing.assert_allclose((1.0 - x).data, [-1.0, -3.0])
        np.testing.assert_allclose((8.0 / x).data, [4.0, 2.0])

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 7
        y.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [7.0])


class TestConstantOperands:
    """A binary op's backward computes no gradient for an operand that does
    not require one (``(q @ kᵀ) * scale``, the loss mask, ``pred - target``)."""

    @pytest.mark.parametrize(
        "op", [operator.add, operator.sub, operator.mul, operator.truediv],
        ids=["add", "sub", "mul", "div"],
    )
    @pytest.mark.parametrize("constant_first", [False, True])
    def test_no_unbroadcast_towards_a_constant(self, monkeypatch, op, constant_first):
        import repro.tensor.tensor as tensor_module

        targets = []
        unbroadcast = tensor_module._unbroadcast
        monkeypatch.setattr(
            tensor_module, "_unbroadcast",
            lambda grad, shape: targets.append(shape) or unbroadcast(grad, shape),
        )
        x = Tensor(r(3, 4), requires_grad=True)
        c = Tensor(np.abs(r(4)) + 1.0)
        a, b = (c, x) if constant_first else (x, c)
        op(a, b).sum().backward()
        assert targets == [(3, 4)]
        assert x.grad.shape == (3, 4) and c.grad is None


class TestMatmul:
    def test_2d_grads(self):
        check_gradients(lambda a, b: a @ b, [r(3, 4), r(4, 5)])

    def test_batched_grads(self):
        check_gradients(lambda a, b: a @ b, [r(2, 3, 4), r(2, 4, 5)])

    def test_broadcast_batched_grads(self):
        check_gradients(lambda a, b: a @ b, [r(3, 4), r(2, 4, 5)])
        check_gradients(lambda a, b: a @ b, [r(2, 3, 4), r(4, 5)])

    def test_flat_gemm_path_grads(self):
        # N-D @ 2-D lowers to one flattened GEMM: contiguous and
        # transposed-view left operands, 3-D and 4-D.
        check_gradients(lambda a, b: a @ b, [r(2, 3, 2, 4), r(4, 5)])
        check_gradients(lambda a, b: a.transpose(1, 0, 2) @ b, [r(3, 2, 4), r(4, 5)])
        check_gradients(lambda a, b: a.swapaxes(-1, -2) @ b, [r(2, 4, 3), r(4, 5)])
        check_gradients(lambda a, b: a @ b.T, [r(2, 3, 4), r(5, 4)])

    def test_2d_times_nd_grads(self):
        # the LinearChannelMixer broadcast: [G, C] @ [B, N, C, D]
        check_gradients(lambda w, x: w @ x, [r(2, 3), r(2, 2, 3, 4)])

    def test_broadcast_batch_dims_grads(self):
        check_gradients(lambda a, b: a @ b, [r(2, 1, 3, 4), r(1, 3, 4, 2)])
        check_gradients(lambda a, b: a @ b, [r(3, 2, 4), r(2, 1, 4, 5)])

    def test_1d_operand_grads(self):
        check_gradients(lambda a, b: a @ b, [r(4), r(4, 5)])
        check_gradients(lambda a, b: a @ b, [r(3, 4), r(4)])
        check_gradients(lambda a, b: a @ b, [r(4), r(4)])
        check_gradients(lambda a, b: a @ b, [r(4), r(2, 4, 5)])
        check_gradients(lambda a, b: a @ b, [r(2, 3, 4), r(4)])

    def test_flat_gemm_matches_batched_weight_grad(self):
        # The front-end Linear shape [B*N, C, D] @ [D, H] (and its C == 1
        # twin): the flat-GEMM dW must equal batched-then-summed to round-off.
        rng = np.random.default_rng(5)
        for c in (8, 1):
            a = rng.standard_normal((64, c, 32)).astype(np.float32)
            w = rng.standard_normal((32, 16)).astype(np.float32)
            g = rng.standard_normal((64, c, 16)).astype(np.float32)
            x, wt = Tensor(a, requires_grad=True), Tensor(w, requires_grad=True)
            out = x @ wt
            np.testing.assert_allclose(out.data, a @ w, rtol=1e-5, atol=1e-5)
            out.backward(g)
            batched_dw = (np.swapaxes(a, -1, -2) @ g).sum(axis=0)
            np.testing.assert_allclose(wt.grad, batched_dw, rtol=1e-4, atol=1e-4)
            np.testing.assert_allclose(x.grad, g @ w.T, rtol=1e-5, atol=1e-5)

    def test_flops_match_batched_count(self):
        from repro.tensor import FlopCounter, count_flops

        a, w = Tensor(r(6, 3, 4), requires_grad=True), Tensor(r(4, 5), requires_grad=True)
        with count_flops(FlopCounter()) as counter:
            (a @ w).sum().backward()
        assert counter.total == 3 * 2 * 6 * 3 * 4 * 5  # forward + dX + dW

    def test_matches_numpy(self):
        a, b = r(4, 6), r(6, 2)
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, (a @ b).astype(np.float32), rtol=1e-5)


class TestReductions:
    def test_sum_all(self):
        check_gradients(lambda a: a.sum(), [r(3, 4)])

    def test_sum_axis(self):
        check_gradients(lambda a: a.sum(axis=0), [r(3, 4)])
        check_gradients(lambda a: a.sum(axis=1, keepdims=True), [r(3, 4)])

    def test_mean(self):
        check_gradients(lambda a: a.mean(axis=-1), [r(3, 4)])

    def test_var(self):
        check_gradients(lambda a: a.var(axis=-1), [r(3, 5)], atol=5e-4)

    def test_max_unique(self):
        a = np.arange(12.0).reshape(3, 4)
        check_gradients(lambda t: t.max(axis=1), [a])

    def test_max_value(self):
        a = r(4, 5)
        np.testing.assert_allclose(Tensor(a).max(axis=0).data, a.max(axis=0).astype(np.float32))


class TestElementwise:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda a: a.exp(),
            lambda a: (a * a + 1.0).log(),
            lambda a: (a * a + 0.5).sqrt(),
            lambda a: a.tanh(),
            lambda a: a.sigmoid(),
        ],
    )
    def test_unary_grads(self, fn):
        check_gradients(fn, [r(3, 4)])

    def test_relu_grads(self):
        # Avoid the kink at exactly 0.
        a = r(4, 4)
        a[np.abs(a) < 0.1] += 0.5
        check_gradients(lambda t: t.relu(), [a])

    def test_clip_grads(self):
        a = r(4, 4) * 2
        a[np.abs(np.abs(a) - 1.0) < 0.05] += 0.3  # keep away from clip edges
        check_gradients(lambda t: t.clip(-1.0, 1.0), [a])


class TestShape:
    def test_reshape_grads(self):
        check_gradients(lambda a: a.reshape(2, 6), [r(3, 4)])
        check_gradients(lambda a: a.reshape(-1), [r(3, 4)])

    def test_transpose_grads(self):
        check_gradients(lambda a: a.transpose(), [r(3, 4)])
        check_gradients(lambda a: a.transpose(2, 0, 1), [r(2, 3, 4)])
        # negative axes: the inverse permutation is of the normalised axes
        check_gradients(lambda a: a.transpose(0, -1, 1), [r(2, 3, 4)])
        check_gradients(lambda a: a.transpose(0, -1, 1), [r(3, 3, 3)])

    def test_swapaxes_grads(self):
        check_gradients(lambda a: a.swapaxes(0, 2), [r(2, 3, 4)])

    def test_getitem_grads(self):
        check_gradients(lambda a: a[1], [r(3, 4)])
        check_gradients(lambda a: a[:, 1:3], [r(3, 4)])
        check_gradients(lambda a: a[::2, ::2], [r(4, 6)])

    def test_fancy_index_grads(self):
        idx = np.array([0, 2, 2])  # repeated index accumulates
        check_gradients(lambda a: a[idx], [r(4, 3)])
        check_gradients(lambda a: a[:, idx, :], [r(2, 4, 3)])  # the MAE gather
        check_gradients(lambda a: a[idx, idx], [r(4, 3)])

    def test_basic_index_grads(self):
        # every form the slice-assignment backward branches on
        check_gradients(lambda a: a[::-1], [r(4, 3)])
        check_gradients(lambda a: a[:, 3:0:-2], [r(3, 5)])
        check_gradients(lambda a: a[None, 1:, ..., None], [r(3, 2, 4)])
        check_gradients(lambda a: a[..., -1], [r(3, 2, 4)])
        check_gradients(lambda a: a[np.int64(1), :2], [r(3, 4)])

    def test_boolean_mask_grads(self):
        mask = np.array([True, False, True, True])
        check_gradients(lambda a: a[mask], [r(4, 3)])
        check_gradients(lambda a: a[:, np.array([True, False, True])], [r(4, 3)])

    def test_repeated_index_sums(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        x[np.array([0, 0, 0, 2])].backward(np.ones(4, dtype=np.float32))
        np.testing.assert_array_equal(x.grad, [3.0, 0.0, 1.0])

    def test_expand_squeeze(self):
        check_gradients(lambda a: a.expand_dims(1), [r(3, 4)])
        check_gradients(lambda a: a.expand_dims(0).squeeze(0), [r(3, 4)])

    def test_broadcast_to_grads(self):
        check_gradients(lambda a: a.broadcast_to((3, 2, 4)), [r(2, 4)])

    def test_pad_grads(self):
        check_gradients(lambda a: a.pad([(1, 2), (0, 1)]), [r(3, 4)])

    def test_concat_grads(self):
        check_gradients(lambda a, b: Tensor.concat([a, b], axis=1), [r(2, 3), r(2, 5)])

    def test_stack_split_roundtrip(self):
        a, b = Tensor(r(2, 3)), Tensor(r(2, 3))
        s = Tensor.stack([a, b], axis=0)
        parts = s.split(2, axis=0)
        np.testing.assert_allclose(parts[0].squeeze(0).data, a.data)
        np.testing.assert_allclose(parts[1].squeeze(0).data, b.data)

    def test_split_concat_roundtrip_grads(self):
        for axis in (0, 1, -1):
            check_gradients(
                lambda a: Tensor.concat(a.split(2, axis=axis)[::-1], axis=axis) * a,
                [r(4, 2, 6)],
            )
        # parts used unequally: each slice's grad lands in its own rows
        check_gradients(lambda a: a.split(3, axis=1)[0] * 2.0 + a.split(3, axis=1)[2], [r(2, 6)])

    def test_split_errors_on_uneven(self):
        with pytest.raises(ValueError):
            Tensor(r(5, 2)).split(2, axis=0)


class TestAutogradMechanics:
    def test_no_grad_blocks_graph(self):
        x = Tensor(r(3), requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_backward_requires_scalar_or_gradient(self):
        x = Tensor(r(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(r(3)).backward(np.ones(3))

    def test_diamond_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 3
        b = x * 5
        (a * b).backward(np.ones(1))  # d/dx 15x^2 = 30x = 60
        np.testing.assert_allclose(x.grad, [60.0])

    def test_detach_stops_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x.detach() * x
        y.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [2.0])

    def test_zero_grad(self):
        x = Tensor(r(3), requires_grad=True)
        (x * x).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_dtype_defaults_to_float32(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32
        assert Tensor(np.arange(3)).dtype == np.float32

    def test_constructors(self):
        assert Tensor.zeros((2, 3)).shape == (2, 3)
        assert Tensor.ones(4).data.sum() == 4
        assert Tensor.full((2,), 7.0).data.tolist() == [7.0, 7.0]
        assert Tensor.arange(5).shape == (5,)
        assert Tensor.randn((3, 3), np.random.default_rng(0)).shape == (3, 3)


class TestExtraOps:
    def test_abs_grads(self):
        a = r(4, 4)
        a[np.abs(a) < 0.1] += 0.5  # avoid the kink
        check_gradients(lambda t: t.abs(), [a])

    def test_min_matches_numpy(self):
        a = r(3, 5)
        np.testing.assert_allclose(Tensor(a).min(axis=1).data, a.min(axis=1).astype(np.float32), rtol=1e-6)

    def test_min_grads(self):
        a = np.arange(12.0).reshape(3, 4)[:, ::-1].copy()
        check_gradients(lambda t: t.min(axis=1), [a])

    def test_where_selects(self):
        cond = np.array([True, False, True])
        a = Tensor(np.array([1.0, 2.0, 3.0]))
        b = Tensor(np.array([10.0, 20.0, 30.0]))
        np.testing.assert_allclose(Tensor.where(cond, a, b).data, [1.0, 20.0, 3.0])

    def test_where_grads_route_by_mask(self):
        cond = np.array([True, False])
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        Tensor.where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])
