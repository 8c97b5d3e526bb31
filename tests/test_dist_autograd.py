"""Tests for the autograd-aware collectives — the communication patterns the
paper's strategies are built from."""

import numpy as np
import pytest

from repro.dist import (
    SpmdError,
    all_gather_autograd,
    all_gather_forward_only,
    average_gradients,
    broadcast_parameters,
    copy_to_group,
    reduce_from_group,
    run_spmd,
    run_spmd_world,
)
from repro.tensor import SGD, Tensor


class TestAllGatherForwardOnly:
    def test_forward_concatenates(self):
        def fn(comm):
            x = Tensor(np.full((1, 2), float(comm.rank), dtype=np.float32), requires_grad=True)
            return all_gather_forward_only(comm, x, axis=0).data.copy()

        for out in run_spmd(fn, 3):
            np.testing.assert_allclose(out[:, 0], [0, 1, 2])

    def test_backward_slices_without_communication(self):
        def fn(comm):
            x = Tensor(np.ones((1, 3), dtype=np.float32) * (comm.rank + 1), requires_grad=True)
            y = all_gather_forward_only(comm, x, axis=0)
            (y * y).sum().backward()
            return x.grad.copy()

        res, world = run_spmd_world(fn, 4)
        for rank, grad in enumerate(res):
            np.testing.assert_allclose(grad, 2.0 * (rank + 1))
        # forward gather only: exactly one collective per rank, none after
        assert world.traffic.count(op="all_gather") == 4
        assert world.traffic.count(op="reduce_scatter") == 0
        assert world.traffic.count(op="all_reduce") == 0

    def test_gather_axis_one(self):
        def fn(comm):
            x = Tensor(np.full((2, 1, 3), float(comm.rank), dtype=np.float32), requires_grad=True)
            y = all_gather_forward_only(comm, x, axis=1)
            assert y.shape == (2, comm.size, 3)
            y.sum().backward()
            return x.grad.shape

        assert all(s == (2, 1, 3) for s in run_spmd(fn, 2))

    @pytest.mark.parametrize("tp", [2, 4])
    def test_gathers_into_one_array_without_concatenate(self, monkeypatch, tp):
        """Each part lands in its view of one output array: bitwise the
        concatenate form, with no ``np.concatenate`` pass."""
        parts = np.random.default_rng(0).standard_normal((tp, 2, 1, 3, 4)).astype(np.float32)
        concatenate = np.concatenate
        calls = []
        monkeypatch.setattr(
            np, "concatenate", lambda *a, **k: calls.append(a) or concatenate(*a, **k))

        def fn(comm):
            x = Tensor(parts[comm.rank], requires_grad=True)
            gathered = all_gather_forward_only(comm, x, axis=1).data
            return gathered, concatenate(comm.all_gather(x.data), axis=1)

        for got, want in run_spmd(fn, tp):
            assert got.shape == (2, tp, 3, 4) and got.flags.c_contiguous
            assert np.array_equal(got, want)
        assert calls == []


class TestAllGatherAutograd:
    def test_backward_reduce_scatters(self):
        """d/dx_r of sum over all ranks' losses = sum of each rank's slice grad."""

        def fn(comm):
            x = Tensor(np.ones((1, 3), dtype=np.float32) * (comm.rank + 1), requires_grad=True)
            y = all_gather_autograd(comm, x, axis=0)
            # Each rank's loss weights slices differently: rank r weights
            # slice s by (r+1); total grad of slice s = sum_r (r+1) * 2*x_s.
            w = Tensor(np.full((comm.size, 1), float(comm.rank + 1), dtype=np.float32))
            (w * y * y).sum().backward()
            return x.grad.copy()

        world_size = 3
        res, world = run_spmd_world(fn, world_size)
        weight_sum = sum(r + 1 for r in range(world_size))
        for rank, grad in enumerate(res):
            np.testing.assert_allclose(grad, weight_sum * 2.0 * (rank + 1))
        assert world.traffic.count(op="reduce_scatter", phase="backward") == world_size

    def test_unequal_shards_gather_and_backward(self):
        """Remainder shards gather correctly and each rank's backward slice
        is the gradient of exactly its own contribution (padded collective,
        pad stripped)."""

        def fn(comm):
            n = 2 if comm.rank == 0 else 6
            x = Tensor(np.full((n, 3), float(comm.rank + 1), dtype=np.float32), requires_grad=True)
            full = all_gather_autograd(comm, x, axis=0)
            (full * full).sum().backward()
            return full.data.shape, x.grad.copy()

        shapes_grads = run_spmd(fn, 2)
        for shape, grad in shapes_grads:
            assert shape == (8, 3)
        # Every rank's upstream grad (2·full) is summed over the group before
        # scattering: rank 0's rows hold 1.0 → 2·1·2 ranks = 4, rank 1's 2.0 → 8.
        np.testing.assert_allclose(shapes_grads[0][1], np.full((2, 3), 4.0))
        np.testing.assert_allclose(shapes_grads[1][1], np.full((6, 3), 8.0))

    def test_mismatched_non_axis_dims_rejected(self):
        def fn(comm):
            w = 3 if comm.rank == 0 else 4
            x = Tensor(np.ones((2, w), dtype=np.float32), requires_grad=True)
            all_gather_autograd(comm, x, axis=0)

        with pytest.raises(SpmdError, match="non-axis"):
            run_spmd(fn, 2)


class TestConjugateOperators:
    def test_copy_then_reduce_roundtrip_gradients(self):
        """The Megatron f/g pair: forward value replicated, grads correct."""

        def fn(comm):
            x = Tensor(np.array([[2.0]], dtype=np.float32), requires_grad=True)
            h = copy_to_group(comm, x)
            # Each rank scales by (rank+1); reduce gives x * sum(scales).
            h = h * float(comm.rank + 1)
            y = reduce_from_group(comm, h)
            y.sum().backward()
            return y.data.item(), x.grad.item()

        res = run_spmd(fn, 4)
        scale_sum = 1 + 2 + 3 + 4
        for value, grad in res:
            assert value == 2.0 * scale_sum
            # backward: reduce_from_group passes grad 1 through; copy_to_group
            # all-reduces each rank's local grad (rank+1) -> 10.
            assert grad == scale_sum


def _pack_and_arena(fn, n):
    """Run ``fn(comm, owned)`` on plain parameters (the bucket pack path)
    and on parameters an optimizer owns (its arena, all-reduced in place).
    The grads, every rank's record sizes, the traffic histogram and the
    wire bytes must agree bitwise; returns the arena run's results."""
    runs = []
    for owned in (False, True):
        results, world = run_spmd_world(fn, n, owned)
        log = world.traffic
        sizes = [[(r.op, r.payload_bytes) for r in log.records(rank=k)] for k in range(n)]
        runs.append((results, sizes, log.ops_histogram(), log.wire_bytes()))
    (packed, *pack_traffic), (arena, *arena_traffic) = runs
    assert pack_traffic == arena_traffic
    for a, b in zip(packed, arena):
        for ga, gb in zip(a, b):
            assert ga.dtype == gb.dtype and np.array_equal(ga, gb)
    return arena


def _owned(params, owned):
    if owned:
        SGD(params)  # the optimizer moves its parameters into an arena
    return params


class TestDataParallelHelpers:
    def test_average_gradients(self):
        def fn(comm, owned):
            (p,) = _owned([Tensor(np.zeros(5, dtype=np.float32), requires_grad=True)], owned)
            p.grad = np.full(5, float(comm.rank), dtype=np.float32)
            average_gradients(comm, [p])
            return [p.grad.copy()]

        for (g,) in _pack_and_arena(fn, 4):
            np.testing.assert_allclose(g, 1.5)

    def test_average_gradients_none_treated_as_zero(self):
        def fn(comm, owned):
            p, q = _owned(
                [Tensor(np.zeros(3, dtype=np.float32), requires_grad=True) for _ in range(2)],
                owned,
            )
            q.grad = np.full(3, 4.0, dtype=np.float32)
            average_gradients(comm, [p, q])  # leaves q's home holding 4.0
            p.grad = np.full(3, 2.0, dtype=np.float32) if comm.rank == 0 else None
            q.grad = None
            average_gradients(comm, [p, q])
            return [p.grad.copy(), q.grad.copy()]

        for g, h in _pack_and_arena(fn, 2):
            np.testing.assert_allclose(g, 1.0)
            np.testing.assert_array_equal(h, 0.0)

    def test_average_gradients_buckets(self):
        def fn(comm, owned):
            params = _owned(
                [Tensor(np.zeros(100, dtype=np.float32), requires_grad=True) for _ in range(5)],
                owned,
            )
            for p in params:
                p.grad = np.full(100, float(comm.rank + 1), dtype=np.float32)
            average_gradients(comm, params, bucket_bytes=256)  # force several buckets
            return [p.grad.copy() for p in params]

        for grads in _pack_and_arena(fn, 2):
            for g in grads:
                np.testing.assert_allclose(g, 1.5)

    def test_average_gradients_keeps_each_param_dtype(self):
        def fn(comm, owned):
            def params():
                ps = []
                for i, dtype in enumerate((np.float32, np.float64, np.float32)):
                    p = Tensor(np.zeros(7, dtype=dtype), requires_grad=True)
                    rng = np.random.default_rng(31 * i + comm.rank)
                    p.grad = rng.standard_normal(7).astype(dtype)
                    ps.append(p)
                return _owned(ps, owned)

            mixed = params()
            average_gradients(comm, mixed)
            alone = params()
            for p in alone:
                average_gradients(comm, [p])
            return [p.grad for p in mixed] + [p.grad for p in alone]

        for grads in _pack_and_arena(fn, 4):
            for a, b in zip(grads[:3], grads[3:]):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_broadcast_parameters(self):
        def fn(comm):
            p = Tensor(np.full(4, float(comm.rank), dtype=np.float32), requires_grad=True)
            broadcast_parameters(comm, [p], root=0)
            return p.data.copy()

        for vals in run_spmd(fn, 3):
            np.testing.assert_allclose(vals, 0.0)
