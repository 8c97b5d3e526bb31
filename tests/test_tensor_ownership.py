"""The gradient data path's ownership rule: a gradient array has one owner.

Closures inside ``repro.tensor`` hand over buffers they have just created
(``_accumulate(buf, True)``); everything else — views of the incoming grad,
pass-through grads, the caller's ``backward(gradient=…)`` array and every
caller outside ``repro.tensor`` — is copied on first touch.  Interior grads
are dropped once consumed; leaves keep theirs.  Because the owner is unique,
a basic-index slice adds into its parent's grad in place after first touch.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.dist import run_spmd
from repro.models import build_serial_mae
from repro.nn import ViTEncoder
from repro.parallel import FSDPModel
from repro.tensor import SGD, MemoryTracker, Tensor, checkpoint, track_memory
from repro.tensor import functional as F

RNG = np.random.default_rng(99)


def r(*shape):
    return RNG.standard_normal(shape).astype(np.float32)


def leaf(*shape):
    return Tensor(r(*shape), requires_grad=True)


def assert_disjoint(grads):
    for (i, a), (j, b) in itertools.combinations(enumerate(grads), 2):
        assert not np.shares_memory(a, b), f"grads {i} and {j} share memory"


class TestNoSharedGrads:
    def test_view_and_passthrough_ops(self):
        # every op whose closure forwards the incoming grad or a view of it
        a, b, c, d = leaf(4, 6), leaf(4, 6), leaf(6, 4), leaf(2, 12)
        lo, hi = (a + b).split(2, axis=1)
        out = (
            Tensor.concat([hi, lo], axis=1)
            + c.transpose()
            + d.reshape(4, 6)
            + (a - b).swapaxes(0, 1).swapaxes(0, 1)
            + a.expand_dims(0).squeeze(0)
            + b.pad([(0, 0), (0, 0)])
        )
        out.backward(np.ones((4, 6), dtype=np.float32))
        assert_disjoint([t.grad for t in (a, b, c, d)])
        np.testing.assert_array_equal(c.grad, np.ones((6, 4)))
        np.testing.assert_array_equal(a.grad, 3 * np.ones((4, 6)))
        np.testing.assert_array_equal(b.grad, np.ones((4, 6)))

    @pytest.mark.parametrize("agg", ["cross", "linear"])
    def test_model_parameter_grads(self, agg):
        model = build_serial_mae(
            channels=4, image=8, patch=4, dim=16, depth=1, heads=2,
            rng=np.random.default_rng(0), mask_ratio=0.5, agg=agg,
        )
        model.loss(r(2, 4, 8, 8), np.random.default_rng(1)).backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert len(grads) > 10
        assert_disjoint(grads)


class TestUnownedArraysAreCopied:
    def test_backward_gradient_argument(self):
        x = leaf(3, 4)
        seed = r(3, 4)
        kept = seed.copy()
        x.backward(seed)  # a leaf root: the seed lands directly on x
        assert not np.shares_memory(x.grad, seed)
        (x * 2.0).backward(seed)  # accumulates in place into x.grad, not seed
        np.testing.assert_array_equal(seed, kept)
        np.testing.assert_allclose(x.grad, 3 * kept, rtol=1e-6)
        seed[...] = 0.0
        np.testing.assert_allclose(x.grad, 3 * kept, rtol=1e-6)

    @pytest.mark.parametrize("as_view", [False, True])
    def test_external_accumulate_copies(self, as_view):
        # what dist/autograd.py, parallel/sp.py and tensor/checkpoint.py do
        x = leaf(4, 3)
        pool = r(8, 3)
        buf = pool[:4] if as_view else pool[:4].copy()
        kept = buf.copy()
        x._accumulate(buf)
        assert not np.shares_memory(x.grad, buf)
        x._accumulate(buf)
        np.testing.assert_array_equal(buf, kept)
        buf[...] = -1.0  # the pool reuses its buffer next step
        np.testing.assert_array_equal(x.grad, 2 * kept)

    def test_pooled_collective_buffers_are_not_adopted(self):
        # FSDP's unit gather is the one pooled site: its /bwd ReduceScatter
        # lands in a pool buffer that _accumulate must copy.  Three steps
        # through the same sites; no shard may end up holding a pool buffer,
        # and earlier grads must survive later visits.
        xs = [r(2, 5, 16) for _ in range(3)]

        def fn(comm):
            enc = ViTEncoder(16, 2, 4, np.random.default_rng(0))
            model = FSDPModel(comm, None, enc, units=list(enc.blocks))
            grads, kept = [], []
            for x in xs:
                (model(Tensor(x)) ** 2).mean().backward()
                for s in model.shard_parameters():
                    grads.append(s.grad)
                    kept.append(s.grad.copy())
                    s.zero_grad()
            pool = comm.pool
            assert pool.hits > 0
            pooled = list(pool._buffers.values()) + [v[0] for v in pool._views.values()]
            for g in grads:
                assert not any(np.shares_memory(g, p) for p in pooled)
            return grads, kept

        for grads, kept in run_spmd(fn, 2):
            assert_disjoint(grads)
            for g, k in zip(grads, kept):
                np.testing.assert_array_equal(g, k)

    def test_checkpoint_inner_grads_are_copied_out(self):
        x, w = leaf(3, 4), leaf(4, 4)
        checkpoint(lambda t: (t @ w).tanh(), x).sum().backward()
        ref_x, ref_w = leaf(3, 4), Tensor(w.data, requires_grad=True)
        ref_x.data[...] = x.data
        (ref_x @ ref_w).tanh().sum().backward()
        np.testing.assert_allclose(x.grad, ref_x.grad, rtol=1e-6)
        np.testing.assert_allclose(w.grad, ref_w.grad, rtol=1e-6)
        assert not np.shares_memory(x.grad, w.grad)


class TestAccumulation:
    def test_diamond_of_adopted_buffers(self):
        x = leaf(3, 3)
        a, b = x * 3.0, x.exp()  # both hand x an owned buffer
        (a * b + a).sum().backward()
        e = np.exp(x.data)
        np.testing.assert_allclose(x.grad, 3 * e + 3 * x.data * e + 3, rtol=1e-5)

    def test_tensor_as_both_operands(self):
        x = leaf(3, 3)
        (x @ x).sum().backward()
        ones = np.ones((3, 3), dtype=np.float32)
        np.testing.assert_allclose(x.grad, ones @ x.data.T + x.data.T @ ones, rtol=1e-5)

        y = leaf(4)
        (y + y).backward(np.ones(4, dtype=np.float32))
        np.testing.assert_array_equal(y.grad, 2 * np.ones(4))
        z = leaf(4)
        (z * z - z).backward(np.ones(4, dtype=np.float32))
        np.testing.assert_allclose(z.grad, 2 * z.data - 1, rtol=1e-6)

    def test_arena_leaf_copies_into_its_home(self):
        # An optimizer's parameters keep one persistent grad home each: the
        # first gradient of a step is copied in (never adopted), later ones
        # add in place, and after zero_grad the next step overwrites it.
        x, w = leaf(3, 4), leaf(4, 4)
        opt = SGD([x, w])
        arena = x._arena[0]
        for scale in (1.0, 2.0):
            opt.zero_grad()
            assert x.grad is None and w.grad is None
            (x @ w * scale).sum().backward()
            (x * scale).sum().backward()
            for p, k in ((x, 0), (w, 1)):
                assert p.grad is arena.homes[k]
        ref_x, ref_w = Tensor(x.data.copy(), requires_grad=True), Tensor(w.data, requires_grad=True)
        (ref_x @ ref_w * 2.0).sum().backward()
        (ref_x * 2.0).sum().backward()
        assert np.array_equal(x.grad, ref_x.grad) and np.array_equal(w.grad, ref_w.grad)
        assert_disjoint([x.grad, w.grad])

    def test_second_backward_adds_to_leaf(self):
        x = leaf(5)
        (x * 2.0).sum().backward()
        first = x.grad
        (x * 3.0).sum().backward()
        assert x.grad is first  # accumulated in place
        np.testing.assert_array_equal(x.grad, 5 * np.ones(5))


def _zero_assign_getitem(self, idx):
    """The basic-index scatter before in-place accumulation: every slice's
    backward builds a parent-sized zero buffer, assigns into it and adds
    the whole buffer into the parent's grad."""

    def backward(grad):
        full = np.zeros_like(self.data)
        full[idx] = grad
        self._accumulate(full, True)

    return self._make(self.data[idx], (self,), backward, "getitem")


def _mixed_slice_grads(non_slice_first):
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((8, 6)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 6)).astype(np.float32), requires_grad=True)
    c = [
        Tensor(rng.standard_normal(s).astype(np.float32))
        for s in ((4, 6), (6,), (4, 2), (1, 8, 2))
    ]
    slices = (
        (x[1:5] * w).sum()  # overlaps the next slice on rows 3-4
        + (x[3:7] * c[0]).tanh().sum()
        + (x[2] * c[1]).sum()  # int index
        + (x[::-2, ::-3] * c[2]).sum()  # negative steps
        + (x[None, ..., 1:3] * c[3]).sum()  # None / Ellipsis
    )
    other = (x.exp() * 0.5).sum()  # a non-slice consumer of the same parent
    loss = other + slices if non_slice_first else slices + other
    loss.backward()
    return x.grad, w.grad


class TestSliceScatter:
    def test_slices_share_one_parent_sized_buffer(self):
        # FSDP's unflatten shape: P basic slices carved from one flat tensor.
        n, p, width = 1 << 16, 8, 256
        x = Tensor(np.ones(n, dtype=np.float32), requires_grad=True)
        sizes = []

        class Recording(MemoryTracker):
            def allocate(self, nbytes):
                sizes.append(nbytes)
                super().allocate(nbytes)

        with track_memory(Recording()):
            loss = x[0:width].sum()
            for i in range(1, p):
                loss = loss + (x[i * (n // p) : i * (n // p) + width] * float(i + 1)).sum()
            # The tracker sees only arrays a Tensor owns; numpy's allocation
            # trace also sees scratch buffers a closure never registers.
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                loss.backward()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert sizes.count(x.nbytes) == 1
        assert peak < 1.5 * x.nbytes  # never a second parent-sized buffer
        expect = np.zeros(n, dtype=np.float32)
        for i in range(p):
            expect[i * (n // p) : i * (n // p) + width] = i + 1
        np.testing.assert_array_equal(x.grad, expect)

    @pytest.mark.parametrize("non_slice_first", [True, False])
    def test_in_place_matches_zero_assign_formula(self, non_slice_first, monkeypatch):
        x_grad, w_grad = _mixed_slice_grads(non_slice_first)
        monkeypatch.setattr(Tensor, "__getitem__", _zero_assign_getitem)
        ref_x, ref_w = _mixed_slice_grads(non_slice_first)
        assert x_grad.dtype == np.float32
        assert np.array_equal(x_grad, ref_x)
        assert np.array_equal(w_grad, ref_w)
        assert_disjoint([x_grad, w_grad])

    def test_fsdp_unit_of_many_params_matches_serial(self):
        dim = 16
        x = r(2, 5, dim)
        serial = ViTEncoder(dim, 2, 4, np.random.default_rng(0))
        (serial(Tensor(x)) ** 2).mean().backward()
        serial_flat = np.concatenate([p.grad.ravel() for p in serial.parameters()])
        assert len(list(serial.parameters())) >= 20

        def fn(comm):
            model = FSDPModel(comm, None, ViTEncoder(dim, 2, 4, np.random.default_rng(0)))
            (model(Tensor(x)) ** 2).mean().backward()
            (unit,) = model.units  # the whole encoder is one flat unit
            return unit.flat.shard.grad, unit.flat.shard_size

        for rank, (grad, size) in enumerate(run_spmd(fn, 2)):
            expect = np.zeros(size, dtype=np.float32)
            part = serial_flat[rank * size : (rank + 1) * size]
            expect[: part.size] = part
            np.testing.assert_array_equal(grad, expect)


class TestInteriorGradRelease:
    def test_interior_none_leaves_kept(self):
        x, w = leaf(2, 3, 4), leaf(4, 5)
        h = x @ w
        parts = h.split(5, axis=-1)
        y = F.gelu(parts[0] + parts[4])
        loss = (y * y).mean()
        loss.backward()
        for t in (h, *parts, y, loss):
            assert t.grad is None
        assert x.grad.shape == x.shape and w.grad.shape == w.shape


# -- float32 stays float32 ------------------------------------------------------

def _f32_graphs():
    x, y, w = leaf(2, 3, 4), leaf(2, 3, 4), leaf(4, 4)
    pos = Tensor(np.abs(r(2, 3, 4)) + 0.5, requires_grad=True)
    gamma, beta, vec = leaf(4), leaf(4), leaf(4)
    idx = np.array([0, 2, 2])
    return {
        "add": lambda: x + y, "add_bcast": lambda: x + vec, "sub": lambda: x - vec,
        "rsub": lambda: 1.0 - x, "mul": lambda: x * y, "mul_scalar": lambda: 0.5 * x,
        "div": lambda: x / pos, "rdiv": lambda: 2.0 / pos, "neg": lambda: -x,
        "pow": lambda: pos**3, "pow_frac": lambda: pos**0.5,
        "matmul_flat": lambda: x @ w, "matmul_batched": lambda: x @ y.swapaxes(-1, -2),
        "matmul_2d_nd": lambda: w[:3, :3] @ x, "matmul_1d": lambda: x @ vec,
        "sum": lambda: x.sum(axis=1), "mean": lambda: x.mean(axis=-1, keepdims=True),
        "var": lambda: x.var(axis=-1), "max": lambda: x.max(axis=1), "min": lambda: x.min(),
        "exp": lambda: x.exp(), "log": lambda: pos.log(), "sqrt": lambda: pos.sqrt(),
        "tanh": lambda: x.tanh(), "sigmoid": lambda: x.sigmoid(), "relu": lambda: x.relu(),
        "abs": lambda: x.abs(), "clip": lambda: x.clip(-0.5, 0.5),
        "where": lambda: Tensor.where(x.data > 0, x, y),
        "reshape": lambda: x.reshape(6, 4), "transpose": lambda: x.transpose(2, 0, 1),
        "swapaxes": lambda: x.swapaxes(0, 2), "getitem_slice": lambda: x[:, 1:, ::2],
        "getitem_array": lambda: x[:, idx], "expand_squeeze": lambda: x.expand_dims(1).squeeze(1),
        "broadcast_to": lambda: vec.broadcast_to((3, 4)),
        "pad": lambda: x.pad([(0, 0), (1, 1), (0, 2)]),
        "concat": lambda: Tensor.concat([x, y], axis=1), "stack": lambda: Tensor.stack([x, y]),
        "split": lambda: x.split(2, axis=2)[1], "flatten": lambda: x.flatten(1),
        "softmax": lambda: F.softmax(x), "log_softmax": lambda: F.log_softmax(x),
        "gelu": lambda: F.gelu(x), "gelu_tanh": lambda: F.gelu(x, approximate=True),
        "layer_norm": lambda: F.layer_norm(x, gamma, beta),
        "dropout": lambda: F.dropout(x, 0.25, np.random.default_rng(0)),
        "mse": lambda: F.mse_loss(x, y),
        "masked_mse": lambda: F.masked_mse_loss(x, y, np.ones((2, 3, 1))),
        "weighted_mse": lambda: F.weighted_mse_loss(x, y, np.arange(1.0, 4.0)[:, None]),
        "cross_entropy": lambda: F.cross_entropy(x, np.array([[0, 1, 2], [3, 0, 1]])),
    }


@pytest.mark.parametrize("name", sorted(_f32_graphs()))
def test_float32_grads_never_pass_through_float64(name, monkeypatch):
    """For float32 inputs every closure must hand ``_accumulate`` a float32
    array — a float64 intermediate means a silent promotion (as the
    ``np.float64`` scalar in ``gelu``'s backward once caused) that costs
    twice the bandwidth and is then cast back."""
    seen = []
    accumulate = Tensor._accumulate

    def spy(self, grad, owned=False):
        seen.append(np.asarray(grad).dtype)
        accumulate(self, grad, owned)

    out = _f32_graphs()[name]()
    assert out.dtype == np.float32
    monkeypatch.setattr(Tensor, "_accumulate", spy)
    out.backward(np.ones_like(out.data))
    assert seen and set(seen) == {np.dtype(np.float32)}, (name, seen)
