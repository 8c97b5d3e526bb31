"""Property tests: FSDP's pooled unit gather and batched-wake failure paths.

FSDP's per-unit parameter gather is the one collective site that reuses a
site-keyed :class:`repro.dist.BufferPool` buffer (every other collective
allocates).  The contract pinned here:

* the pooled gather is **bitwise** identical to the allocating reference at
  2 / 4 / 8 ranks — reuse may change addresses, never values;
* a second forward before a backward may overwrite the pooled gather, since
  the bytes do not change: two forwards then one backward give the same
  shard gradients as two forward/backward pairs;
* a converged step takes **zero** pool misses (no fresh allocations);
* the batched-wake rendezvous aborts cleanly under injected rank failures
  at small and large payloads — blocked waiters surface
  :class:`~repro.dist.SpmdError` instead of deadlocking.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist import BufferPool, SpmdError, run_spmd, site_key
from repro.nn import ViTEncoder
from repro.parallel import FSDPModel
from repro.tensor import AdamW, Tensor

DIM, DEPTH = 16, 2

common = settings(max_examples=6, deadline=None)


class TestBufferPool:
    def test_take_reuses_the_same_buffer(self):
        pool = BufferPool()
        a = pool.take("k", (4, 3), np.float32)
        b = pool.take("k", (4, 3), np.float32)
        assert a is b
        assert (pool.hits, pool.misses) == (1, 1)

    def test_take_reallocates_on_shape_or_dtype_change(self):
        pool = BufferPool()
        a = pool.take("k", (4,), np.float32)
        b = pool.take("k", (5,), np.float32)       # shape change
        c = pool.take("k", (5,), np.float64)       # dtype change
        assert a is not b and b is not c
        assert pool.misses == 3 and pool.hits == 0
        assert pool.take("k", (5,), np.float64) is c

    def test_distinct_keys_never_share(self):
        pool = BufferPool()
        assert pool.take("a", (8,), np.float32) is not pool.take(
            "b", (8,), np.float32
        )

    def test_site_keys_are_unique(self):
        assert site_key("x") != site_key("x")

    def test_take_views_is_the_concatenation(self):
        pool = BufferPool()
        flat, views = pool.take_views("g", [(3, 2), (5, 2)], np.float32)
        assert flat.shape == (8, 2)
        assert [v.shape for v in views] == [(3, 2), (5, 2)]
        assert all(v.base is flat for v in views)
        views[0][...] = 1.0
        views[1][...] = 2.0
        assert np.array_equal(flat[:3], np.ones((3, 2), dtype=np.float32))
        assert np.array_equal(flat[3:], np.full((5, 2), 2.0, dtype=np.float32))
        again_flat, again_views = pool.take_views("g", [(3, 2), (5, 2)], np.float32)
        assert again_flat is flat and again_views[1] is views[1]

    def test_take_views_trailing_mismatch_raises(self):
        with pytest.raises(ValueError):
            BufferPool().take_views("g", [(3, 2), (5, 4)], np.float32)


def _fsdp_model(comm, pool=True):
    enc = ViTEncoder(DIM, DEPTH, 4, np.random.default_rng(7))
    model = FSDPModel(comm, None, enc, units=[b for b in enc.blocks])
    if not pool:  # the allocating reference
        for u in model.units:
            u.flat.pool_key = None
    return model


def _fsdp_run(comm, xs, pool):
    model = _fsdp_model(comm, pool)
    opt = AdamW(model.shard_parameters(), lr=1e-2, weight_decay=0.0)
    outs = []
    for x in xs:
        out = model(Tensor(x))
        (out**2).mean().backward()
        opt.step()
        opt.zero_grad()
        outs.append(out.data.copy())
    shards = [u.flat.shard.data.copy() for u in model.units]
    return outs, shards


class TestPooledFSDPParity:
    @common
    @given(n=st.sampled_from((2, 4, 8)), seed=st.integers(0, 2**31))
    def test_bitwise_vs_allocating_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        xs = [rng.standard_normal((1, 5, DIM)).astype(np.float32) for _ in range(3)]

        def fn(comm):
            return _fsdp_run(comm, xs, pool=True), _fsdp_run(comm, xs, pool=False)

        for pooled, ref in run_spmd(fn, n):
            for a, b in zip(pooled[0], ref[0]):
                assert np.array_equal(a, b), "pooled forward diverged"
            for a, b in zip(pooled[1], ref[1]):
                assert np.array_equal(a, b), "pooled shard update diverged"

    def test_joint_backward_matches_separate_backwards(self):
        rng = np.random.default_rng(3)
        x1, x2 = (rng.standard_normal((1, 5, DIM)).astype(np.float32) for _ in range(2))

        def fn(comm):
            model = _fsdp_model(comm)

            def loss(x):
                return (model(Tensor(x)) ** 2).mean()

            def grads():
                out = [s.grad.copy() for s in model.shard_parameters()]
                for s in model.shard_parameters():
                    s.zero_grad()
                return out

            (loss(x1) + loss(x2)).backward()
            joint = grads()
            loss(x1).backward()
            loss(x2).backward()
            return joint, grads()

        for joint, separate in run_spmd(fn, 2):
            for a, b in zip(joint, separate):
                assert np.array_equal(a, b), "second forward clobbered the gather"

    def test_steady_state_takes_zero_pool_misses(self):
        x = np.random.default_rng(0).standard_normal((1, 5, DIM)).astype(np.float32)

        def fn(comm):
            model = _fsdp_model(comm)
            opt = AdamW(model.shard_parameters(), lr=1e-2, weight_decay=0.0)

            def step():
                (model(Tensor(x)) ** 2).mean().backward()
                opt.step()
                opt.zero_grad()

            step()  # the first pass populates every site
            warm_misses = comm.pool.misses
            step()
            step()
            return comm.pool.misses - warm_misses, comm.pool.hits

        for fresh, hits in run_spmd(fn, 4):
            assert fresh == 0, "steady-state step allocated a pool buffer"
            assert hits > 0


#: A latency-sized and a bandwidth-sized (> 64 KiB) float64 payload.
PAYLOAD_LENGTHS = (16, 8193)


class TestBatchedWakeFailure:
    @common
    @given(
        n=st.sampled_from((2, 4, 8)),
        fail_rank=st.integers(0, 7),
        length=st.sampled_from(PAYLOAD_LENGTHS),
        seed=st.integers(0, 2**31),
    )
    def test_rank_failure_aborts_instead_of_deadlocking(
        self, n, fail_rank, length, seed
    ):
        """A rank dying before it joins leaves peers blocked in the batched
        wait loop; the abort must wake them at every payload size."""
        fail = fail_rank % n

        def fn(comm):
            if comm.rank == fail:
                raise RuntimeError("injected rank failure")
            comm.all_reduce(np.ones(length))

        with pytest.raises(SpmdError):
            run_spmd(fn, n, timeout=60.0)

    @pytest.mark.parametrize("large", [False, True])
    def test_failure_after_some_collectives_complete(self, large):
        """Failure mid-stream: earlier batched-wake slots completed and were
        recycled; the in-flight one must still abort every survivor."""
        length = PAYLOAD_LENGTHS[large]

        def fn(comm):
            x = np.full(length, float(comm.rank + 1))
            for _ in range(6):
                x = comm.all_reduce(x, op="mean")
            if comm.rank == 1:
                raise RuntimeError("late failure")
            comm.all_reduce(x)

        with pytest.raises(SpmdError):
            run_spmd(fn, 4, timeout=60.0)

    def test_per_rank_consume_error_surfaces_as_spmd_error(self):
        """A bad ``out=`` on one rank is a consume-time error: the batched
        distributor records it for the owning rank, which raises — the world
        aborts loudly instead of handing anyone corrupt buffers."""

        def fn(comm):
            mine = np.ones(8, dtype=np.float32)
            outs = None
            if comm.rank == 2:
                outs = [np.empty(8, dtype=np.float32) for _ in range(4)]
                outs[1] = np.empty(9, dtype=np.float32)  # wrong shape
            comm.all_gather(mine, out=outs)

        with pytest.raises(SpmdError):
            run_spmd(fn, 4, timeout=60.0)

    def test_pooled_world_failure_does_not_hang(self):
        """Failure injection through the pooled FSDP path (gather sites hold
        cached views): the abort still tears the world down."""
        x = np.random.default_rng(0).standard_normal((1, 4, DIM)).astype(np.float32)

        def fn(comm):
            enc = ViTEncoder(DIM, 1, 4, np.random.default_rng(7))
            model = FSDPModel(comm, None, enc)
            (model(Tensor(x)) ** 2).mean().backward()
            if comm.rank == 0:
                raise RuntimeError("boom after a pooled step")
            (model(Tensor(x)) ** 2).mean().backward()

        with pytest.raises(SpmdError):
            run_spmd(fn, 2, timeout=60.0)
