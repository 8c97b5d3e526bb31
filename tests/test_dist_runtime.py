"""Tests for the simulated SPMD runtime and its collectives."""

import numpy as np
import pytest

from repro.dist import SpmdError, run_spmd, run_spmd_world


class TestCollectives:
    @pytest.mark.parametrize("world", [1, 2, 4, 8])
    def test_all_reduce_sum(self, world):
        def fn(comm):
            return comm.all_reduce(np.full(3, float(comm.rank + 1), dtype=np.float32))

        expect = sum(range(1, world + 1))
        for out in run_spmd(fn, world):
            np.testing.assert_allclose(out, expect)

    def test_all_reduce_mean_max_min(self):
        def fn(comm):
            x = np.array([float(comm.rank)], dtype=np.float32)
            return (
                comm.all_reduce(x, op="mean")[0],
                comm.all_reduce(x, op="max")[0],
                comm.all_reduce(x, op="min")[0],
            )

        for mean, mx, mn in run_spmd(fn, 4):
            assert (mean, mx, mn) == (1.5, 3.0, 0.0)

    def test_all_reduce_unknown_op(self):
        def fn(comm):
            comm.all_reduce(np.ones(1), op="prod")

        with pytest.raises(SpmdError):
            run_spmd(fn, 2)

    def test_all_gather_order(self):
        def fn(comm):
            return np.concatenate(comm.all_gather(np.array([comm.rank], dtype=np.float32)))

        for out in run_spmd(fn, 4):
            np.testing.assert_allclose(out, [0, 1, 2, 3])

    def test_all_gather_returns_copies(self):
        def fn(comm):
            mine = np.zeros(2, dtype=np.float32)
            parts = comm.all_gather(mine)
            parts[comm.rank][:] = 99.0  # mutating the result must not leak
            comm.barrier()
            again = comm.all_gather(np.zeros(2, dtype=np.float32))
            return sum(p.sum() for p in again)

        assert all(v == 0.0 for v in run_spmd(fn, 2))

    def test_reduce_scatter_matches_allreduce_slice(self):
        def fn(comm):
            x = (np.arange(8, dtype=np.float32) + comm.rank * 10)
            full = comm.all_reduce(x)
            shard = comm.reduce_scatter(x)
            lo = comm.rank * 2
            return np.allclose(full[lo : lo + 2], shard)

        assert all(run_spmd(fn, 4))

    def test_reduce_scatter_uneven_pads_and_strips(self):
        """A non-divisible axis splits by the remainder convention (first
        ranks get the extra element); the pad never reaches the caller."""

        def fn(comm):
            x = np.arange(5, dtype=np.float32)
            return comm.reduce_scatter(x)

        res = run_spmd(fn, 2)
        np.testing.assert_array_equal(res[0], [0.0, 2.0, 4.0])
        np.testing.assert_array_equal(res[1], [6.0, 8.0])

    def test_reduce_scatter_explicit_sizes(self):
        def fn(comm):
            x = np.arange(6, dtype=np.float32)
            return comm.reduce_scatter(x, sizes=(1, 5))

        res = run_spmd(fn, 2)
        np.testing.assert_array_equal(res[0], [0.0])
        np.testing.assert_array_equal(res[1], [2.0, 4.0, 6.0, 8.0, 10.0])

    def test_reduce_scatter_bad_sizes_raise(self):
        def fn(comm):
            comm.reduce_scatter(np.zeros(6, dtype=np.float32), sizes=(2, 2))

        with pytest.raises(SpmdError):
            run_spmd(fn, 2)

    def test_uneven_reduce_scatter_charges_padded_wire_bytes(self):
        """5 floats over 2 ranks pad to 3-per-rank: the ring moves 6 elements'
        worth, not 5 (ring_wire_bytes of the padded payload)."""
        from repro.dist import ring_wire_bytes, run_spmd_world

        def fn(comm):
            comm.reduce_scatter(np.zeros(5, dtype=np.float32))

        _, world = run_spmd_world(fn, 2)
        assert world.traffic.wire_bytes(op="reduce_scatter", rank=0) == ring_wire_bytes(
            "reduce_scatter", 6 * 4, 2
        )

    def test_broadcast(self):
        def fn(comm):
            payload = np.array([3.14], dtype=np.float32) if comm.rank == 2 else None
            return comm.broadcast(payload, root=2)[0]

        assert all(abs(v - 3.14) < 1e-6 for v in run_spmd(fn, 4))

    def test_all_to_all_is_transpose(self):
        def fn(comm):
            send = [np.array([comm.rank * 10 + j], dtype=np.float32) for j in range(comm.size)]
            recv = comm.all_to_all(send)
            return [int(r[0]) for r in recv]

        res = run_spmd(fn, 3)
        assert res[1] == [1, 11, 21]  # rank j receives i*10+j from each rank i

    def test_barrier_completes(self):
        def fn(comm):
            for _ in range(10):
                comm.barrier()
            return True

        assert all(run_spmd(fn, 8))


class TestGroups:
    def test_subgroup_collectives_are_isolated(self):
        def fn(comm):
            half = comm.group([0, 1]) if comm.rank < 2 else comm.group([2, 3])
            return comm.all_reduce(np.array([1.0], dtype=np.float32), group=half)[0]

        assert run_spmd(fn, 4) == [2.0] * 4

    def test_group_rank_index(self):
        def fn(comm):
            g = comm.group([1, 3])
            if comm.rank in (1, 3):
                return g.rank_index(comm.rank)
            return None

        res = run_spmd(fn, 4)
        assert res[1] == 0 and res[3] == 1

    def test_collective_on_foreign_group_raises(self):
        def fn(comm):
            g = comm.group([0, 1])
            if comm.rank == 2:
                comm.all_reduce(np.ones(1), group=g)
            else:
                comm.barrier(comm.group([0, 1, 3]))

        with pytest.raises(SpmdError):
            run_spmd(fn, 4)

    def test_duplicate_ranks_rejected(self):
        def fn(comm):
            comm.group([0, 0, 1])

        with pytest.raises(SpmdError):
            run_spmd(fn, 2)


class TestDeterminism:
    def test_allreduce_bitwise_deterministic(self):
        def fn(comm):
            rng = np.random.default_rng(comm.rank)
            return comm.all_reduce(rng.standard_normal(1000).astype(np.float32))

        a = run_spmd(fn, 4)
        b = run_spmd(fn, 4)
        for x, y in zip(a, b):
            assert (x == y).all()
        # all ranks identical
        for x in a[1:]:
            assert (x == a[0]).all()


class TestFailureHandling:
    def test_exception_propagates_and_unblocks(self):
        def fn(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()  # would deadlock without abort

        with pytest.raises(SpmdError, match="rank 1 failed.*boom"):
            run_spmd(fn, 4, timeout=20)

    def test_free_threaded_interpreter_is_refused(self, monkeypatch):
        """The rendezvous reads some shared state without a lock and relies
        on the GIL for it, so a world must not start without one."""
        import sys

        from repro.dist import World

        monkeypatch.setattr(sys, "_is_gil_enabled", lambda: False, raising=False)
        with pytest.raises(RuntimeError, match="GIL"):
            World(2)
        with pytest.raises(RuntimeError, match="GIL"):
            run_spmd(lambda comm: None, 2)
        monkeypatch.setattr(sys, "_is_gil_enabled", lambda: True, raising=False)
        assert run_spmd(lambda comm: comm.rank, 2) == [0, 1]


class TestTrafficLog:
    def test_counts_and_volumes(self):
        def fn(comm):
            comm.phase = "forward"
            comm.all_reduce(np.zeros(256, dtype=np.float32))  # 1 KiB payload
            comm.phase = "backward"
            comm.all_gather(np.zeros(64, dtype=np.float32))
            return None

        _, world = run_spmd_world(fn, 4)
        log = world.traffic
        assert log.count(op="all_reduce", phase="forward") == 4
        assert log.count(op="all_gather", phase="backward") == 4
        assert log.payload_bytes(op="all_reduce", rank=0) == 1024
        # ring all_reduce wire bytes: 2*(n-1)/n * payload
        assert log.wire_bytes(op="all_reduce", rank=0) == int(2 * 3 / 4 * 1024)
        hist = log.ops_histogram()
        assert hist == {"all_reduce": 4, "all_gather": 4}
