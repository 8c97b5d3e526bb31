"""Stress and failure-injection tests for the simulated runtime.

The SPMD engine is the substrate under every result in this repository, so
it gets adversarial coverage: collective storms, interleaved groups, large
worlds, mid-collective failures, and concurrent independent worlds.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.dist import SpmdError, run_spmd, run_spmd_world
from repro.dist.runtime import split_sizes


class TestCollectiveStorm:
    def test_many_sequential_collectives(self):
        """1000 collectives per rank with rotating ops and roots."""

        def fn(comm):
            acc = 0.0
            for i in range(250):
                x = np.array([float(comm.rank + i)], dtype=np.float32)
                acc += comm.all_reduce(x)[0]
                acc += np.concatenate(comm.all_gather(x)).sum()
                acc += comm.broadcast(x if comm.rank == i % comm.size else None, root=i % comm.size)[0]
                comm.barrier()
            return acc

        res = run_spmd(fn, 4)
        assert all(abs(r - res[0]) < 1e-3 for r in res)

    def test_interleaved_subgroup_collectives(self):
        """Two disjoint groups plus the world group, interleaved per step."""

        def fn(comm):
            lo = comm.group([0, 1])
            hi = comm.group([2, 3])
            mine = lo if comm.rank < 2 else hi
            total = 0.0
            for i in range(50):
                total += comm.all_reduce(np.ones(1, dtype=np.float32), group=mine)[0]
                total += comm.all_reduce(np.ones(1, dtype=np.float32))[0]
            return total

        assert run_spmd(fn, 4) == [50 * (2 + 4)] * 4

    def test_sixteen_ranks(self):
        def fn(comm):
            return comm.all_reduce(np.ones(4, dtype=np.float32))[0]

        assert run_spmd(fn, 16) == [16.0] * 16

    def test_thirty_two_ranks_collective_mix(self):
        """The CI smoke job's target: a 32-rank world driving a mixed
        collective sequence (AllReduce, AllGather, uneven ReduceScatter,
        barrier) to completion under the suite's SIGALRM timeout."""

        def fn(comm):
            total = 0.0
            for i in range(5):
                x = np.full(8, float(comm.rank + i), dtype=np.float32)
                total += comm.all_reduce(x)[0]
                total += np.concatenate(comm.all_gather(np.ones(1, dtype=np.float32))).sum()
                # 37 elements over 32 ranks: remainder shards exercise the
                # padded-collective path at scale.
                total += comm.reduce_scatter(np.ones(37, dtype=np.float32)).sum()
                comm.barrier()
            return total

        res = run_spmd(fn, 32, timeout=90)
        # 37 = 32 + 5: the first five ranks own one extra reduced slot worth
        # 32.0 per iteration; everything else is identical across ranks.
        assert all(abs(r - res[0]) < 1e-3 for r in res[1:5])
        assert all(abs(r - res[31]) < 1e-3 for r in res[5:31])
        assert res[0] - res[31] == 5 * 32.0

    def test_sixteen_rank_storm_with_aliased_outs(self):
        """16 ranks alternate between a 2-rank group ({2k, 2k+1}) and a
        strided 4-rank group ({k, k+4, k+8, k+12}), issuing bandwidth-sized
        (64 KiB) all_reduce / reduce_scatter with every op and no out, a
        fresh out or an out aliasing the input (its own slice for
        reduce_scatter), rotating per rank and round.  Every result is
        checked bitwise against the group-rank-ordered reference."""
        n, length = 16, 8193  # odd: uneven reduce_scatter splits
        rounds = [
            (op, name, size)
            for op in ("sum", "mean", "max", "min")
            for name in ("all_reduce", "reduce_scatter")
            for size in (2, 4)
        ]
        contribs = np.random.default_rng(11).standard_normal((len(rounds), n, length))

        def members(rank, size):
            return [rank & ~1, rank | 1] if size == 2 else [rank % 4 + 4 * i for i in range(4)]

        def my_slice(rank, name, ranks):
            if name == "all_reduce":
                return slice(None)
            sizes = split_sizes(length, len(ranks))
            lo = sum(sizes[: ranks.index(rank)])
            return slice(lo, lo + sizes[ranks.index(rank)])

        def reference(rnd, op, ranks):
            ufunc = {"sum": np.add, "mean": np.add, "max": np.maximum, "min": np.minimum}[op]
            acc = contribs[rnd, ranks[0]]
            for r in ranks[1:]:
                acc = ufunc(acc, contribs[rnd, r])
            return acc / len(ranks) if op == "mean" else acc

        def fn(comm):
            got = []
            for rnd, (op, name, size) in enumerate(rounds):
                ranks = members(comm.rank, size)
                mine = contribs[rnd, comm.rank].copy()
                view = mine[my_slice(comm.rank, name, ranks)]
                kind = (comm.rank + rnd) % 3
                out = (None, np.empty_like(view), view)[kind]
                collective = getattr(comm, name)
                res = collective(mine, op=op, group=comm.group(ranks), out=out)
                got.append(res.copy())
                mine[...] = -1.0  # mutating my input after return must not leak
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force thread switches mid-distribution
        try:
            results = run_spmd(fn, n, timeout=90)
        finally:
            sys.setswitchinterval(interval)
        for rank, got in enumerate(results):
            for rnd, ((op, name, size), value) in enumerate(zip(rounds, got)):
                ranks = members(rank, size)
                want = reference(rnd, op, ranks)[my_slice(rank, name, ranks)]
                assert np.array_equal(value, want), f"rank {rank} round {rnd}"

    def test_nested_group_membership(self):
        """Every rank participates in log2(n) nested halving groups."""

        def fn(comm):
            values = []
            span = comm.size
            base = 0
            while span >= 1:
                ranks = [base + i for i in range(span)]
                g = comm.group(ranks)
                values.append(comm.all_reduce(np.ones(1, dtype=np.float32), group=g)[0])
                half = span // 2
                if half == 0:
                    break
                if comm.rank >= base + half:
                    base += half
                span = half
            return values

        res = run_spmd(fn, 8)
        assert res[0][0] == 8.0 and res[0][1] == 4.0


class TestFailureInjection:
    def test_late_failure_mid_collective_chain(self):
        def fn(comm):
            for i in range(20):
                comm.all_reduce(np.ones(1, dtype=np.float32))
                if i == 13 and comm.rank == 2:
                    raise RuntimeError("injected fault at step 13")
            return True

        with pytest.raises(SpmdError, match="injected fault"):
            run_spmd(fn, 4, timeout=20)

    def test_failure_in_subgroup_unblocks_other_group(self):
        def fn(comm):
            if comm.rank < 2:
                g = comm.group([0, 1])
                if comm.rank == 0:
                    raise ValueError("group-0 fault")
                comm.all_reduce(np.ones(1, dtype=np.float32), group=g)
            else:
                g = comm.group([2, 3])
                for _ in range(5):
                    comm.all_reduce(np.ones(1, dtype=np.float32), group=g)
            return True

        with pytest.raises(SpmdError, match="group-0 fault"):
            run_spmd(fn, 4, timeout=20)

    def test_mismatched_collective_order_times_out(self):
        """A rank calling a different collective sequence deadlocks —
        detected by the timeout, not a hang."""

        def fn(comm):
            if comm.rank == 0:
                comm.all_reduce(np.ones(1, dtype=np.float32))  # others never join
            else:
                comm.barrier()
            return True

        with pytest.raises(SpmdError):
            run_spmd(fn, 2, timeout=1.0)

    def test_timeout_names_the_blocked_rank(self):
        """The timeout error is read from the group slot state: it names
        the rank still waiting, its collective, the group and how many
        members arrived, and no rank that is not blocked."""

        def fn(comm):
            if comm.rank == 2:
                comm.all_reduce(np.ones(1, dtype=np.float32))  # peers never join
            return True

        with pytest.raises(SpmdError) as info:
            run_spmd(fn, 3, timeout=0.5)
        msg = str(info.value)
        assert info.value.rank == -1
        assert "rank 2 in all_reduce on group [0, 1, 2] (1/3 arrived)" in msg
        assert "rank 0" not in msg and "rank 1" not in msg

    def test_abort_wakes_a_peer_whose_last_wake_it_lost(self):
        """The barrier's last arriver opens its peers' gates, takes the free
        run token and raises before they have woken.  The abort then finds
        those gates still open and cannot open them a second time, so each
        peer wakes once, returns from the barrier and must see the abort
        flag before it sleeps in the next one.  Fresh worlds of more ranks
        than cores, under a 10 µs switch interval, vary the interleaving;
        each must unwind with the fault named, never by waiting out its
        timeout."""
        timeout = 5.0

        def fn(comm):
            comm.barrier()
            if comm.rank == 3:
                raise RuntimeError("fault after the barrier")
            comm.barrier()
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                began = time.monotonic()
                with pytest.raises(SpmdError, match="fault after the barrier") as info:
                    run_spmd(fn, 4, timeout=timeout)
                assert time.monotonic() - began < timeout, "a peer slept through the abort"
                assert info.value.world.rank_status == ["aborted"] * 3 + ["failed"]
        finally:
            sys.setswitchinterval(interval)

    def test_world_reusable_after_failure(self):
        """A failed run must not poison subsequent runs (fresh worlds)."""

        def bad(comm):
            raise RuntimeError("nope")

        with pytest.raises(SpmdError):
            run_spmd(bad, 2, timeout=5)

        def good(comm):
            return comm.all_reduce(np.ones(1, dtype=np.float32))[0]

        assert run_spmd(good, 2) == [2.0, 2.0]


class TestRunToken:
    """One rank runs rank code at a time: the world's run token."""

    def test_rank_sections_never_overlap(self):
        """A tp2 × dp2 world under a 10 µs switch interval: every rank stamps
        when it enters and leaves the numpy work between its collectives
        (matmuls and ufuncs that release the GIL), and no two ranks'
        sections overlap."""

        def fn(comm):
            tp = comm.group([comm.rank & ~1, comm.rank | 1])
            dp = comm.group([comm.rank % 2, comm.rank % 2 + 2])
            a = np.random.default_rng(comm.rank).standard_normal((128, 128))
            spans = []
            for _ in range(20):
                for group in (tp, dp):
                    start = time.perf_counter()
                    for _ in range(6):
                        a = np.tanh(a @ a.T / 128.0)
                    spans.append((start, time.perf_counter()))
                    a = comm.all_reduce(a, group=group) / 2.0
            return spans

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # invite a thread switch inside every section
        try:
            results = run_spmd(fn, 4, timeout=60)
        finally:
            sys.setswitchinterval(interval)
        spans = sorted((s, e, rank) for rank, own in enumerate(results) for s, e in own)
        for (_, end, rank), (start, _, nxt) in zip(spans, spans[1:]):
            assert end <= start, f"rank {rank} and rank {nxt} ran rank code at once"

    def test_failure_while_peers_wait_for_the_token(self):
        """The first rank to run raises while its peers wait for the token:
        no peer runs rank code before the raise, the world unwinds at once
        with that rank named, and the token is left free."""
        entered, raised = [], []

        def fn(comm):
            entered.append((comm.rank, time.monotonic()))
            if len(entered) == 1:
                time.sleep(0.2)  # every peer is queued on the token meanwhile
                raised.append(time.monotonic())
                raise RuntimeError(f"fault on rank {comm.rank}")
            comm.barrier()
            return True

        began = time.monotonic()
        with pytest.raises(SpmdError) as info:
            run_spmd(fn, 4, timeout=20)
        assert time.monotonic() - began < 2.0
        culprit = entered[0][0]
        assert all(at >= raised[0] for _, at in entered[1:]), "a peer ran before the raise"
        err = info.value
        assert err.rank == culprit and f"rank {culprit} failed" in str(err)
        world = err.world
        assert world.rank_status == ["failed" if r == culprit else "aborted" for r in range(4)]
        assert not world._token.locked() and world._holder == -1

    def test_aborted_rank_exits_without_the_token(self, monkeypatch):
        """Ranks unwound by an abort — from a collective wait or from the
        token queue — hold no token, so they release none on exit: freeing
        a token they lack would raise in the rank thread or hand a peer's
        turn away."""
        escaped = []
        monkeypatch.setattr(threading, "excepthook", lambda args: escaped.append(args.exc_value))

        def fn(comm):
            comm.barrier()
            if comm.rank == 1:
                raise ValueError("fault after the barrier")
            comm.barrier()  # rank 0 and rank 2 wait here, or for the token
            return True

        with pytest.raises(SpmdError, match="fault after the barrier") as info:
            run_spmd(fn, 3, timeout=20)
        world = info.value.world
        assert world.rank_status == ["aborted", "failed", "aborted"]
        assert not world._token.locked() and world._holder == -1
        assert escaped == []

    def test_timeout_names_the_token_holder(self):
        """A rank that keeps the token past the driver timeout (here asleep)
        is named in the timeout error; its queued peer unwinds."""
        entered = []

        def fn(comm):
            entered.append(comm.rank)
            if len(entered) == 1:
                time.sleep(1.0)
            return True

        with pytest.raises(SpmdError) as info:
            run_spmd(fn, 2, timeout=0.3)
        assert info.value.rank == -1
        assert f"rank {entered[0]} holds the run token" in str(info.value)
        assert info.value.world.rank_status[1 - entered[0]] == "aborted"


class TestConcurrentWorlds:
    def test_two_worlds_in_parallel_threads(self):
        """Independent SPMD worlds launched from different driver threads
        must not interfere (trackers/counters are context-local)."""
        results = {}

        def driver(name, world, value):
            def fn(comm):
                return comm.all_reduce(np.full(2, value, dtype=np.float32))[0]

            results[name] = run_spmd(fn, world)

        threads = [
            threading.Thread(target=driver, args=("a", 2, 1.0)),
            threading.Thread(target=driver, args=("b", 4, 10.0)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results["a"] == [2.0, 2.0]
        assert results["b"] == [40.0] * 4


class TestTrafficUnderStress:
    def test_log_consistency_across_heavy_usage(self):
        def fn(comm):
            for _ in range(40):
                comm.all_reduce(np.ones(64, dtype=np.float32))
            return None

        _, world = run_spmd_world(fn, 4)
        assert world.traffic.count(op="all_reduce") == 4 * 40
        assert world.traffic.payload_bytes(op="all_reduce", rank=2) == 40 * 64 * 4

    def test_memory_trackers_isolated_per_rank(self):
        from repro.tensor import MemoryTracker, Tensor, track_memory

        def fn(comm):
            tracker = MemoryTracker(name=f"rank{comm.rank}")
            with track_memory(tracker):
                size = 1000 * (comm.rank + 1)
                t = Tensor.zeros((size,))
                peak = tracker.peak_bytes
            del t
            return peak

        res = run_spmd(fn, 4)
        for rank, peak in enumerate(res):
            assert peak >= 4000 * (rank + 1)
            assert peak < 4000 * (rank + 1) + 4096  # no cross-rank bleed
