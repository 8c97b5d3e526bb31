"""Property tests: the zero-copy collective fast paths are bitwise-faithful.

The runtime's data path does not snapshot contributions (peers stay blocked
while the reduction runs), and results are written straight into the
buffers that keep them.  Completion is a batched wake: the last arriver
reduces an ``all_reduce`` into its own ``out`` (the peers copy from there),
reduces each member's ``reduce_scatter`` slice from the live contributions
straight into that member's ``out`` (no full-size result), skips the copy
for an ``all_gather``, ``broadcast`` or ``all_to_all`` slot that already
holds the rank's own bytes, then opens each waiter's gate.  None of that
may change a single bit: every collective must equal the reference
rank-ordered computation (the same left-to-right pairwise order), an
``out`` that aliases an input the fixed order still has to read must fall
back to a fresh result (:class:`TestArrivalOrder` forces that case and
checks which rank reduced), private results must stay
private (mutating one rank's output — or its *input*, right after return —
never leaks to another rank or a later collective), no collective may
allocate a full-size temporary behind an ``out=`` (:class:`TestNoTemporary`),
and the charged wire bytes must stay exactly
:func:`repro.dist.ring_wire_bytes`.  Small payloads are drawn by hypothesis;
bandwidth-sized ones (≥ 64 KiB per rank) are enumerated in
:class:`TestLargePayloadReduceParity`.
"""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist import ring_wire_bytes, run_spmd_world, runtime
from repro.dist.runtime import split_sizes

WORLD_SIZES = (2, 4, 8)
REDUCE_OPS = ("sum", "mean", "max", "min")


def _contribs(n: int, length: int, dtype, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.floating):
        # Full-precision noise: float associativity differences would show.
        return [rng.standard_normal(length).astype(dtype) * 3.7 for _ in range(n)]
    return [rng.integers(-1000, 1000, size=length).astype(dtype) for _ in range(n)]


def _reference_reduce(contribs: list[np.ndarray], op: str) -> np.ndarray:
    """Group-rank-ordered pairwise reduction — the determinism contract."""
    out = contribs[0].copy()
    for a in contribs[1:]:
        if op in ("sum", "mean"):
            out += a
        elif op == "max":
            np.maximum(out, a, out=out)
        elif op == "min":
            np.minimum(out, a, out=out)
    if op == "mean":
        out /= len(contribs)
    return out


def _wire_ok(world, op: str, payload: int, n: int, issues: int = 1) -> bool:
    return world.traffic.wire_bytes(op=op, rank=0) == issues * ring_wire_bytes(
        op, payload, n
    )


common = settings(max_examples=12, deadline=None)


class TestReduceParity:
    @common
    @given(
        n=st.sampled_from(WORLD_SIZES),
        length=st.integers(1, 97),
        dtype=st.sampled_from([np.float32, np.float64, np.int64]),
        op=st.sampled_from(REDUCE_OPS),
        use_out=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_all_reduce_bitwise(self, n, length, dtype, op, use_out, seed):
        if op == "mean" and not np.issubdtype(np.dtype(dtype), np.floating):
            return
        contribs = _contribs(n, length, dtype, seed)
        expect = _reference_reduce(contribs, op)

        def fn(comm):
            mine = contribs[comm.rank]
            out = np.empty_like(mine) if use_out else None
            res = comm.all_reduce(mine, op=op, out=out)
            if use_out:
                assert res is out
            got = res.copy()
            res[...] = 0  # mutating my private result must not leak
            again = comm.all_reduce(mine, op=op)
            return got, again

        results, world = run_spmd_world(fn, n)
        for got, again in results:
            assert got.dtype == expect.dtype
            assert np.array_equal(got, expect), "fast path diverged from reference"
            assert np.array_equal(again, expect), "result mutation leaked"
        assert _wire_ok(world, "all_reduce", expect.nbytes, n, issues=2)

    @common
    @given(
        n=st.sampled_from(WORLD_SIZES),
        length=st.integers(1, 61),
        op=st.sampled_from(REDUCE_OPS),
        uneven=st.booleans(),
        use_out=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_reduce_scatter_bitwise(self, n, length, op, uneven, use_out, seed):
        # uneven=True keeps the raw length (remainder convention / padded
        # collective); uneven=False rounds up to an even split.
        if not uneven:
            length += (-length) % n
        contribs = _contribs(n, length, np.float64, seed)
        full = _reference_reduce(contribs, op)
        sizes = split_sizes(length, n)

        def fn(comm):
            mine = contribs[comm.rank]
            out = (
                np.empty(sizes[comm.rank], dtype=mine.dtype) if use_out else None
            )
            res = comm.reduce_scatter(mine, op=op, out=out)
            if use_out:
                assert res is out
            return res.copy()

        results, world = run_spmd_world(fn, n)
        lo = 0
        for r, shard in enumerate(results):
            assert np.array_equal(shard, full[lo : lo + sizes[r]])
            lo += sizes[r]
        # Padded-collective accounting: the ring moves max(chunk)·n elements.
        padded = max(sizes) * n * full.itemsize
        assert _wire_ok(world, "reduce_scatter", padded, n)


#: At least 64 KiB per rank: 8,193 float64 (65,544 B) and 16,411 float32
#: (65,644 B) — odd lengths, so reduce_scatter splits unevenly at every size.
LARGE_PAYLOADS = ((np.float64, 8193), (np.float32, 16411))

#: Which ranks pass ``out=``: none, all, even ranks only, every rank with
#: ``out`` aliasing its own input, or a per-rank mix of the three.
OUT_MODES = ("none", "all", "some", "alias", "mixed")


def _out_kind(mode: str, rank: int) -> str:
    if mode == "mixed":
        return ("none", "fresh", "alias")[rank % 3]
    if mode == "some":
        return "fresh" if rank % 2 == 0 else "none"
    return {"none": "none", "all": "fresh", "alias": "alias"}[mode]


class TestLargePayloadReduceParity:
    """Bandwidth-sized reductions (≥ 64 KiB per rank) against the reference.

    Every op is issued twice per world so the slot ring wraps and any buffer
    the runtime reuses across collectives is exercised; results and inputs
    are mutated right after each return, which must never reach a peer or a
    later collective.
    """

    @pytest.mark.parametrize("n", WORLD_SIZES)
    @pytest.mark.parametrize("dtype,length", LARGE_PAYLOADS)
    @pytest.mark.parametrize("mode", OUT_MODES)
    def test_all_reduce_bitwise(self, n, dtype, length, mode):
        contribs = _contribs(n, length, dtype, seed=17 + n)
        expects = {op: _reference_reduce(contribs, op) for op in REDUCE_OPS}

        def fn(comm):
            kind = _out_kind(mode, comm.rank)
            got = []
            for _round in range(2):
                for op in REDUCE_OPS:
                    mine = contribs[comm.rank].copy()
                    out = {
                        "none": None,
                        "fresh": np.empty_like(mine),
                        "alias": mine,
                    }[kind]
                    res = comm.all_reduce(mine, op=op, out=out)
                    if out is not None:
                        assert res is out
                    if kind != "alias":  # the reduction never writes inputs
                        assert np.array_equal(mine, contribs[comm.rank])
                    got.append((op, res.copy()))
                    res[...] = 0  # mutating my private result must not leak
                    mine[...] = -1  # nor may mutating my input
            return got

        results, world = run_spmd_world(fn, n, timeout=60.0)
        for got in results:
            for op, value in got:
                assert value.dtype == expects[op].dtype
                assert np.array_equal(value, expects[op]), f"{op} diverged"
        assert _wire_ok(
            world, "all_reduce", contribs[0].nbytes, n, issues=2 * len(REDUCE_OPS)
        )

    @pytest.mark.parametrize("n", WORLD_SIZES)
    @pytest.mark.parametrize("dtype,length", LARGE_PAYLOADS)
    @pytest.mark.parametrize("mode", OUT_MODES)
    def test_reduce_scatter_bitwise(self, n, dtype, length, mode):
        contribs = _contribs(n, length, dtype, seed=29 + n)
        fulls = {op: _reference_reduce(contribs, op) for op in REDUCE_OPS}
        sizes = split_sizes(length, n)
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)

        def fn(comm):
            kind = _out_kind(mode, comm.rank)
            lo, hi = offsets[comm.rank], offsets[comm.rank + 1]
            got = []
            for _round in range(2):
                for op in REDUCE_OPS:
                    mine = contribs[comm.rank].copy()
                    out = {
                        "none": None,
                        "fresh": np.empty(hi - lo, dtype=mine.dtype),
                        # My own slice of my own input.
                        "alias": mine[lo:hi],
                    }[kind]
                    res = comm.reduce_scatter(mine, op=op, out=out)
                    if out is not None:
                        assert res is out
                    if kind != "alias":
                        assert np.array_equal(mine, contribs[comm.rank])
                    got.append((op, res.copy()))
                    res[...] = 0
                    mine[...] = -1
            return got

        results, world = run_spmd_world(fn, n, timeout=60.0)
        for rank, got in enumerate(results):
            lo, hi = offsets[rank], offsets[rank + 1]
            for op, shard in got:
                assert shard.dtype == fulls[op].dtype
                assert np.array_equal(shard, fulls[op][lo:hi]), f"{op} diverged"
        padded = max(sizes) * n * contribs[0].itemsize
        assert _wire_ok(
            world, "reduce_scatter", padded, n, issues=2 * len(REDUCE_OPS)
        )


class TestGatherParity:
    @common
    @given(
        n=st.sampled_from(WORLD_SIZES),
        length=st.integers(1, 73),
        dtype=st.sampled_from([np.float32, np.int64]),
        use_out=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_all_gather_small_bitwise(self, n, length, dtype, use_out, seed):
        contribs = _contribs(n, length, dtype, seed)

        def fn(comm):
            outs = (
                [np.empty_like(contribs[i]) for i in range(n)] if use_out else None
            )
            parts = comm.all_gather(contribs[comm.rank], out=outs)
            got = [p.copy() for p in parts]
            for p in parts:  # mutate every private part
                p[...] = 0
            again = comm.all_gather(contribs[comm.rank])
            return got, again

        results, world = run_spmd_world(fn, n)
        for got, again in results:
            for i in range(n):
                assert np.array_equal(got[i], contribs[i])
                assert np.array_equal(again[i], contribs[i]), "mutation leaked"
        assert _wire_ok(world, "all_gather", contribs[0].nbytes, n, issues=2)

    @pytest.mark.parametrize("n", WORLD_SIZES)
    @pytest.mark.parametrize("use_out", [False, True])
    def test_all_gather_large_payload_live_copy(self, n, use_out):
        """Large gathers copy parts straight from peers' live buffers during
        batched-wake distribution (no snapshot); mutating the *input* the
        moment the collective returns must therefore never leak to any
        peer's gathered parts."""
        length = (1 << 18) // 4 + 3  # ~256 KiB of float32 per rank
        contribs = _contribs(n, length, np.float32, seed=1234)
        orig = [c.copy() for c in contribs]

        def fn(comm):
            mine = contribs[comm.rank]
            outs = [np.empty_like(contribs[i]) for i in range(n)] if use_out else None
            parts = comm.all_gather(mine, out=outs)
            got = [p.copy() for p in parts]
            # Mutate the INPUT right after return: distribution must have
            # finished every peer's copy before anyone was released.
            mine[...] = -1.0
            return got

        results, world = run_spmd_world(fn, n)
        for got in results:
            for i in range(n):
                assert np.array_equal(got[i], orig[i])
        assert _wire_ok(world, "all_gather", orig[0].nbytes, n)

    @pytest.mark.parametrize("use_out", [False, True])
    def test_all_gather_mixed_out_and_uneven_shards(self, use_out):
        """Mixed per-rank configurations — uneven shard sizes, ``out=`` on
        only some ranks — all run the one batched-wake protocol (the old
        design split the group across a barrier vote here and had to fall
        back; there is no second protocol to fall back to anymore)."""
        big = (1 << 18) // 4 + 7   # ~256 KiB float32 shard
        small = 64                 # tiny shard on the other ranks
        lengths = [big, small, big, small]
        contribs = [
            np.full(lengths[r], float(r + 1), dtype=np.float32) for r in range(4)
        ]
        orig = [c.copy() for c in contribs]

        def fn(comm):
            mine = contribs[comm.rank]
            outs = None
            if use_out and comm.rank % 2 == 0:  # out= on only some ranks
                outs = [np.empty(lengths[i], dtype=np.float32) for i in range(4)]
            parts = comm.all_gather(mine, out=outs)
            got = [p.copy() for p in parts]
            mine[...] = -7.0  # mutation after return must not leak to peers
            return got

        results, _ = run_spmd_world(fn, 4, timeout=30.0)
        for got in results:
            for i in range(4):
                assert np.array_equal(got[i], orig[i])

    @common
    @given(
        n=st.sampled_from(WORLD_SIZES),
        length=st.integers(1, 40),
        seed=st.integers(0, 2**31),
    )
    def test_broadcast_and_all_to_all_bitwise(self, n, length, seed):
        contribs = _contribs(n, length * n, np.float64, seed)

        def fn(comm):
            got_b = comm.broadcast(
                contribs[0] if comm.rank == 0 else None, root=0
            ).copy()
            sends = np.split(contribs[comm.rank], n)
            got_a = [c.copy() for c in comm.all_to_all(sends)]
            return got_b, got_a

        results, world = run_spmd_world(fn, n)
        for rank, (got_b, got_a) in enumerate(results):
            assert np.array_equal(got_b, contribs[0])
            for i in range(n):
                expect = np.split(contribs[i], n)[rank]
                assert np.array_equal(got_a[i], expect)
        assert _wire_ok(world, "broadcast", contribs[0].nbytes, n)
        assert _wire_ok(world, "all_to_all", contribs[0].nbytes, n)

    @pytest.mark.parametrize("n", WORLD_SIZES)
    def test_all_to_all_own_chunk_is_the_send(self, n):
        """An ``out[me]`` exactly aliasing ``sends[me]`` already holds the
        rank's own chunk and is not copied into: it is read-only here, so a
        copy would fail the rank.  Every chunk still equals the reference."""
        contribs = _contribs(n, 7 * n, np.float64, seed=29 + n)
        orig = [c.copy() for c in contribs]

        def fn(comm):
            me = comm.rank
            sends = np.split(contribs[me], n)
            sends[me].flags.writeable = False
            outs = [s if i == me else np.empty_like(s) for i, s in enumerate(sends)]
            got = comm.all_to_all(sends, out=outs)
            assert got[me] is sends[me]
            return [g.copy() for g in got]

        results, world = run_spmd_world(fn, n)
        for rank, got in enumerate(results):
            for i in range(n):
                assert np.array_equal(got[i], np.split(orig[i], n)[rank])
        for c, o in zip(contribs, orig):
            assert np.array_equal(c, o), "the send bytes changed"
        assert _wire_ok(world, "all_to_all", orig[0].nbytes, n)


#: (collective, reduce op) pairs of the solo-group fence; barrier has no out=.
SOLO_CASES = [
    pytest.param(
        name, reduce_op, use_out,
        id="-".join(filter(None, (name, reduce_op, "out" if use_out else ""))),
    )
    for name, reduce_op in (
        ("all_reduce", "sum"), ("all_reduce", "mean"), ("all_gather", None),
        ("reduce_scatter", None), ("broadcast", None), ("all_to_all", None),
        ("barrier", None),
    )
    for use_out in ((False,) if name == "barrier" else (False, True))
]


def _issue_solo(comm, name, reduce_op, group, mine, use_out):
    """Issue one collective on *group*; returns ``(result parts, out parts)``
    as lists of arrays (empty for a barrier, ``out parts`` None without out=)."""
    if name == "barrier":
        comm.barrier(group=group)
        return [], None
    if name in ("all_gather", "all_to_all"):
        out = [np.empty_like(mine)] if use_out else None
        if name == "all_gather":
            return list(comm.all_gather(mine, group=group, out=out)), out
        return list(comm.all_to_all([mine], group=group, out=out)), out
    out = np.empty_like(mine) if use_out else None
    if name == "broadcast":
        res = comm.broadcast(mine, comm.rank, group=group, out=out)
    elif name == "reduce_scatter":
        res = comm.reduce_scatter(mine, group=group, out=out)
    else:
        res = comm.all_reduce(mine, op=reduce_op, group=group, out=out)
    return [res], None if out is None else [out]


class TestSoloGroupParity:
    """A collective on a one-rank group is a private copy of the input: one
    zero-wire traffic record stamped at the rank's current virtual time, no
    clock movement (an eager collective stays pending) and no clock
    interval."""

    @pytest.mark.parametrize("name,reduce_op,use_out", SOLO_CASES)
    def test_solo_group_is_a_local_copy(self, name, reduce_op, use_out):
        from repro.perf import VirtualClock, frontier

        clock = VirtualClock(frontier(), eager_phases={"dp_sync"})

        def fn(comm):
            solo = comm.group([comm.rank])
            mine = np.arange(6, dtype=np.float64) * 1.25 + comm.rank
            comm.charge_compute(1e-6 * (comm.rank + 1), phase="forward")
            with comm.phase_scope("dp_sync"):
                # In flight across the solo op: a drain would settle it.
                comm.all_reduce(np.ones(1024, np.float32))
                before = comm.now()
                parts, outs = _issue_solo(comm, name, reduce_op, solo, mine, use_out)
                after = comm.now()
            for i, part in enumerate(parts):
                if outs is not None:
                    assert part is outs[i]
                assert not np.shares_memory(part, mine)
                assert np.array_equal(part, mine)
            return before, after

        results, world = run_spmd_world(fn, 2, clock=clock)
        for rank, (before, after) in enumerate(results):
            assert after == before
            solo_recs = [
                r for r in world.traffic.records(rank=rank) if r.group_size == 1
            ]
            assert len(solo_recs) == (0 if name == "barrier" else 1)
            for rec in solo_recs:
                assert rec.op == name
                assert rec.wire_bytes == 0
                assert rec.vstart == rec.vend == before
        assert [(iv.rank, iv.op, iv.group) for iv in clock.comm_intervals()] == [
            (0, "all_reduce", (0, 1)), (1, "all_reduce", (0, 1)),
        ]


class TestOutBufferValidation:
    def test_mismatched_out_rejected(self):
        from repro.dist import SpmdError

        def fn(comm):
            comm.all_reduce(np.ones(4), out=np.empty(5))

        with pytest.raises(SpmdError):
            run_spmd_world(fn, 2)

    def test_all_gather_out_aliasing_input_rejected(self):
        from repro.dist import SpmdError

        def fn(comm):
            mine = np.ones(8, dtype=np.float32)
            outs = [mine, np.empty_like(mine)]  # peer slot aliases my input
            comm.all_gather(mine, out=outs if comm.rank == 1 else None)

        with pytest.raises(SpmdError):
            run_spmd_world(fn, 2)

    def test_all_reduce_out_may_alias_input(self):
        def fn(comm):
            mine = np.full(16, float(comm.rank + 1))
            res = comm.all_reduce(mine, out=mine)
            return res.copy()

        results, _ = run_spmd_world(fn, 2)
        for got in results:
            assert np.array_equal(got, np.full(16, 3.0))

    def test_all_to_all_out_overlapping_a_send_rejected(self):
        """Rank 0 receives rank 1's chunk into its own ``sends[2]``, which
        rank 2 has still to read: it must refuse, not hand rank 2 the bytes
        rank 1 sent."""
        from repro.dist import SpmdError

        def fn(comm):
            buf = np.arange(12) + 100 * comm.rank
            sends = np.split(buf, 3)
            out = [np.empty(4, buf.dtype) for _ in range(3)]
            if comm.rank == 0:
                out[1] = sends[2]
            return [o.copy() for o in comm.all_to_all(sends, out=out)]

        with pytest.raises(SpmdError, match="overlap"):
            run_spmd_world(fn, 3)

    def test_broadcast_root_out_overlapping_its_payload_rejected(self):
        """A root ``out`` that is its payload reversed would hand the peers
        half-reversed bytes; only ``out`` exactly the payload may alias it
        (and is then not copied)."""
        from repro.dist import SpmdError

        value = np.arange(8, dtype=np.float64)

        def fn(comm, flip):
            mine = value.copy()
            if comm.rank != 0:
                out = np.empty_like(mine)
            else:
                out = mine[::-1] if flip else mine
            res = comm.broadcast(mine, root=0, out=out)
            assert res is out
            return res.copy()

        with pytest.raises(SpmdError, match="overlap"):
            run_spmd_world(fn, 3, True)
        results, world = run_spmd_world(fn, 3, False)
        for got in results:
            assert np.array_equal(got, value)
        assert _wire_ok(world, "broadcast", value.nbytes, 3)

    def test_reduce_scatter_out_over_a_peer_slice_falls_back(self):
        """Rank 0 takes its slice into the part of its input that holds
        rank 1's operand.  The fallback's copy may land there only after
        rank 1's slice has been reduced."""
        n, length = 3, 12
        contribs = _contribs(n, length, np.float64, seed=17)
        expect = _reference_reduce(contribs, "sum")

        def fn(comm):
            mine = contribs[comm.rank].copy()
            out = mine[4:8] if comm.rank == 0 else None
            res = comm.reduce_scatter(mine, out=out)
            if out is not None:
                assert res is out
            return res.copy()

        results, _ = run_spmd_world(fn, n)
        for rank, got in enumerate(results):
            assert np.array_equal(got, expect[4 * rank : 4 * rank + 4]), f"rank {rank}"


class TestArrivalOrder:
    """Group-rank n−1 arrives last with ``out`` aliasing its own input (for
    ``reduce_scatter``, its own slice).  The last arriver reduces into its
    own ``out``, but the fixed order reads its input only at step n−1,
    after the first op has written ``out``: it must fall back to a fresh
    result plus a copy.  Peers mix no ``out``, a fresh one and an aliased
    one.

    Ranks of a fresh world first take the run token in thread start order,
    so rank n−1 is the last to arrive at the world's first collective: each
    op gets its own world, and every case checks that rank n−1's thread ran
    the reduction, so the fallback cannot silently go unexercised.  (A
    sleep cannot order arrivals: a sleeping rank keeps the token.)"""

    @pytest.mark.parametrize("n", (3, 4, 8))
    @pytest.mark.parametrize("collective", ("all_reduce", "reduce_scatter"))
    def test_last_arriver_aliasing_its_input(self, n, collective, monkeypatch):
        length = 4099  # odd: reduce_scatter splits unevenly
        contribs = _contribs(n, length, np.float64, seed=71 + n)
        expects = {op: _reference_reduce(contribs, op) for op in REDUCE_OPS}
        sizes = split_sizes(length, n)
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        reducers = []  # the thread of every _reduce call
        real_reduce = runtime._reduce

        def spy(*args, **kwargs):
            reducers.append(threading.current_thread().name)
            return real_reduce(*args, **kwargs)

        monkeypatch.setattr(runtime, "_reduce", spy)

        def fn(comm, op):
            last = comm.rank == n - 1
            kind = "alias" if last else _out_kind("mixed", comm.rank)
            lo, hi = offsets[comm.rank], offsets[comm.rank + 1]
            mine = contribs[comm.rank].copy()
            if collective == "all_reduce":
                fresh, alias = np.empty_like(mine), mine
            else:
                fresh, alias = np.empty(hi - lo, mine.dtype), mine[lo:hi]
            out = {"none": None, "fresh": fresh, "alias": alias}[kind]
            if collective == "all_reduce":
                res = comm.all_reduce(mine, op=op, out=out)
            else:
                res = comm.reduce_scatter(mine, op=op, out=out)
            if out is not None:
                assert res is out
            return res.copy()

        for op in REDUCE_OPS:
            # A loaded host can let a thread start out of order: take a fresh
            # world until rank n−1 arrived last, checking every result.
            for _ in range(3):
                reducers.clear()
                results, _ = run_spmd_world(fn, n, op, timeout=60.0)
                for rank, value in enumerate(results):
                    lo, hi = offsets[rank], offsets[rank + 1]
                    want = expects[op] if collective == "all_reduce" else expects[op][lo:hi]
                    assert np.array_equal(value, want), f"rank {rank} {op} diverged"
                if set(reducers) == {f"spmd-rank-{n - 1}"}:
                    break
            else:
                pytest.fail(f"{op}: reduced on {sorted(set(reducers))} in three "
                            "worlds, never on the aliasing last arriver")


class TestNoTemporary:
    """Behind ``out=``, no collective allocates a full-size temporary: the
    traced peak rises by well under one payload."""

    NBYTES = 4 << 20

    def _peak_rise(self, fn, n=2):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            results, world = run_spmd_world(fn, n, timeout=60.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - base, results, world

    @pytest.mark.parametrize("collective", ("all_reduce", "reduce_scatter"))
    def test_reduction_into_out(self, collective):
        n = 2
        contribs = _contribs(n, self.NBYTES // 8, np.float64, seed=5)
        expect = _reference_reduce(contribs, "sum")
        size = expect.size if collective == "all_reduce" else expect.size // n
        outs = [np.empty(size) for _ in range(n)]

        def fn(comm):
            if collective == "all_reduce":
                return comm.all_reduce(contribs[comm.rank], out=outs[comm.rank])
            return comm.reduce_scatter(contribs[comm.rank], out=outs[comm.rank])

        rise, results, world = self._peak_rise(fn, n)
        assert rise < self.NBYTES // 2, f"{collective} allocated {rise} B"
        for rank, res in enumerate(results):
            assert res is outs[rank]
            lo = 0 if collective == "all_reduce" else rank * size
            assert np.array_equal(res, expect[lo : lo + size])
        payload = contribs[0].nbytes
        assert _wire_ok(world, collective, payload, n)

    def test_all_gather_own_slot_is_the_input(self):
        n = 2
        contribs = _contribs(n, self.NBYTES // 8, np.float64, seed=6)
        orig = [c.copy() for c in contribs]
        outs = [[c if i == r else np.empty_like(c) for i, c in enumerate(contribs)]
                for r in range(n)]

        def fn(comm):
            parts = comm.all_gather(contribs[comm.rank], out=outs[comm.rank])
            assert parts[comm.rank] is contribs[comm.rank]
            return parts

        rise, results, world = self._peak_rise(fn, n)
        assert rise < self.NBYTES // 2, f"all_gather allocated {rise} B"
        for parts in results:
            for i in range(n):
                assert np.array_equal(parts[i], orig[i])
        for c, o in zip(contribs, orig):
            assert np.array_equal(c, o), "the input bytes changed"
        assert _wire_ok(world, "all_gather", orig[0].nbytes, n)

    def test_broadcast_into_out(self):
        n = 2
        payload = _contribs(1, self.NBYTES // 8, np.float64, seed=7)[0]
        outs = [np.empty_like(payload) for _ in range(n)]

        def fn(comm):
            value = payload if comm.rank == 0 else None
            return comm.broadcast(value, root=0, out=outs[comm.rank])

        rise, results, world = self._peak_rise(fn, n)
        assert rise < self.NBYTES // 2, f"broadcast allocated {rise} B"
        for rank, res in enumerate(results):
            assert res is outs[rank]
            assert np.array_equal(res, payload)
        assert _wire_ok(world, "broadcast", payload.nbytes, n)

    def test_all_to_all_into_out(self):
        n = 2
        contribs = _contribs(n, self.NBYTES // 8, np.float64, seed=8)
        chunk = contribs[0].size // n
        outs = [[np.empty(chunk) for _ in range(n)] for _ in range(n)]

        def fn(comm):
            return comm.all_to_all(np.split(contribs[comm.rank], n), out=outs[comm.rank])

        rise, results, world = self._peak_rise(fn, n)
        assert rise < self.NBYTES // 2, f"all_to_all allocated {rise} B"
        for rank, parts in enumerate(results):
            assert all(p is o for p, o in zip(parts, outs[rank]))
            for i in range(n):
                assert np.array_equal(parts[i], contribs[i][rank * chunk : (rank + 1) * chunk])
        assert _wire_ok(world, "all_to_all", contribs[0].nbytes, n)
