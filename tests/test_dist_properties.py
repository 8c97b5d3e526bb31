"""Hypothesis property tests on collective semantics and the virtual clock."""

import math
import time

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dist import ring_wire_bytes, run_spmd, run_spmd_world
from repro.perf import CostModel, VirtualClock, frontier

WORLD_SIZES = st.sampled_from([1, 2, 3, 4])


@settings(max_examples=20, deadline=None)
@given(WORLD_SIZES, st.integers(1, 16), st.integers(0, 2**31 - 1))
def test_allreduce_equals_sum_of_contributions(world, n, seed):
    rng = np.random.default_rng(seed)
    contribs = rng.standard_normal((world, n)).astype(np.float32)

    def fn(comm):
        return comm.all_reduce(contribs[comm.rank])

    expect = contribs[0].astype(np.float32).copy()
    for c in contribs[1:]:
        expect = expect + c
    for out in run_spmd(fn, world):
        np.testing.assert_allclose(out, expect, rtol=1e-5, atol=1e-5)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 4]), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_reduce_scatter_then_gather_equals_allreduce(world, per, seed):
    rng = np.random.default_rng(seed)
    contribs = rng.standard_normal((world, per * world)).astype(np.float32)

    def fn(comm):
        shard = comm.reduce_scatter(contribs[comm.rank])
        return np.concatenate(comm.all_gather(shard)), comm.all_reduce(contribs[comm.rank])

    for gathered, reduced in run_spmd(fn, world):
        np.testing.assert_allclose(gathered, reduced, rtol=1e-5, atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(0, 2**31 - 1))
def test_all_to_all_twice_is_identity(world, seed):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((world, world, 3)).astype(np.float32)

    def fn(comm):
        once = comm.all_to_all(list(mats[comm.rank]))
        twice = comm.all_to_all(once)
        return np.stack(twice)

    for rank, out in enumerate(run_spmd(fn, world)):
        np.testing.assert_allclose(out, mats[rank])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2, 4]), st.integers(0, 2**31 - 1))
def test_broadcast_from_every_root(world, seed):
    rng = np.random.default_rng(seed)
    payloads = rng.standard_normal((world, 5)).astype(np.float32)

    def fn(comm):
        outs = []
        for root in range(comm.size):
            outs.append(comm.broadcast(payloads[comm.rank], root=root))
        return np.stack(outs)

    for out in run_spmd(fn, world):
        np.testing.assert_allclose(out, payloads)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(["all_reduce", "all_gather", "reduce_scatter", "broadcast", "all_to_all"]),
    st.integers(0, 10**9),
    st.integers(1, 64),
)
def test_ring_wire_bytes_bounds(op, payload, n):
    wire = ring_wire_bytes(op, payload, n)
    assert wire >= 0
    if n == 1:
        assert wire == 0
    if op == "all_reduce":
        assert wire <= 2 * payload
    if op == "reduce_scatter":
        assert wire <= payload
    if op == "all_gather":
        assert wire == (n - 1) * payload if n > 1 else wire == 0


# --- issue-queue clock properties ------------------------------------------
#
# A randomized SPMD schedule: every rank executes the same program — a mix of
# compute charges, eager collectives ("dp_sync"), blocking collectives
# (unphased), barriers and explicit drains — while hypothesis-chosen sleep
# perturbations shuffle the *thread* schedule underneath.

MACHINE = frontier()

SCHEDULE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("charge"), st.integers(0, 5)),
        st.tuples(st.just("eager"), st.integers(1, 64)),
        st.tuples(st.just("blocking"), st.integers(1, 64)),
        st.tuples(st.just("barrier"), st.just(0)),
        st.tuples(st.just("drain"), st.just(0)),
    ),
    min_size=1,
    max_size=10,
)


def _run_schedule(schedule, world, sleep_seed):
    clock = VirtualClock(MACHINE, eager_phases={"dp_sync"})

    def fn(comm):
        rng = np.random.default_rng(sleep_seed * 131 + comm.rank)
        for kind, arg in schedule:
            if rng.random() < 0.3:
                time.sleep(float(rng.random()) * 1e-4)
            if kind == "charge":
                comm.charge_compute(arg * 1e-7, phase="backward")
            elif kind == "eager":
                with comm.phase_scope("dp_sync"):
                    comm.all_reduce(np.ones(arg * 4, dtype=np.float32))
            elif kind == "blocking":
                comm.all_reduce(np.ones(arg * 4, dtype=np.float32))
            elif kind == "barrier":
                comm.barrier()
            elif kind == "drain":
                comm.drain_comm()
        return comm.now()

    _, w = run_spmd_world(fn, world, clock=clock)
    return clock, w


@settings(max_examples=12, deadline=None)
@given(SCHEDULE_OPS, st.sampled_from([2, 3, 4]), st.integers(0, 2**16))
def test_issue_queue_deterministic_under_adversarial_thread_schedules(
    schedule, world, seed
):
    """Two runs with *different* sleep patterns produce bitwise-identical
    virtual timelines and settled intervals."""

    def snapshot(sleep_seed):
        clock, w = _run_schedule(schedule, world, sleep_seed)
        return (
            clock.times(),
            sorted(
                (iv.rank, iv.op, iv.phase, iv.issue, iv.start, iv.end, iv.exposed)
                for iv in clock.comm_intervals()
            ),
            sorted((r.rank, r.op, r.vstart, r.vend) for r in w.traffic.records()),
        )

    assert snapshot(seed) == snapshot(seed + 1)


@settings(max_examples=12, deadline=None)
@given(SCHEDULE_OPS, st.sampled_from([2, 4]), st.integers(0, 2**16))
def test_issue_queue_causality_and_exposure_bounds(schedule, world, seed):
    """Invariants on every settled interval of a randomized schedule:
    issue ≤ start, end = start + priced cost, 0 ≤ exposed ≤ end − issue,
    and per-phase exposed ≤ per-phase record span (vend − vstart)."""
    clock, w = _run_schedule(schedule, world, seed)
    cost = CostModel(MACHINE)
    n_collectives = sum(
        1 for kind, _ in schedule if kind in ("eager", "blocking", "barrier")
    )
    assert len(clock.comm_intervals()) == n_collectives * world  # all settled
    for iv in clock.comm_intervals():
        assert iv.issue <= iv.start + 1e-18
        assert iv.start <= iv.end
        assert 0.0 <= iv.exposed <= (iv.end - iv.issue) + 1e-18
    # priced cost: every collective occupies exactly its α–β time
    payloads = [
        arg * 16 if kind != "barrier" else 0
        for kind, arg in schedule
        if kind in ("eager", "blocking", "barrier")
    ]
    ops = [
        "all_reduce" if kind != "barrier" else "barrier"
        for kind, _ in schedule
        if kind in ("eager", "blocking", "barrier")
    ]
    for iv, payload, op in zip(clock.comm_intervals(rank=0), payloads, ops):
        expected = cost.collective_seconds(op, payload, world, True)
        assert iv.op == op
        assert math.isclose(iv.end - iv.start, expected, rel_tol=1e-9, abs_tol=1e-18)
    for rank in range(world):
        span = sum(
            r.vend - r.vstart
            for r in w.traffic.records(rank=rank)
            if r.phase == "dp_sync" and r.vstart >= 0.0
        )
        assert clock.exposed_seconds(rank=rank, phase="dp_sync") <= span + 1e-15


@settings(max_examples=10, deadline=None)
@given(SCHEDULE_OPS, st.sampled_from([2, 4]), st.integers(0, 2**16))
def test_issue_queue_never_beats_perfect_overlap_bound(schedule, world, seed):
    """The eager makespan is bounded below by max(total compute, total comm
    occupancy) — overlap can hide, never delete, work."""
    clock, _ = _run_schedule(schedule, world, seed)
    for rank in range(world):
        compute = clock.compute_seconds(rank=rank)
        busy = clock.comm_busy_seconds(rank=rank)
        assert clock.now(rank) + 1e-15 >= max(compute, busy)
        assert clock.now(rank) <= compute + sum(
            iv.end - iv.issue for iv in clock.comm_intervals(rank=rank)
        ) + 1e-15
