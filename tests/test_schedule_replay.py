"""Step-schedule replay: bitwise parity with the live threaded runtime.

The contract: a schedule written for ONE step and replayed for k steps
produces per-rank virtual timelines **bitwise equal** to a live threaded
run of k steps — across plans, world sizes and eager/blocking clock modes,
and for arbitrary hypothesis-generated SPMD programs (compute charges,
world / half / single-rank group collectives, drains) whose schedule the
tests write by hand.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dist import ProcessGroup, run_spmd_world
from repro.perf import (
    OVERLAP_PHASES,
    CapturedSchedule,
    ModelConfig,
    ParallelPlan,
    ScheduleReplayError,
    VirtualClock,
    Workload,
    derive_overlaps,
    frontier,
    named_model,
    replay,
    search_configurations,
    simulated_overlaps,
)
from repro.perf.autotune import sweep_replay
from repro.perf.calibrate import measure_plan
from repro.perf.schedule import (
    ReplayProgram,
    ReplayVariant,
    ScheduleEvent,
    replay_many,
)

MACHINE = frontier()
MODEL = ModelConfig("replay-test", dim=64, depth=2, heads=4, patch=4, image_hw=(16, 16))
WORKLOAD = Workload(channels=16, batch=2)

PLAN_CASES = [
    pytest.param(ParallelPlan("tp", tp=2, fsdp=1, dp=1), id="tp2"),
    pytest.param(ParallelPlan("tp", tp=1, fsdp=1, dp=4), id="dp4"),
    pytest.param(ParallelPlan("tp", tp=2, fsdp=1, dp=2), id="tp2dp2"),
    pytest.param(
        ParallelPlan("dchag", tp=2, fsdp=2, dp=1, dchag_kind="linear"), id="dchag4"
    ),
    pytest.param(
        ParallelPlan("dchag", tp=2, fsdp=2, dp=2, dchag_kind="linear"), id="dchag8"
    ),
    pytest.param(ParallelPlan("tp", tp=1, sp=2, fsdp=1, dp=2), id="sp2dp2"),
    pytest.param(ParallelPlan("tp", tp=2, sp=2, fsdp=1, dp=1), id="tp2sp2"),
]


class TestPlanParity:
    """Plan-level parity: one written measure_plan step replayed k times
    equals a live k-step world, bitwise."""

    @pytest.mark.parametrize("plan", PLAN_CASES)
    @pytest.mark.parametrize("eager", [False, True], ids=["blocking", "eager"])
    def test_replay_matches_live_threaded_run(self, plan, eager):
        captured = measure_plan(MODEL, WORKLOAD, plan, MACHINE, eager=eager, capture=True)
        assert captured.schedule is not None
        for k in (1, 4):
            live = measure_plan(MODEL, WORKLOAD, plan, MACHINE, eager=eager, n_steps=k)
            replayed = replay(captured.schedule, MACHINE, n_steps=k)
            assert replayed.times() == list(live.rank_times)  # bitwise

    def test_capture_does_not_perturb_the_timeline(self):
        plan = ParallelPlan("tp", tp=2, fsdp=1, dp=2)
        plain = measure_plan(MODEL, WORKLOAD, plan, MACHINE, eager=True)
        captured = measure_plan(MODEL, WORKLOAD, plan, MACHINE, eager=True, capture=True)
        assert captured.rank_times == plain.rank_times
        assert captured.step_seconds == plain.step_seconds

    def test_replay_overlaps_match_live_measured_overlaps(self):
        plan = ParallelPlan("dchag", tp=2, fsdp=2, dp=2, dchag_kind="linear")
        captured = measure_plan(MODEL, WORKLOAD, plan, MACHINE, eager=True, capture=True)
        replayed = replay(captured.schedule, MACHINE, n_steps=1)
        ov_live, ov_rep = captured.overlaps, replayed.overlaps()
        assert ov_rep.dp.source == "measured"
        assert ov_rep.dp_overlap == ov_live.dp_overlap
        assert ov_rep.fsdp_overlap == ov_live.fsdp_overlap
        assert ov_rep.buckets == ov_live.buckets

    def test_replay_overlaps_match_live_bound_overlaps(self):
        """Blocking phases take the bound path; without a traffic log the
        replay derives it from clock exposure totals — same numbers."""
        plan = ParallelPlan("tp", tp=1, fsdp=1, dp=4)
        captured = measure_plan(MODEL, WORKLOAD, plan, MACHINE, eager=False, capture=True)
        replayed = replay(captured.schedule, MACHINE, n_steps=1)
        ov_live, ov_rep = captured.overlaps, replayed.overlaps()
        assert ov_rep.dp.source == "bound"
        assert ov_rep.dp_overlap == ov_live.dp_overlap
        assert ov_rep.dp.comm_seconds == ov_live.dp.comm_seconds

    @pytest.mark.parametrize("plan", PLAN_CASES)
    @pytest.mark.parametrize("eager", [False, True], ids=["blocking", "eager"])
    def test_traffic_log_follows_the_written_events(self, plan, eager):
        """Every rank's traffic records are its written collectives, in
        order: op, phase, payload bytes and group size."""
        m = measure_plan(
            MODEL, WORKLOAD, plan, MACHINE, eager=eager, capture=True, keep_world=True
        )
        for rank in range(m.world_size):
            logged = [
                (rec.op, rec.phase, rec.payload_bytes, rec.group_size)
                for rec in m.world.traffic.records(rank=rank)
            ]
            assert logged == [
                (ev.op, ev.phase, ev.payload_bytes, len(ev.group))
                for ev in m.schedule.events_for(rank)
                if ev.kind == "coll"
            ]

    def test_per_step_semantics_of_multi_step_measure(self):
        plan = ParallelPlan("tp", tp=2, fsdp=1, dp=2)
        one = measure_plan(MODEL, WORKLOAD, plan, MACHINE, eager=False)
        three = measure_plan(MODEL, WORKLOAD, plan, MACHINE, eager=False, n_steps=3)
        assert three.n_steps == 3
        assert three.wire == one.wire  # per-step, not 3x
        assert math.isclose(three.step_seconds, one.step_seconds, rel_tol=1e-12)
        assert three.wire_matches_predicted()


# -- hypothesis-generated SPMD programs ------------------------------------
_PHASES = ("forward", "backward", "dp_sync", "fsdp_gather", "tp", "sp_a2a")
_OPS = (
    "all_reduce", "all_gather", "reduce_scatter", "broadcast", "barrier",
    "all_to_all",
)

_ITEM = st.one_of(
    st.tuples(
        st.just("compute"),
        st.sampled_from(_PHASES),
        st.floats(1e-7, 1e-4, allow_nan=False, allow_infinity=False),
    ),
    st.tuples(
        st.just("coll"), st.sampled_from(_OPS), st.sampled_from(_PHASES),
        st.integers(1, 64),
    ),
    st.tuples(
        st.just("coll_half"), st.sampled_from(_OPS), st.sampled_from(_PHASES),
        st.integers(1, 64),
    ),
    st.tuples(
        st.just("coll_solo"), st.sampled_from(_OPS), st.sampled_from(_PHASES),
        st.integers(1, 64),
    ),
    st.tuples(st.just("drain")),
)
_PROGRAM = st.lists(_ITEM, min_size=1, max_size=10)
# A one-rank group leaves the clock alone: it neither drains the eager
# dp_sync AllReduce in flight nor archives an interval, so the compute
# after it still hides that AllReduce.
_SOLO_AFTER_EAGER = [
    ("coll", "all_reduce", "dp_sync", 8),
    ("coll_solo", "all_reduce", "tp", 8),
    ("compute", "backward", 1e-5),
]
_EAGER = st.sampled_from([frozenset(), frozenset({"dp_sync"}), OVERLAP_PHASES])


def _run_program(comm, program):
    """Execute one SPMD-consistent program item list on this rank."""
    n = comm.size
    half_ranks = tuple(range(n // 2)) if comm.rank < n // 2 else tuple(range(n // 2, n))
    groups = {
        "coll": None,
        "coll_half": ProcessGroup(comm.world, half_ranks),
        "coll_solo": comm.group([comm.rank]),
    }
    for item in program:
        kind = item[0]
        if kind == "compute":
            _, phase, seconds = item
            comm.charge_compute(seconds, phase=phase)
        elif kind in groups:
            _, op, phase, units = item
            group = groups[kind]
            g = group.size if group is not None else n
            with comm.phase_scope(phase):
                if op == "barrier":
                    comm.barrier(group=group)
                elif op == "all_reduce":
                    comm.all_reduce(np.ones(units * g, np.float32), group=group)
                elif op == "all_gather":
                    comm.all_gather(np.ones(units, np.float32), group=group)
                elif op == "reduce_scatter":
                    comm.reduce_scatter(np.ones(units * g, np.float32), group=group)
                elif op == "all_to_all":
                    comm.all_to_all(
                        np.split(np.ones(units * g, np.float32), g), group=group
                    )
                else:
                    root = group.ranks[0] if group is not None else 0
                    comm.broadcast(np.ones(units * g, np.float32), root, group=group)
        else:
            comm.drain_comm()


def _written(program, world_size, eager) -> CapturedSchedule:
    """:func:`_run_program`'s step written down: each rank's charges,
    collective bids and drains in its program order.  A barrier and a
    broadcast's non-root bid no payload."""
    n = world_size
    events = []
    for rank in range(n):
        half = tuple(range(n // 2)) if rank < n // 2 else tuple(range(n // 2, n))
        groups = {"coll": tuple(range(n)), "coll_half": half, "coll_solo": (rank,)}
        for item in program:
            kind = item[0]
            if kind == "compute":
                _, phase, seconds = item
                events.append(ScheduleEvent("compute", rank, phase=phase, seconds=seconds))
            elif kind in groups:
                _, op, phase, units = item
                group = groups[kind]
                nbytes = 4 * units * (1 if op == "all_gather" else len(group))
                if op == "barrier" or (op == "broadcast" and rank != group[0]):
                    nbytes = 0
                events.append(ScheduleEvent(
                    "coll", rank, op=op, phase=phase, payload_bytes=nbytes, group=group,
                ))
            elif kind == "drain":
                events.append(ScheduleEvent("drain", rank))
    return CapturedSchedule(n, eager, tuple(events))


class TestProgramParity:
    @settings(max_examples=25, deadline=None)
    @given(_PROGRAM, st.sampled_from([2, 4]), _EAGER, st.sampled_from([1, 3]))
    @example(_SOLO_AFTER_EAGER, 2, OVERLAP_PHASES, 1)
    def test_replay_is_bitwise_identical_to_live(self, program, world_size, eager, k):
        schedule = _written(program, world_size, eager)
        live_clock = VirtualClock(MACHINE, eager_phases=eager)

        def live_fn(comm):
            for _ in range(k):
                _run_program(comm, program)

        run_spmd_world(live_fn, world_size, clock=live_clock)
        replayed = replay(schedule, MACHINE, n_steps=k)
        assert replayed.times() == live_clock.times()
        assert replayed.clock.comm_intervals() == live_clock.comm_intervals()
        assert replayed.clock.compute_intervals() == live_clock.compute_intervals()


class TestSerialization:
    def test_rejects_unknown_event_kind(self):
        with pytest.raises(ValueError, match="kind"):
            CapturedSchedule(
                world_size=1, events=(ScheduleEvent(kind="warp", rank=0),)
            )

    def test_rejects_out_of_range_rank(self):
        with pytest.raises(ValueError, match="out of range"):
            CapturedSchedule(
                world_size=2, events=(ScheduleEvent(kind="drain", rank=5),)
            )

    def test_rejects_negative_compute_seconds(self):
        with pytest.raises(ValueError, match="compute seconds"):
            CapturedSchedule(
                world_size=1,
                events=(ScheduleEvent(kind="compute", rank=0, seconds=-1e-6),),
            )


#: A collective on (0, 1) that rank 1 never issues: lowering deadlocks.
_ONE_SIDED = ScheduleEvent(kind="coll", rank=0, op="all_reduce", phase="tp",
                           payload_bytes=64, group=(0, 1))


class TestReplaySemantics:
    def test_n_steps_validation(self):
        schedule = CapturedSchedule(world_size=1)
        with pytest.raises(ValueError):
            replay(schedule, MACHINE, n_steps=0)

    def test_group_op_mismatch_raises(self):
        events = (
            ScheduleEvent(kind="coll", rank=0, op="all_reduce", phase="tp",
                          payload_bytes=64, group=(0, 1)),
            ScheduleEvent(kind="coll", rank=1, op="all_gather", phase="tp",
                          payload_bytes=64, group=(0, 1)),
        )
        schedule = CapturedSchedule(world_size=2, events=events)
        with pytest.raises(ScheduleReplayError, match="mismatch"):
            replay(schedule, MACHINE)

    def test_unmatched_recv_deadlocks_with_diagnostic(self):
        """Rank 0 waits to receive rank 1's contribution to a collective on
        (0, 1) that rank 1 never issues."""
        schedule = CapturedSchedule(world_size=2, events=(_ONE_SIDED,))
        with pytest.raises(ScheduleReplayError, match="deadlock") as exc_info:
            replay(schedule, MACHINE)
        assert "rank 0 event 0: coll 'all_reduce' group=(0, 1)" in str(exc_info.value)

    def test_mismatch_error_names_rank_event_and_op(self):
        """The rendered diagnostic carries enough to find the bad event:
        the offending rank, its event index and the op it issued."""
        events = (
            ScheduleEvent(kind="compute", rank=1, phase="forward", seconds=1e-6),
            ScheduleEvent(kind="coll", rank=0, op="all_reduce", phase="tp",
                          payload_bytes=64, group=(0, 1)),
            ScheduleEvent(kind="coll", rank=1, op="all_gather", phase="tp",
                          payload_bytes=64, group=(0, 1)),
        )
        schedule = CapturedSchedule(world_size=2, events=events)
        with pytest.raises(ScheduleReplayError) as exc_info:
            replay(schedule, MACHINE)
        err = exc_info.value
        text = str(err)
        assert f"rank {err.rank}" in text
        assert f"event {err.index}" in text
        assert repr(err.op) in text
        assert err.op in ("all_reduce", "all_gather")
        # The index is the rank's own event cursor, not the global position.
        assert (err.rank, err.index) in {(0, 0), (1, 1)}

    def test_not_a_member_error_names_rank_event_and_op(self):
        events = (
            ScheduleEvent(kind="coll", rank=0, op="broadcast", phase="tp",
                          payload_bytes=8, group=(1,)),
        )
        schedule = CapturedSchedule(world_size=2, events=events)
        with pytest.raises(ScheduleReplayError, match="not a member") as exc_info:
            replay(schedule, MACHINE)
        err = exc_info.value
        assert (err.rank, err.index, err.op) == (0, 0, "broadcast")
        assert "rank 0 event 0 ('broadcast')" in str(err)

    def test_deadlock_error_reports_each_blocked_rank(self):
        """A three-rank cycle: each rank waits on a pair collective whose
        other member is blocked on a different pair."""
        events = tuple(
            ScheduleEvent(kind="coll", rank=rank, op="all_reduce", phase="tp",
                          payload_bytes=64, group=group)
            for rank, group in ((0, (0, 1)), (1, (1, 2)), (2, (0, 2)))
        )
        schedule = CapturedSchedule(world_size=3, events=events)
        with pytest.raises(ScheduleReplayError, match="deadlock") as exc_info:
            replay(schedule, MACHINE)
        err = exc_info.value
        text = str(err)
        for rank, group in ((0, (0, 1)), (1, (1, 2)), (2, (0, 2))):
            assert f"rank {rank} event 0: coll 'all_reduce' group={group}" in text
        assert (err.rank, err.index, err.op) == (0, 0, "all_reduce")

    def test_compute_scale_scales_pure_compute_linearly(self):
        events = (
            ScheduleEvent(kind="compute", rank=0, phase="forward", seconds=1e-4),
        )
        schedule = CapturedSchedule(world_size=1, events=events)
        base = replay(schedule, MACHINE).elapsed
        assert replay(schedule, MACHINE, compute_scale=3.0).elapsed == pytest.approx(
            3.0 * base
        )

    def test_bad_pricing_arguments_fail_before_anything_is_lowered(self):
        """A negative scale is rejected up front — even for a schedule
        whose lowering would itself fail."""
        deadlocked = CapturedSchedule(world_size=2, events=(_ONE_SIDED,))
        with pytest.raises(ValueError, match="compute_scale"):
            replay(deadlocked, MACHINE, compute_scale=-0.5)

    def test_replayed_clock_rebinds_to_a_live_world(self):
        """A replay result's clock is a real VirtualClock: binding it to a
        new world discards the replayed timeline."""
        sched = measure_plan(
            MODEL, WORKLOAD, ParallelPlan("tp", tp=1, fsdp=1, dp=4), MACHINE,
            eager=True, capture=True,
        ).schedule
        program = [("compute", "backward", 1e-5), ("coll", "all_reduce", "dp_sync", 8)]
        fresh = VirtualClock(MACHINE, eager_phases=sched.eager_phases)
        reused = replay(sched, MACHINE).clock
        for clock in (fresh, reused):
            run_spmd_world(lambda comm: _run_program(comm, program), 2, clock=clock)
        _assert_same_readouts(fresh, reused)

    def test_step_seconds_is_mean_per_step(self):
        schedule = CapturedSchedule(
            world_size=1,
            events=(ScheduleEvent(kind="compute", rank=0, phase="forward",
                                  seconds=2e-5),),
        )
        result = replay(schedule, MACHINE, n_steps=10)
        assert result.step_seconds == pytest.approx(2e-5)
        assert result.elapsed == pytest.approx(2e-4)


def _assert_same_readouts(want, got):
    """Every read-out of the replayed clock *got* equals clock *want*'s,
    bitwise: times, archived intervals, merged timelines, per-(rank, phase)
    running totals and comm volumes."""
    assert got.times() == want.times()
    assert got.elapsed() == want.elapsed()
    assert got.comm_intervals() == want.comm_intervals()
    assert got.compute_intervals() == want.compute_intervals()
    assert got.comm_volumes() == want.comm_volumes()
    for r in range(want.world_size):
        assert got.timeline(r) == want.timeline(r)
        assert got.comm_volumes(r) == want.comm_volumes(r)
        for phase in (None, *_PHASES):
            assert got.compute_seconds(r, phase) == want.compute_seconds(r, phase)
            assert got.comm_busy_seconds(r, phase) == want.comm_busy_seconds(r, phase)
            assert got.exposed_seconds(r, phase) == want.exposed_seconds(r, phase)
            assert got.comm_count(r, phase) == want.comm_count(r, phase)
    assert got.compute_seconds() == want.compute_seconds()
    assert got.comm_busy_seconds() == want.comm_busy_seconds()
    assert got.exposed_seconds() == want.exposed_seconds()


class TestReadOutParity:
    """The replayed clock answers the whole VirtualClock query API exactly
    as the **live** clock of the same k-step run does — not just ``times()``
    — and ``compute_scale`` is checked against an independent oracle."""

    @pytest.mark.parametrize("plan", PLAN_CASES)
    @pytest.mark.parametrize("eager", [False, True], ids=["blocking", "eager"])
    def test_plan_readouts_match_the_live_clock(self, plan, eager):
        sched = measure_plan(
            MODEL, WORKLOAD, plan, MACHINE, eager=eager, capture=True
        ).schedule
        for k in (1, 4):
            live = measure_plan(
                MODEL, WORKLOAD, plan, MACHINE, eager=eager, n_steps=k,
                keep_world=True,
            )
            replayed = replay(sched, MACHINE, n_steps=k)
            _assert_same_readouts(live.world.clock, replayed.clock)
            assert replayed.overlaps() == live.overlaps

    @settings(max_examples=15, deadline=None)
    @given(_PROGRAM, st.sampled_from([2, 4]), _EAGER, st.sampled_from([1, 3]))
    # A barrier costs clock time but is never logged as traffic.
    @example([("coll", "barrier", "dp_sync", 1)], 2, frozenset(), 1)
    @example(_SOLO_AFTER_EAGER, 2, OVERLAP_PHASES, 1)
    def test_arbitrary_program_readouts_match_the_live_clock(
        self, program, world_size, eager, k
    ):
        live_clock = VirtualClock(MACHINE, eager_phases=eager)

        def live_fn(comm):
            for _ in range(k):
                _run_program(comm, program)

        _, world = run_spmd_world(live_fn, world_size, clock=live_clock)
        replayed = replay(_written(program, world_size, eager), MACHINE, n_steps=k)
        _assert_same_readouts(live_clock, replayed.clock)
        assert replayed.overlaps() == derive_overlaps(world)

    @pytest.mark.parametrize("eager", [False, True], ids=["blocking", "eager"])
    def test_compute_scale_equals_replaying_prescaled_charges(self, eager):
        """Oracle for ``compute_scale``: scaling at replay time equals
        replaying a schedule whose compute events were multiplied up front
        (powers of two, so the products are exact)."""
        plan = ParallelPlan("dchag", tp=2, fsdp=2, dp=2, dchag_kind="linear")
        sched = measure_plan(
            MODEL, WORKLOAD, plan, MACHINE, eager=eager, capture=True
        ).schedule
        scales = (1.0, 0.25, 2.0, 16.0)
        lanes = replay_many(
            sched,
            [ReplayVariant(machine=MACHINE, compute_scale=s) for s in scales],
            n_steps=3,
        )
        for scale, lane in zip(scales, lanes):
            prescaled = dataclasses.replace(
                sched,
                events=tuple(
                    dataclasses.replace(ev, seconds=ev.seconds * scale)
                    if ev.kind == "compute" else ev
                    for ev in sched.events
                ),
            )
            want = replay(prescaled, MACHINE, n_steps=3)
            _assert_same_readouts(want.clock, lane.clock)
            assert lane.overlaps() == want.overlaps()

    def test_program_reuse_across_runs(self):
        """One lowering, many run() calls: results stay bitwise stable."""
        sched = measure_plan(
            MODEL, WORKLOAD, ParallelPlan("tp", tp=2, fsdp=1, dp=2), MACHINE,
            eager=True, capture=True,
        ).schedule
        prog = ReplayProgram(sched, n_steps=2)
        first = prog.run([ReplayVariant(machine=MACHINE)])[0]
        second = prog.run([ReplayVariant(machine=MACHINE)])[0]
        _assert_same_readouts(first.clock, second.clock)
        assert first.clock is not second.clock
        # Reading one result out must not disturb a later run of the program.
        third = prog.run([ReplayVariant(machine=MACHINE, compute_scale=2.0)])[0]
        assert third.elapsed > first.elapsed
        _assert_same_readouts(first.clock, prog.run([ReplayVariant(machine=MACHINE)])[0].clock)

    def test_lowering_raises_at_construction(self):
        events = (
            ScheduleEvent(kind="coll", rank=0, op="all_reduce", phase="tp",
                          payload_bytes=64, group=(0, 1)),
            ScheduleEvent(kind="coll", rank=1, op="all_gather", phase="tp",
                          payload_bytes=64, group=(0, 1)),
        )
        sched = CapturedSchedule(world_size=2, events=events)
        with pytest.raises(ScheduleReplayError, match="mismatch") as exc_info:
            ReplayProgram(sched)
        assert exc_info.value.op in ("all_reduce", "all_gather")
        deadlocked = CapturedSchedule(world_size=2, events=(_ONE_SIDED,))
        with pytest.raises(ScheduleReplayError, match="deadlock"):
            ReplayProgram(deadlocked)

    def test_variant_validation(self):
        sched = CapturedSchedule(
            world_size=1,
            events=(ScheduleEvent(kind="compute", rank=0, phase="forward",
                                  seconds=1e-6),),
        )
        with pytest.raises(ValueError, match="n_steps"):
            ReplayProgram(sched, n_steps=0)
        # One compute_scale rule for a variant and for measure_plan, whose
        # negative scale would otherwise charge no compute and nan price
        # nan times: finite and >= 0.
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="compute_scale"):
                replay_many(sched, [ReplayVariant(machine=MACHINE, compute_scale=bad)])
            with pytest.raises(ValueError, match="compute_scale"):
                measure_plan(MODEL, WORKLOAD, ParallelPlan("tp", tp=1, fsdp=1, dp=2),
                             MACHINE, eager=True, compute_scale=bad)
        with pytest.raises(TypeError, match="ReplayVariant"):
            replay_many(sched, [MACHINE])

    def test_written_step_rejects_a_payload_that_does_not_split(self):
        """The uneven-split check holds for a schedule that is only
        written, never run: an all_to_all of 18 bytes over 4 ranks."""
        from repro.perf.calibrate import _write_step

        odd = ModelConfig("odd", dim=9, depth=1, heads=3, patch=4, image_hw=(8, 8))
        with pytest.raises(ValueError, match="not divisible by group size 4"):
            _write_step(odd, Workload(4, 1), ParallelPlan("tp", tp=1, sp=4, fsdp=1, dp=1),
                        MACHINE)


def _load_fleet_bench():
    """``benchmarks/bench_fleet_sweep.py`` as a module (its fleet grid)."""
    import importlib.util as _ilu
    from pathlib import Path

    spec = _ilu.spec_from_file_location(
        "bench_fleet_sweep",
        Path(__file__).resolve().parent.parent / "benchmarks" / "bench_fleet_sweep.py",
    )
    bench = _ilu.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


class TestSweepReplay:
    SWEEP_MODEL = ModelConfig("sweep", dim=256, depth=6, heads=8, patch=4,
                              image_hw=(32, 32))

    def test_rankings_equal_the_scalar_replay_search(self):
        """The strong contract: per budget, sweep_replay returns exactly
        what search_configurations with the simulated oracle returns — same plans,
        same float scores, same overlap pairs."""
        budgets = [(16, 32), (32, 64)]
        sweep = sweep_replay(self.SWEEP_MODEL, 32, MACHINE, budgets)
        assert [b for b, _ in sweep.rankings] == budgets
        for (g, b), ranked in sweep.rankings:
            ref = search_configurations(
                self.SWEEP_MODEL, 32, g, MACHINE, b,
                overlaps=simulated_overlaps(MACHINE, self.SWEEP_MODEL, 32),
            )
            assert list(ranked) == ref
        assert sweep.candidates == sum(len(r) for _, r in sweep.rankings)
        assert sweep.captured_worlds <= sweep.lanes <= sweep.candidates

    def test_budgets_sharing_a_gpu_count_equal_the_scalar_search(self):
        """Budgets that share a GPU count (and so share candidates) still
        rank exactly as the per-budget search does.  The grid covers
        micro-steps clipped below the largest fitting micro-batch, gradient
        accumulation and sequence-parallel plans."""
        clipped = accumulated = sp_plans = 0
        for budgets, max_sp in [
            ([(16, 16), (16, 32), (16, 48), (16, 256), (16, 4096), (32, 32), (32, 96)], 1),
            ([(16, 32), (16, 64), (32, 32)], 2),
        ]:
            sweep = sweep_replay(self.SWEEP_MODEL, 32, MACHINE, budgets,
                                 strategies=("tp", "dchag"), max_sp=max_sp)
            assert [b for b, _ in sweep.rankings] == budgets
            for (g, b), ranked in sweep.rankings:
                ref = search_configurations(
                    self.SWEEP_MODEL, 32, g, MACHINE, b, strategies=("tp", "dchag"),
                    overlaps=simulated_overlaps(MACHINE, self.SWEEP_MODEL, 32),
                    max_sp=max_sp,
                )
                assert list(ranked) == ref
                for t in ranked:
                    per_replica = b // t.plan.dp
                    clipped += per_replica < t.micro_batch
                    accumulated += per_replica > t.micro_batch
                    sp_plans += t.plan.sp > 1
        assert clipped and accumulated and sp_plans, (clipped, accumulated, sp_plans)

    def test_sweep_prices_each_distinct_input_once(self, monkeypatch):
        """On the fleet grid, candidates are enumerated once per GPU count,
        stand-in keys computed once per (plan, micro-batch) and the fleet
        model's steps priced once per (plan, micro-step batch)."""
        from repro.perf import autotune, throughput

        calls: dict[str, list] = {}

        def count(module, name, key):
            real = getattr(module, name)
            calls[name] = []

            def shim(*args, **kwargs):
                calls[name].append(key(*args))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, shim)

        count(autotune, "_enumerate_candidates", lambda model, channels, gpus, *a: gpus)
        count(autotune, "_standin", lambda pricing, plan, micro: (plan, micro))
        count(throughput, "_price_step",
              lambda model, workload, plan, *a: (model.name, plan, workload.batch))
        bench = _load_fleet_bench()
        sweep = sweep_replay(
            named_model(bench.FLEET_MODEL_NAME), bench.FLEET_CHANNELS, MACHINE,
            bench.FLEET_BUDGETS, strategies=bench.FLEET_STRATEGIES,
        )
        assert sweep.candidates == 1304
        # The stand-in model's few pricings are fenced in test_autotune.py.
        calls["_price_step"] = [
            c for c in calls["_price_step"] if c[0] == bench.FLEET_MODEL_NAME
        ]
        for name, expected in [("_enumerate_candidates", 21), ("_standin", 163),
                               ("_price_step", 268)]:
            assert len(calls[name]) == len(set(calls[name])) == expected, name

    def test_fleet_scale_sweep_prices_1000_candidates_from_4_worlds(self):
        """The PR's fleet pin: a 1000+-candidate multi-budget sweep costs at
        most a handful of threaded worlds, and spot-checked budgets match
        the scalar search exactly."""
        bench = _load_fleet_bench()
        model = named_model(bench.FLEET_MODEL_NAME)
        sweep = sweep_replay(
            model, bench.FLEET_CHANNELS, MACHINE, bench.FLEET_BUDGETS,
            strategies=bench.FLEET_STRATEGIES,
        )
        assert sweep.candidates >= 1000
        assert sweep.captured_worlds <= 4
        ranked = dict(sweep.rankings)
        for g, b in bench.FLEET_BUDGETS[:: len(bench.FLEET_BUDGETS) // 4]:
            ref = search_configurations(
                model, bench.FLEET_CHANNELS, g, MACHINE, b,
                strategies=bench.FLEET_STRATEGIES,
                overlaps=simulated_overlaps(MACHINE, model, bench.FLEET_CHANNELS),
            )
            assert list(ranked[(g, b)]) == ref


def _count_replays(monkeypatch) -> dict[str, int]:
    """Count ReplayProgram lowerings and the variants their runs price."""
    counts = {"lowered": 0, "variants": 0}
    init, run = ReplayProgram.__init__, ReplayProgram.run

    def counting_init(self, *args, **kwargs):
        counts["lowered"] += 1
        init(self, *args, **kwargs)

    def counting_run(self, variants):
        counts["variants"] += len(variants)
        return run(self, variants)

    monkeypatch.setattr(ReplayProgram, "__init__", counting_init)
    monkeypatch.setattr(ReplayProgram, "run", counting_run)
    return counts


class TestReplayOracle:
    def test_planner_starts_no_world(self, monkeypatch):
        """An exhaustive §6.2 search through the simulated oracle and the
        fleet sweep write their stand-in steps: neither builds a World."""
        from repro.dist import World

        worlds = []
        init = World.__init__

        def counting_init(self, *args, **kwargs):
            worlds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(World, "__init__", counting_init)
        model = named_model("7B")
        search_configurations(
            model, 500, 1024, MACHINE, 4096,
            overlaps=simulated_overlaps(MACHINE, model, 500),
        )
        searched = len(worlds)
        bench = _load_fleet_bench()
        sweep_replay(
            named_model(bench.FLEET_MODEL_NAME), bench.FLEET_CHANNELS, MACHINE,
            bench.FLEET_BUDGETS, strategies=bench.FLEET_STRATEGIES,
        )
        assert (searched, len(worlds) - searched) == (0, 0)

    def test_sec62_search_lowers_each_shape_once(self, monkeypatch):
        """An exhaustive §6.2 search replays 32 variants of 10 stand-in
        shapes: each shape's written step is lowered once, not once per
        variant."""
        counts = _count_replays(monkeypatch)
        model = named_model("7B")
        results = search_configurations(
            model, 500, 1024, MACHINE, 4096,
            overlaps=simulated_overlaps(MACHINE, model, 500),
        )
        assert len(results) == 66
        assert counts == {"lowered": 10, "variants": 32}

    def test_fleet_sweep_lowers_each_captured_world_once(self, monkeypatch):
        """A fleet sweep lowers one program per written stand-in step
        (``captured_worlds``) and runs one variant per lane."""
        counts = _count_replays(monkeypatch)
        bench = _load_fleet_bench()
        sweep = sweep_replay(
            named_model(bench.FLEET_MODEL_NAME), bench.FLEET_CHANNELS, MACHINE,
            bench.FLEET_BUDGETS, strategies=bench.FLEET_STRATEGIES,
        )
        assert (counts["lowered"], counts["variants"]) == (
            sweep.captured_worlds, sweep.lanes
        ) == (2, 10)

    def test_replay_oracle_spins_up_one_world_per_shape(self):
        """The replay oracle's whole point: repeated consultations with
        different compute scales re-use one written schedule."""
        model = ModelConfig("sweep", dim=256, depth=6, heads=8, patch=4,
                            image_hw=(32, 32))
        oracle = simulated_overlaps(MACHINE, model, 32)
        plan = ParallelPlan("tp", tp=1, fsdp=1, dp=8)
        first = oracle(plan, 2)
        second = oracle(plan, 2)
        assert first is second  # cached
        assert first is not None and 0.0 <= first.dp_overlap <= 1.0
