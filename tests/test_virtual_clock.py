"""The virtual-clock cost engine: one α–β pricing core for both layers.

Covers the acceptance contract of the cost-engine redesign:

* ``run_spmd(..., clock=VirtualClock(machine))`` produces **deterministic**
  per-rank timelines — bitwise identical across runs and thread schedules.
* Measured wire bytes equal the analytic ``ring_wire_bytes`` predictions for
  every ring collective at 2/4/8 ranks (the calibration harness's claim).
* The shared :class:`CostModel` is the single source of latency-step truth
  (``all_to_all`` pays one round, rings pay n−1, AllReduce 2·(n−1)).
* :mod:`repro.perf.overlap` derives dp/fsdp overlap fractions from rank
  timelines, and :func:`estimate_step_comm` accepts them in place of the
  hard-coded constants.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.dist import ring_wire_bytes, run_spmd, run_spmd_world
from repro.parallel import DataParallel, DeviceMesh, FSDPModel, shard_batch
from repro.perf import (
    CostModel,
    MachineSpec,
    ModelConfig,
    ParallelPlan,
    VirtualClock,
    Workload,
    collective_time,
    derive_bucket_exposures,
    derive_overlaps,
    estimate_step_comm,
    frontier,
    search_configurations,
    step_comm_schedule,
)
from repro.perf.calibrate import (
    FitSample,
    FittedLink,
    calibrate,
    fit_link,
    fit_machine,
    fit_machine_wallclock,
    measure_plan,
    wallclock_fit_samples,
)
from repro.perf.calibrate import main as calibrate_main
from repro.perf.overlap import DerivedOverlaps, OverlapReport, derive_overlap

MACHINE = frontier()


class TestCostModel:
    def test_step_counts_follow_ring_conventions(self):
        """The audited per-op latency table (satellite fix: all_to_all is a
        single direct exchange round, not a serialized ring)."""
        cost = CostModel(MACHINE)
        n = 8
        assert cost.latency_steps("all_reduce", n) == 2 * (n - 1)
        for op in ("all_gather", "reduce_scatter", "broadcast", "barrier"):
            assert cost.latency_steps(op, n) == n - 1, op
        assert cost.latency_steps("all_to_all", n) == 1
        # Point-to-point and rooted scatter/gather are not runtime ops.
        for op in ("send", "recv", "scatter", "gather"):
            for size in (1, n):
                with pytest.raises(ValueError, match="unknown collective op"):
                    cost.latency_steps(op, size)
                with pytest.raises(ValueError, match="unknown collective op"):
                    ring_wire_bytes(op, 1024, size)

    def test_single_rank_groups_are_free(self):
        cost = CostModel(MACHINE)
        for op in ("all_reduce", "all_gather", "all_to_all", "barrier"):
            assert cost.latency_steps(op, 1) == 0
            assert cost.collective_seconds(op, 1 << 20, 1, True) == 0.0

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            CostModel(MACHINE).latency_steps("all_shuffle", 4)

    def test_collective_time_delegates_to_cost_model(self):
        """The analytic entry point and the CostModel are the same function."""
        cost = CostModel(MACHINE)
        for op in ("all_reduce", "all_gather", "reduce_scatter", "broadcast", "all_to_all"):
            for intra in (True, False):
                assert collective_time(op, 1 << 20, 8, MACHINE, intra) == cost.collective_seconds(
                    op, 1 << 20, 8, intra
                )

    def test_all_to_all_cheaper_than_ring_latency(self):
        """At small payloads the single-round all_to_all beats a ring pass."""
        cost = CostModel(MACHINE)
        assert cost.collective_seconds("all_to_all", 64, 8, True) < cost.collective_seconds(
            "broadcast", 64, 8, True
        )

    def test_topology_placement(self):
        cost = CostModel(MACHINE)  # 8 GPUs per node
        assert cost.intra_node(range(8))
        assert not cost.intra_node([7, 8])
        assert cost.intra_node([3])


class TestVirtualClockDeterminism:
    @staticmethod
    def _workload(comm):
        """A mixed workload with rank-skewed compute, subgroups and barriers."""
        lo = comm.group([0, 1])
        hi = comm.group([2, 3])
        mine = lo if comm.rank < 2 else hi
        comm.charge_compute(1e-6 * (comm.rank + 1), phase="forward")
        for i in range(5):
            comm.all_reduce(np.ones(256, dtype=np.float32))
            comm.all_reduce(np.full(64, float(comm.rank), dtype=np.float32), group=mine)
            comm.charge_compute(2e-7 * ((comm.rank + i) % 3), phase="backward")
            comm.barrier()
        # Real sleep perturbs the thread schedule but must not perturb
        # virtual time.
        time.sleep(0.001 * (comm.rank % 2))
        return comm.now()

    def test_timelines_identical_across_runs(self):
        runs = []
        for _ in range(3):
            clock = VirtualClock(MACHINE)
            times = run_spmd(self._workload, 4, clock=clock)
            assert times == clock.times()
            runs.append(times)
        assert runs[0] == runs[1] == runs[2]  # bitwise, not approximate

    def test_records_stamped_identically_across_runs(self):
        def stamps():
            clock = VirtualClock(MACHINE)
            _, world = run_spmd_world(self._workload, 4, clock=clock)
            return sorted(
                (r.rank, r.op, r.vstart, r.vend) for r in world.traffic.records()
            )

        assert stamps() == stamps()

    def test_no_clock_means_no_stamps(self):
        def fn(comm):
            comm.all_reduce(np.ones(4, dtype=np.float32))
            assert comm.now() == -1.0
            assert comm.charge_compute(1.0) is None
            return None

        _, world = run_spmd_world(fn, 2)
        for r in world.traffic.records():
            assert r.vstart == -1.0 and r.vend == -1.0

    def test_inflight_collectives_logged_on_abort(self):
        """A collective interrupted by a world abort still appears in the
        post-mortem traffic log, stamped incomplete (vend=-1) — the
        accounting the elastic recovery benchmarks rely on (regression)."""
        from repro.dist import SpmdError

        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            comm.all_reduce(np.ones(4, dtype=np.float32))
            return None

        try:
            run_spmd(fn, 2, timeout=10, clock=VirtualClock(MACHINE))
            raise AssertionError("world should have aborted")
        except SpmdError as err:
            world = err.world
        recs = world.traffic.records(op="all_reduce", rank=1)
        assert len(recs) == 1
        assert recs[0].vend == -1.0


class TestVirtualClockSemantics:
    def test_group_synchronizes_to_slowest_arrival(self):
        clock = VirtualClock(MACHINE)

        def fn(comm):
            comm.charge_compute(1e-3 * comm.rank, phase="forward")
            comm.all_reduce(np.ones(1, dtype=np.float32))
            return comm.now()

        times = run_spmd(fn, 4, clock=clock)
        cost = CostModel(MACHINE).collective_seconds("all_reduce", 4, 4, True)
        expected = 3e-3 + cost  # slowest arrival (rank 3) + collective cost
        assert times == [expected] * 4

    def test_world_rejects_an_object_that_is_not_a_clock(self):
        """The runtime checks the clock protocol once, at World
        construction, instead of probing for methods at every call site."""
        from repro.dist import World

        with pytest.raises(TypeError, match="SimClock"):
            World(2, clock=object())
        with pytest.raises(TypeError, match="SimClock"):
            run_spmd(lambda comm: comm.barrier(), 2, clock=object())
        assert World(2, clock=VirtualClock(MACHINE)).clock.world_size == 2

    def test_barrier_costs_latency_only(self):
        clock = VirtualClock(MACHINE)
        run_spmd(lambda comm: comm.barrier(), 4, clock=clock)
        assert math.isclose(clock.elapsed(), 3 * MACHINE.intra_latency, rel_tol=1e-12)
        # ...and barriers still never appear in the traffic log.

    def test_inter_node_group_costs_more(self):
        def elapsed(machine):
            clock = VirtualClock(machine)
            run_spmd(
                lambda comm: comm.all_reduce(np.ones(1024, dtype=np.float32)),
                4,
                clock=clock,
            )
            return clock.elapsed()

        intra = elapsed(MACHINE)                                # 4 ranks, 1 node
        inter = elapsed(replace(MACHINE, gpus_per_node=2))      # spans 2 nodes
        assert inter > intra

    def test_compute_intervals_recorded_per_phase(self):
        clock = VirtualClock(MACHINE)

        def fn(comm):
            comm.charge_compute(2e-6, phase="forward")
            comm.charge_compute(3e-6, phase="backward", label="blk0")
            return None

        run_spmd(fn, 2, clock=clock)
        assert math.isclose(clock.compute_seconds(phase="forward"), 2 * 2e-6, rel_tol=1e-12)
        assert math.isclose(clock.compute_seconds(rank=1, phase="backward"), 3e-6, rel_tol=1e-12)
        (iv,) = clock.compute_intervals(rank=0, phase="backward")
        assert iv.label == "blk0" and math.isclose(iv.seconds, 3e-6, rel_tol=1e-12)

    def test_negative_charge_rejected(self):
        clock = VirtualClock(MACHINE)
        clock.bind(1)
        with pytest.raises(ValueError):
            clock.charge(0, -1.0)


class TestWireParity:
    """Measured wire bytes == ring_wire_bytes predictions, all ops, 2/4/8."""

    @pytest.mark.parametrize("world_size", [2, 4, 8])
    def test_all_ops_exact(self, world_size):
        report = calibrate(world_sizes=(world_size,), payload_bytes=2048)
        for row in report.rows:
            assert row.wire_match, (row.op, row.ranks, row.intra_node)
            assert row.measured_wire == ring_wire_bytes(
                row.op, row.payload_bytes, row.ranks
            ), row.op

    def test_virtual_time_matches_analytic_exactly(self):
        report = calibrate(world_sizes=(2, 4, 8), payload_bytes=2048)
        assert report.ok
        assert report.max_time_residual == 0.0

    def test_fitted_constants_recover_machine_spec(self):
        for intra in (True, False):
            fit = fit_machine(world_size=4, payload_sweep=(1 << 10, 1 << 13, 1 << 16),
                              intra_node=intra)
            assert fit.alpha_error < 1e-6, fit
            assert fit.beta_error < 1e-6, fit
            assert fit.rms_residual < 1e-12


class TestMeasuredPlans:
    TINY = ModelConfig("tiny", dim=32, depth=2, heads=4, patch=4, image_hw=(16, 16))

    def test_hybrid_plan_wire_and_time_parity(self):
        machine = replace(MACHINE, gpus_per_node=4)
        plan = ParallelPlan("dchag", tp=2, dchag_kind="linear", fsdp=2, dp=2)
        m = measure_plan(self.TINY, Workload(16, 2), plan, machine)
        assert m.wire_matches_predicted(), (m.wire, m.predicted.wire_by_axis())
        assert abs(m.comm_seconds - m.predicted.total) <= 1e-9 + 1e-6 * m.predicted.total
        assert m.step_seconds >= m.comm_seconds

    def test_schedule_is_shared_source_of_truth(self):
        """The analytic wire fields equal pricing the schedule by hand."""
        plan = ParallelPlan("dist_tok", tp=4, fsdp=2, dp=2)
        workload = Workload(16, 2)
        cost = CostModel(MACHINE)
        sizes = {
            "tp": plan.tp, "gather": plan.tp, "sp": plan.sp,
            "sp_gather": plan.sp, "sp_scatter": plan.sp,
            "fsdp": plan.fsdp, "dp": plan.dp,
        }
        by_axis = dict.fromkeys(sizes, 0)
        for ev in step_comm_schedule(self.TINY, workload, plan):
            by_axis[ev.axis] += ev.count * cost.wire_bytes(ev.op, ev.payload_bytes, sizes[ev.axis])
        comm = estimate_step_comm(self.TINY, workload, plan, MACHINE)
        assert comm.wire_by_axis() == by_axis


class TestDerivedOverlap:
    def _world(self, comm_seconds_payload: int, backward_seconds: float):
        """One dp_sync AllReduce of a known payload after known backward."""
        clock = VirtualClock(MACHINE)

        def fn(comm):
            comm.charge_compute(backward_seconds, phase="backward")
            with comm.phase_scope("dp_sync"):
                comm.all_reduce(np.ones(comm_seconds_payload // 4, dtype=np.float32))
            return None

        _, world = run_spmd_world(fn, 4, clock=clock)
        return world

    def test_full_overlap_when_compute_dominates(self):
        world = self._world(1 << 10, backward_seconds=1.0)
        rep = derive_overlap(world, "dp_sync", "backward")
        assert rep.overlap == 1.0

    def test_partial_overlap_is_ratio(self):
        payload = 1 << 20
        comm = CostModel(MACHINE).collective_seconds("all_reduce", payload, 4, True)
        world = self._world(payload, backward_seconds=comm / 2)
        rep = derive_overlap(world, "dp_sync", "backward")
        assert math.isclose(rep.overlap, 0.5, rel_tol=1e-9)

    def test_zero_when_no_comm_in_phase(self):
        world = self._world(1 << 10, backward_seconds=1e-6)
        rep = derive_overlap(world, "no_such_phase", "backward")
        assert rep.overlap == 0.0 and rep.comm_seconds == 0.0

    def test_zero_duration_records_do_not_divide_by_zero(self):
        """A size-1 group logs vstart == vend; the derivation must report
        overlap 0, not crash (regression)."""
        clock = VirtualClock(MACHINE)

        def fn(comm):
            solo = comm.group([comm.rank])
            with comm.phase_scope("dp_sync"):
                comm.all_reduce(np.ones(8, dtype=np.float32), group=solo)
            return None

        _, world = run_spmd_world(fn, 2, clock=clock)
        rep = derive_overlap(world, "dp_sync", "backward")
        assert rep.overlap == 0.0 and rep.comm_seconds == 0.0

    def test_requires_clock(self):
        _, world = run_spmd_world(
            lambda comm: comm.all_reduce(np.ones(4, dtype=np.float32)), 2
        )
        with pytest.raises(ValueError):
            derive_overlap(world, "dp_sync", "backward")

    def test_estimate_step_comm_accepts_derived_overlaps(self):
        model = ModelConfig("t", dim=64, depth=4, heads=4)
        plan = ParallelPlan("tp", tp=2, fsdp=2, dp=2)
        w = Workload(16, 2)
        mk = lambda dp, fsdp: DerivedOverlaps(
            dp=OverlapReport("dp_sync", "backward", 1.0, dp, dp),
            fsdp=OverlapReport("fsdp_gather", "forward", 1.0, fsdp, fsdp),
        )
        none_hidden = estimate_step_comm(model, w, plan, MACHINE, overlaps=mk(0.0, 0.0))
        all_hidden = estimate_step_comm(model, w, plan, MACHINE, overlaps=mk(1.0, 1.0))
        assumed = estimate_step_comm(model, w, plan, MACHINE)
        assert all_hidden.dp_time == 0.0 and all_hidden.fsdp_time == 0.0
        assert none_hidden.dp_time > assumed.dp_time > all_hidden.dp_time
        assert none_hidden.fsdp_time > assumed.fsdp_time > all_hidden.fsdp_time
        # overlap hides time, never bytes
        assert none_hidden.total_wire == all_hidden.total_wire == assumed.total_wire


class TestParallelWrapperHooks:
    def test_data_parallel_charges_and_tags(self):
        from repro.nn import MLP
        from repro.tensor import Tensor

        clock = VirtualClock(MACHINE)
        x = np.random.default_rng(0).standard_normal((4, 4)).astype(np.float32)

        def fn(comm):
            model = DataParallel(
                comm, None, MLP(4, 8, np.random.default_rng(0)),
                forward_seconds=1e-5, backward_seconds=2e-5,
            )
            (model(Tensor(shard_batch(x, comm))) ** 2).mean().backward()
            model.sync_gradients()
            return None

        _, world = run_spmd_world(fn, 2, clock=clock)
        assert world.traffic.count(op="all_reduce", phase="dp_sync") == 2
        assert math.isclose(clock.compute_seconds(rank=0, phase="forward"), 1e-5, rel_tol=1e-9)
        assert math.isclose(clock.compute_seconds(rank=0, phase="backward"), 2e-5, rel_tol=1e-9)
        ov = derive_overlaps(world)
        assert 0.0 <= ov.dp_overlap <= 1.0

    def test_data_parallel_bucketed_sync_under_issue_queue(self):
        """grad_buckets=k issues k dp_sync AllReduces interleaved with
        backward slices; under an eager clock earlier buckets hide under
        later slices (the bucketed-DDP schedule), and the reduced gradients
        are identical to the unbucketed sync."""
        from repro.nn import MLP
        from repro.tensor import Tensor

        x = np.random.default_rng(0).standard_normal((4, 4)).astype(np.float32)

        def run(buckets):
            clock = VirtualClock(MACHINE, eager_phases={"dp_sync"})

            def fn(comm):
                model = DataParallel(
                    comm, None, MLP(4, 8, np.random.default_rng(0)),
                    backward_seconds=4e-5, grad_buckets=buckets,
                )
                (model(Tensor(shard_batch(x, comm))) ** 2).mean().backward()
                model.sync_gradients()
                comm.drain_comm()
                return [p.grad.copy() for p in model.parameters()]

            grads, world = run_spmd_world(fn, 2, clock=clock)
            return grads[0], world

        grads1, _ = run(buckets=1)
        grads2, world = run(buckets=2)
        assert world.traffic.count(op="all_reduce", phase="dp_sync") == 2 * 2
        for a, b in zip(grads1, grads2):
            np.testing.assert_array_equal(a, b)  # bucketing reorders time, not math
        buckets = derive_bucket_exposures(world, "dp_sync")
        assert len(buckets) == 2
        # bucket 0 can hide under the second backward slice; the tail cannot
        assert buckets[0].hidden_fraction >= buckets[1].hidden_fraction
        ov = derive_overlaps(world)
        assert ov.dp.source == "measured"

    def test_fsdp_charges_and_tags(self):
        from repro.nn import ViTEncoder
        from repro.tensor import Tensor

        clock = VirtualClock(MACHINE)
        x = np.random.default_rng(1).standard_normal((2, 5, 16)).astype(np.float32)

        def fn(comm):
            enc = ViTEncoder(16, 2, 4, np.random.default_rng(0))
            model = FSDPModel(
                comm, None, enc, units=[b for b in enc.blocks], unit_seconds=5e-6
            )
            (model(Tensor(x)) ** 2).mean().backward()
            return None

        _, world = run_spmd_world(fn, 2, clock=clock)
        # 3 units (2 blocks + residual): forward gathers carry the phase tag.
        assert world.traffic.count(op="all_gather", phase="fsdp_gather") == 3 * 2
        # backward collectives keep their "backward" stamp
        assert world.traffic.count(op="reduce_scatter", phase="backward") == 3 * 2
        assert math.isclose(
            clock.compute_seconds(rank=0, phase="forward"), 3 * 5e-6, rel_tol=1e-12
        )
        ov = derive_overlaps(world)
        assert 0.0 <= ov.fsdp_overlap <= 1.0

    def test_mesh_training_derives_both_fractions(self):
        """FSDP × DP hybrid world: both overlap fractions derivable and the
        derived pair feeds estimate_step_comm."""
        from repro.dist import average_gradients
        from repro.nn import ViTEncoder
        from repro.tensor import Tensor

        clock = VirtualClock(MACHINE)
        x = np.random.default_rng(2).standard_normal((4, 5, 16)).astype(np.float32)

        def fn(comm):
            mesh = DeviceMesh(comm, tp=1, fsdp=2, dp=2)
            enc = ViTEncoder(16, 2, 4, np.random.default_rng(0))
            model = FSDPModel(
                comm, mesh.fsdp_group, enc, units=[b for b in enc.blocks],
                unit_seconds=1e-5,
            )
            local = shard_batch(x, comm, mesh.dp_group)
            (model(Tensor(local)) ** 2).mean().backward()
            comm.charge_compute(4e-5, phase="backward")
            with comm.phase_scope("dp_sync"):
                average_gradients(comm, model.shard_parameters(), group=mesh.dp_group)
            return comm.now()

        times = run_spmd(fn, 4, clock=clock)
        assert all(t == times[0] for t in times)
        _, world2 = run_spmd_world(fn, 4, clock=VirtualClock(MACHINE))
        ov = derive_overlaps(world2)
        model = ModelConfig("t", dim=64, depth=4, heads=4)
        comm_est = estimate_step_comm(
            model, Workload(16, 2), ParallelPlan("tp", tp=1, fsdp=2, dp=2),
            MACHINE, overlaps=ov,
        )
        assert comm_est.total >= 0.0


def _ar_cost(payload: int, world: int = 4, machine: MachineSpec | None = None) -> float:
    m = machine if machine is not None else MACHINE
    return CostModel(m).collective_seconds("all_reduce", payload, world, True)


class TestIssueQueue:
    """The eager issue-queue engine: dispatch at record time, complete
    concurrently with charged compute, settle exposure at drain points."""

    def test_exposure_matches_closed_form(self):
        """One eager collective of cost C followed by compute K exposes
        exactly max(0, C − K) — the acceptance contract."""
        payload = 1 << 20
        cost = _ar_cost(payload)
        for k_frac in (0.25, 0.5, 1.5):
            clock = VirtualClock(MACHINE, eager_phases={"dp_sync"})

            def fn(comm, k=k_frac * cost):
                with comm.phase_scope("dp_sync"):
                    comm.all_reduce(np.ones(payload // 4, dtype=np.float32))
                comm.charge_compute(k, phase="backward")
                return comm.drain_comm()

            times = run_spmd(fn, 4, clock=clock)
            expected_exposed = max(0.0, cost - k_frac * cost)
            assert math.isclose(
                clock.exposed_seconds(rank=0, phase="dp_sync"),
                expected_exposed,
                rel_tol=1e-9,
                abs_tol=1e-18,
            )
            # makespan = compute + whatever the schedule could not hide
            assert math.isclose(
                times[0], k_frac * cost + expected_exposed, rel_tol=1e-9
            )

    def test_per_bucket_exposure_matches_closed_form(self):
        """Two eager buckets with interleaved compute: exposure per bucket
        follows the serial-channel drain recurrence to 1e-6."""
        p1, p2 = 1 << 20, 1 << 18
        c1, c2 = _ar_cost(p1), _ar_cost(p2)
        k1, k2 = c1 / 4.0, c1  # slice 1 hides a quarter of bucket 0; slice 2 is long
        clock = VirtualClock(MACHINE, eager_phases={"dp_sync"})

        def fn(comm):
            with comm.phase_scope("dp_sync"):
                comm.all_reduce(np.ones(p1 // 4, dtype=np.float32))
            comm.charge_compute(k1, phase="backward")
            with comm.phase_scope("dp_sync"):
                comm.all_reduce(np.ones(p2 // 4, dtype=np.float32))
            comm.charge_compute(k2, phase="backward")
            return comm.drain_comm()

        _, world = run_spmd_world(fn, 4, clock=clock)
        # channel: bucket0 [0, c1]; bucket1 issued at k1, starts at c1
        # (channel busy), ends c1 + c2.  Drain at w0 = k1 + k2:
        w0 = k1 + k2
        e0 = max(0.0, c1 - w0)
        e1 = max(0.0, (c1 + c2) - max(w0, c1))
        buckets = derive_bucket_exposures(world, "dp_sync")
        assert [b.index for b in buckets] == [0, 1]
        assert math.isclose(buckets[0].exposed_seconds, e0, rel_tol=1e-6, abs_tol=1e-12)
        assert math.isclose(buckets[1].exposed_seconds, e1, rel_tol=1e-6, abs_tol=1e-12)
        assert math.isclose(buckets[0].comm_seconds, c1, rel_tol=1e-9)
        assert math.isclose(buckets[1].comm_seconds, c2, rel_tol=1e-9)
        # derived overlap aggregates the buckets: 1 − exposed / busy
        ov = derive_overlaps(world)
        assert ov.dp.source == "measured"
        assert math.isclose(
            ov.dp_overlap, 1.0 - (e0 + e1) / (c1 + c2), rel_tol=1e-9
        )
        assert ov.buckets_for("dp_sync") == tuple(buckets)

    def test_eager_timelines_deterministic_across_thread_schedules(self):
        def workload(comm):
            rng_sleep = 0.0005 * ((comm.rank * 7) % 3)
            for i in range(4):
                with comm.phase_scope("dp_sync"):
                    comm.all_reduce(np.ones(256 * (i + 1), dtype=np.float32))
                comm.charge_compute(1e-6 * ((comm.rank + i) % 3), phase="backward")
                time.sleep(rng_sleep)  # perturbs threads, must not perturb time
            comm.drain_comm()
            return comm.now()

        def stamps():
            clock = VirtualClock(MACHINE, eager_phases={"dp_sync"})
            times = run_spmd(workload, 4, clock=clock)
            ivs = [
                (iv.rank, iv.op, iv.issue, iv.start, iv.end, iv.exposed)
                for iv in clock.comm_intervals()
            ]
            return times, sorted(ivs)

        assert stamps() == stamps()  # bitwise, not approximate

    def test_blocking_collective_drains_queue_first(self):
        """Channel serialization: a blocking collective cannot start before
        in-flight eager ones clear, and their wait is charged to them."""
        p_eager, p_block = 1 << 20, 1 << 16
        c_eager, c_block = _ar_cost(p_eager), _ar_cost(p_block)
        clock = VirtualClock(MACHINE, eager_phases={"dp_sync"})

        def fn(comm):
            with comm.phase_scope("dp_sync"):
                comm.all_reduce(np.ones(p_eager // 4, dtype=np.float32))
            comm.all_reduce(np.ones(p_block // 4, dtype=np.float32))  # blocking
            return comm.now()

        times = run_spmd(fn, 4, clock=clock)
        assert all(math.isclose(t, c_eager + c_block, rel_tol=1e-9) for t in times)
        # the eager op's full cost was exposed (nothing could hide it)
        assert math.isclose(
            clock.exposed_seconds(rank=0, phase="dp_sync"), c_eager, rel_tol=1e-9
        )

    def test_barrier_is_blocking_even_inside_eager_phase(self):
        clock = VirtualClock(MACHINE, eager_phases={"dp_sync"})

        def fn(comm):
            with comm.phase_scope("dp_sync"):
                comm.barrier()
            return comm.now()

        times = run_spmd(fn, 4, clock=clock)
        assert all(math.isclose(t, 3 * MACHINE.intra_latency, rel_tol=1e-12) for t in times)

    def test_finalize_drains_pending_on_rank_exit(self):
        """A rank that never drains still reports the true makespan."""
        payload = 1 << 20
        cost = _ar_cost(payload, world=2)
        clock = VirtualClock(MACHINE, eager_phases={"dp_sync"})

        def fn(comm):
            with comm.phase_scope("dp_sync"):
                comm.all_reduce(np.ones(payload // 4, dtype=np.float32))
            return comm.now()  # still pending: clock not advanced here

        times = run_spmd(fn, 2, clock=clock)
        assert times == [0.0, 0.0]  # issue did not stall the ranks...
        assert math.isclose(clock.elapsed(), cost, rel_tol=1e-9)  # ...drain did

    def test_causality_and_exposure_invariants(self):
        """issue ≤ start, end ≥ start, 0 ≤ exposed ≤ end − issue."""
        clock = VirtualClock(MACHINE, eager_phases={"dp_sync", "fsdp_gather"})

        def fn(comm):
            comm.charge_compute(3e-6 * (comm.rank + 1), phase="forward")
            for i, phase in enumerate(("dp_sync", "fsdp_gather", "dp_sync")):
                with comm.phase_scope(phase):
                    comm.all_reduce(np.ones(512 * (i + 1), dtype=np.float32))
                comm.charge_compute(2e-6, phase="backward")
            comm.all_reduce(np.ones(64, dtype=np.float32))  # blocking
            return comm.now()

        run_spmd(fn, 4, clock=clock)
        ivs = clock.comm_intervals()
        assert len(ivs) == 4 * 4  # 4 collectives per rank, all settled
        for iv in ivs:
            assert iv.issue <= iv.start + 1e-18
            assert iv.end >= iv.start
            assert 0.0 <= iv.exposed <= (iv.end - iv.issue) + 1e-18
            assert math.isclose(iv.hidden + iv.exposed, iv.end - iv.issue, rel_tol=1e-12)

    def test_non_eager_clock_has_blocking_intervals(self):
        """Fully blocking clocks archive CommIntervals too (exposed = full
        wait), so exposure read-out is uniform across modes."""
        clock = VirtualClock(MACHINE)

        def fn(comm):
            comm.all_reduce(np.ones(256, dtype=np.float32))
            return None

        run_spmd(fn, 2, clock=clock)
        (iv,) = clock.comm_intervals(rank=0)
        assert iv.exposed == iv.end - iv.issue
        assert math.isclose(iv.seconds, _ar_cost(1024, world=2), rel_tol=1e-12)


class TestEagerMeasuredPlans:
    TINY = ModelConfig("tiny", dim=32, depth=2, heads=4, patch=4, image_hw=(16, 16))
    MACHINE4 = replace(MACHINE, gpus_per_node=4)

    def test_eager_replay_keeps_wire_parity(self):
        for plan in (
            ParallelPlan("dchag", tp=2, dchag_kind="linear", fsdp=2, dp=2),
            ParallelPlan("tp", tp=4, dp=2),
        ):
            m = measure_plan(
                self.TINY, Workload(16, 2), plan, self.MACHINE4, eager=True
            )
            assert m.eager
            assert m.wire_matches_predicted(), (m.wire, m.predicted.wire_by_axis())

    def test_eager_never_slower_than_blocking(self):
        """With the latency-aware bucket cap, overlap can only help."""
        plan = ParallelPlan("dchag", tp=2, dchag_kind="linear", fsdp=2, dp=2)
        for scale in (1.0, 100.0):
            blocking = measure_plan(
                self.TINY, Workload(16, 2), plan, self.MACHINE4, compute_scale=scale
            )
            eager = measure_plan(
                self.TINY, Workload(16, 2), plan, self.MACHINE4,
                eager=True, compute_scale=scale,
            )
            assert eager.step_seconds <= blocking.step_seconds + 1e-15

    def test_eager_overlaps_are_measured_with_buckets(self):
        plan = ParallelPlan("dchag", tp=2, dchag_kind="linear", fsdp=2, dp=2)
        m = measure_plan(
            self.TINY, Workload(16, 2), plan, self.MACHINE4,
            eager=True, compute_scale=100.0,
        )
        ov = m.overlaps
        assert ov.dp.source == "measured" and ov.fsdp.source == "measured"
        assert ov.buckets, "eager replay must carry per-bucket evidence"
        for b in ov.buckets:
            assert 0.0 <= b.hidden_fraction <= 1.0
            assert b.exposed_seconds >= 0.0
        # generous forward compute fully hides the prefetched gathers
        assert ov.fsdp_overlap == 1.0


class TestMachineSpecPersistence:
    def test_round_trip_identity(self, tmp_path):
        spec = replace(frontier(), name="tuned", intra_latency=3.3e-6)
        path = tmp_path / "specs" / "machine.json"
        spec.save(path)
        assert MachineSpec.load(path) == spec  # every field, exactly

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            MachineSpec.from_dict({"name": "x", "bogus": 1})

    def test_loaded_spec_ranks_identically(self, tmp_path):
        """save → load → the autotuner produces a byte-identical ranking."""
        from repro.perf import named_model

        spec = frontier()
        path = tmp_path / "machine.json"
        spec.save(path)
        loaded = MachineSpec.load(path)
        a = search_configurations(named_model("1.7B"), 512, 8, spec, 32)
        b = search_configurations(named_model("1.7B"), 512, 8, loaded, 32)
        assert [(t.plan.label, t.micro_batch, t.total_tflops) for t in a] == [
            (t.plan.label, t.micro_batch, t.total_tflops) for t in b
        ]


class TestFitResiduals:
    @staticmethod
    def _synthetic(alpha, beta, noise, seed=0, n=24):
        rng = np.random.default_rng(seed)
        steps = rng.integers(1, 15, size=n)
        wire = rng.integers(1 << 8, 1 << 20, size=n)
        secs = alpha * steps + beta * wire
        secs = secs + rng.normal(0.0, noise * np.abs(secs))
        return [
            FitSample(op="all_reduce", steps=int(s), wire_bytes=int(w), seconds=float(t))
            for s, w, t in zip(steps, wire, secs)
        ]

    def test_clean_synthetic_recovers_exactly(self):
        fit = fit_link(self._synthetic(2e-6, 2e-11, 0.0), 2e-6, 2e-11)
        assert fit.alpha_error < 1e-9 and fit.beta_error < 1e-9
        assert fit.relative_residual < 1e-9
        assert fit.within(1e-6)

    def test_noisy_synthetic_residual_tracks_noise(self):
        """The relative residual is the noise gate: ~σ for σ-noisy samples,
        so thresholds separate clean timelines from garbage."""
        quiet = fit_link(self._synthetic(2e-6, 2e-11, 0.01, seed=1), 2e-6, 2e-11)
        loud = fit_link(self._synthetic(2e-6, 2e-11, 0.60, seed=1), 2e-6, 2e-11)
        assert quiet.within(0.05)
        assert not loud.within(0.05)
        assert loud.relative_residual > quiet.relative_residual

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_link(self._synthetic(1e-6, 1e-11, 0.0, n=1), 1e-6, 1e-11)

    def test_to_machine_falls_back_on_degenerate_fit(self):
        bad = FittedLink(
            intra_node=True, alpha=-1.0, beta=-1.0,
            spec_alpha=2e-6, spec_beta=2e-11, rms_residual=0.0,
        )
        spec = bad.to_machine(frontier(), name="host")
        assert spec.intra_latency == 2e-6
        assert math.isclose(spec.intra_node_bw, 1.0 / 2e-11, rel_tol=1e-12)


class TestWallclockFit:
    def test_samples_come_from_rank_side_stamps(self):
        samples = wallclock_fit_samples(world_size=2, payload_sweep=(1 << 10,), repeats=2)
        assert len(samples) == 5  # one per ring op
        for s in samples:
            assert s.seconds >= 0.0
            assert s.steps >= 0 and s.wire_bytes >= 0

    def test_fit_machine_wallclock_builds_host_spec(self):
        spec, fit = fit_machine_wallclock(
            world_size=2, payload_sweep=(1 << 10, 1 << 13), repeats=2
        )
        assert spec.name == "host-calibrated"
        assert spec.intra_latency > 0.0 and spec.intra_node_bw > 0.0
        # host has one fabric: both links carry the fitted constants
        assert spec.inter_latency == spec.intra_latency
        assert math.isclose(spec.inter_node_bw_per_gpu, spec.intra_node_bw, rel_tol=1e-12)
        assert math.isfinite(fit.rms_residual)

    def test_default_sweep_fits_positive_alpha_and_beta(self):
        """On warm buffers both constants are identifiable at the default
        sweep, so the saved spec carries measured values, not the
        MachineSpec fallback (regression: per-collective allocation
        drove the fitted alpha negative)."""
        spec, fit = fit_machine_wallclock()
        assert fit.alpha > 0.0 and fit.beta > 0.0, fit
        assert spec.intra_latency == fit.alpha
        assert spec.intra_node_bw == 1.0 / fit.beta


class TestCalibrateCLI:
    """`python -m repro.perf.calibrate` must gate, not just print."""

    def test_smoke_pass_exits_zero(self, capsys):
        assert calibrate_main(["--ranks", "2", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "OK:" in out
        assert "fitted intra" in out  # the fit gate runs even under --smoke

    def test_fit_host_saves_a_spec_load_reads_back(self, tmp_path, monkeypatch):
        """``--fit-host PATH`` persists exactly the fitted spec, and
        :meth:`MachineSpec.load` reads it back field for field."""
        import repro.perf.calibrate as cal

        fitted = []

        def fit_and_keep(*args, **kwargs):
            spec, fit = fit_machine_wallclock(*args, **kwargs)
            fitted.append(spec)
            return spec, fit

        monkeypatch.setattr(cal, "fit_machine_wallclock", fit_and_keep)
        path = tmp_path / "runs" / "machine.json"
        argv = ["--ranks", "2", "--smoke", "--fit-host", str(path), "--fit-tol", "2.0"]
        assert calibrate_main(argv) == 0
        (spec,) = fitted
        assert MachineSpec.load(path) == spec

    def test_wire_divergence_exits_nonzero(self, monkeypatch, capsys):
        import repro.perf.calibrate as cal

        bad_row = cal.CalibrationRow(
            op="all_reduce", ranks=2, intra_node=True, payload_bytes=8,
            predicted_wire=8, measured_wire=9,
            predicted_seconds=1e-6, measured_seconds=1e-6,
        )
        monkeypatch.setattr(
            cal, "calibrate",
            lambda **kw: cal.CalibrationReport(machine=frontier(), rows=[bad_row]),
        )
        good_fit = FittedLink(
            intra_node=True, alpha=2e-6, beta=2e-11,
            spec_alpha=2e-6, spec_beta=2e-11, rms_residual=0.0, mean_seconds=1e-6,
        )
        monkeypatch.setattr(cal, "fit_machine", lambda **kw: good_fit)
        assert cal.main(["--smoke"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_fit_divergence_exits_nonzero(self, monkeypatch, capsys):
        import repro.perf.calibrate as cal

        diverged = FittedLink(
            intra_node=True, alpha=1.0, beta=1.0,
            spec_alpha=2e-6, spec_beta=2e-11,
            rms_residual=float("nan"), mean_seconds=1e-6,
        )
        monkeypatch.setattr(cal, "fit_machine", lambda **kw: diverged)
        assert cal.main(["--ranks", "2", "--smoke"]) == 1
        assert "FAIL: fitted constants diverge" in capsys.readouterr().out


class TestOverlapAwareTrainerEndToEnd:
    """A real Trainer driven inside an eager-clock SPMD world: the bucketed
    DP gradient sync overlaps backward compute, drains at every optimizer
    boundary, and the resulting per-step virtual times agree with the
    analytic ``estimate_step(..., overlaps=derive_overlaps(world))``."""

    def test_trainer_step_times_match_overlap_aware_estimate(self):
        from repro.nn import Module
        from repro.perf import Precision, estimate_step, transformer_param_count
        from repro.tensor import Tensor
        from repro.train import TrainConfig, Trainer

        cfg = ModelConfig("e2e", dim=256, depth=6, heads=4, patch=4, image_hw=(16, 16))
        plan = ParallelPlan("tp", tp=1, fsdp=1, dp=2)
        wl = Workload(channels=16, batch=2)
        precision = Precision(grad_bytes=4)  # the world's gradients are real float32
        # Derate peak FLOPs so the charged compute is commensurate with the
        # gradient AllReduce — the regime where bucketed overlap actually
        # hides traffic (at paper peak this model's step is all-comm).
        machine = replace(MACHINE, peak_flops=MACHINE.peak_flops / 128.0)
        raw = estimate_step(cfg, wl, plan, machine, precision=precision)
        fwd_seconds = raw.compute_seconds / 3.0
        bwd_seconds = raw.compute_seconds * 2.0 / 3.0
        # Four float32 chunks summing exactly to the transformer parameter
        # count: the live bucketed AllReduce then moves byte-for-byte the
        # payload the analytic dp event prices.
        n_params = transformer_param_count(cfg)
        chunk = n_params // 4
        sizes = [chunk, chunk, chunk, n_params - 3 * chunk]
        n_steps = 3
        clock = VirtualClock(machine, eager_phases={"dp_sync"})

        def fn(comm):
            rng = np.random.default_rng(0)

            class _Flat(Module):
                def __init__(self):
                    super().__init__()
                    for i, sz in enumerate(sizes):
                        setattr(self, f"w{i}", Tensor(
                            0.01 * rng.standard_normal(sz).astype(np.float32),
                            requires_grad=True,
                        ))

            inner = _Flat()
            dp = DataParallel(
                comm, None, inner, backward_seconds=bwd_seconds, grad_buckets=4
            )

            class _Step(Module):
                def loss(self, batch):
                    comm.charge_compute(fwd_seconds, phase="forward")
                    total = None
                    for p in inner.parameters():
                        term = (p ** 2).mean()
                        total = term if total is None else total + term
                    return total

            marks = []
            trainer = Trainer(
                _Step(),
                TrainConfig(lr=1e-3, total_steps=n_steps),
                params=inner.parameters(),
                # DDP hook point: bucketed sync (charges backward slices and
                # issues each bucket eagerly), then drain at the optimizer
                # boundary so each step settles its own exposure.
                grad_hook=lambda: (dp.sync_gradients(), comm.drain_comm()),
                pre_step_hook=lambda step: marks.append(comm.now()),
            )
            trainer.fit([np.zeros(1, np.float32)] * n_steps)
            marks.append(comm.now())
            return marks

        results, world = run_spmd_world(fn, plan.total_gpus, clock=clock)
        assert all(m == results[0] for m in results)  # SPMD-deterministic
        deltas = [b - a for a, b in zip(results[0], results[0][1:])]
        assert len(deltas) == n_steps
        # Every step spans the identical virtual time (same schedule).
        for d in deltas[1:]:
            assert d == pytest.approx(deltas[0], rel=1e-9)
        # Wire parity: the run moved exactly the analytic dp payload per step.
        assert world.traffic.wire_bytes(phase="dp_sync", rank=0) // n_steps == raw.comm.dp_wire
        ov = derive_overlaps(world)
        assert ov.dp.source == "measured"
        assert 0.0 < ov.dp_overlap < 1.0  # genuinely partial hiding
        est = estimate_step(cfg, wl, plan, machine, precision=precision, overlaps=ov)
        # Per-step measured time vs the overlap-aware analytic estimate: the
        # only structural gap is 3 extra bucket latencies (~1% here).
        for d in deltas:
            assert d == pytest.approx(est.step_seconds, rel=0.15)
