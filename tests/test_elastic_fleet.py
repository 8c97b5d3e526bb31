"""Fleet simulator: scripted churn traces priced as pure event arithmetic.

Locks the simulator's ledger against hand-computed scenarios (constant
costs, one event at a time), its fidelity rules (torn in-flight async
saves, spare swaps at zero reshard, banked arrivals are free), the
replay-backed :class:`~repro.perf.schedule.StepCostTable` anchor logic,
and the deterministic ranking of a policy comparison.
"""

import numpy as np
import pytest

from repro.elastic import (
    AlwaysShrink,
    CostAwareCadence,
    FleetCosts,
    FleetEvent,
    FleetTrace,
    SparePool,
    compare_policies,
    simulate_fleet,
)

STEP = 1.0  # constant per-step seconds for the hand-computed scenarios


def flat_costs(save_io=0.0, snapshot=0.0, restore=None, reshard=0.0):
    return FleetCosts(
        lambda world: STEP,
        save_io_seconds=save_io,
        snapshot_seconds=snapshot,
        restore_seconds=restore,
        reshard_seconds=reshard,
    )


class TestFleetTrace:
    def test_events_sorted_and_validated(self):
        tr = FleetTrace(
            10,
            (FleetEvent(7, "arrival"), FleetEvent(2, "failure"), FleetEvent(2, "arrival")),
        )
        assert [(e.step, e.kind) for e in tr.events] == [
            (2, "failure"), (2, "arrival"), (7, "arrival"),
        ]
        assert tr.n_failures == 1 and tr.n_arrivals == 2
        with pytest.raises(ValueError, match="beyond the horizon"):
            FleetTrace(5, (FleetEvent(5, "failure"),))
        with pytest.raises(ValueError, match="kind"):
            FleetEvent(1, "maintenance")
        with pytest.raises(ValueError, match="count"):
            FleetEvent(1, "failure", count=0)

    def test_poisson_is_seed_deterministic(self):
        a = FleetTrace.poisson(50_000, mtbf_steps=2_000, return_after_steps=500, seed=3)
        b = FleetTrace.poisson(50_000, mtbf_steps=2_000, return_after_steps=500, seed=3)
        assert a == b
        assert a.n_failures > 5
        assert a.n_arrivals <= a.n_failures  # late failures' returns fall off the end
        c = FleetTrace.poisson(50_000, mtbf_steps=2_000, return_after_steps=500, seed=4)
        assert c != a

    def test_mtbf_estimate(self):
        tr = FleetTrace(100, tuple(FleetEvent(s, "failure") for s in (10, 40, 70)))
        assert tr.mtbf_steps == pytest.approx(100 / 3)


class TestSimulateFleetLedger:
    def test_clean_run_charges_only_steps_and_saves(self):
        costs = flat_costs(save_io=0.5, snapshot=0.1)
        r = simulate_fleet(FleetTrace(10), AlwaysShrink(), costs, 4, cadence=3)
        # 10 one-second steps + saves at 3, 6, 9 (never at the horizon).
        assert r.productive_seconds == pytest.approx(10.0)
        assert r.recompute_seconds == 0.0
        assert r.saves == 3 and r.save_seconds == pytest.approx(3 * 0.6)
        assert r.wall_seconds == pytest.approx(11.8)
        assert r.goodput == pytest.approx(10.0 / 11.8)
        assert r.status == "completed" and r.steps_completed == 10

    def test_failure_rolls_back_to_last_checkpoint(self):
        costs = flat_costs(save_io=0.0, reshard=2.0)
        tr = FleetTrace(10, (FleetEvent(5, "failure"),))
        r = simulate_fleet(tr, AlwaysShrink(), costs, 2, cadence=3)
        # Steps 0-4 run, failure fires before step 5, world 2->1 resumes
        # from the step-3 checkpoint: steps 3-4 are recompute.
        assert r.productive_seconds == pytest.approx(10.0)
        assert r.recompute_seconds == pytest.approx(2.0)
        assert r.reshard_seconds == pytest.approx(2.0)
        assert r.restores == 1 and r.final_world == 1
        assert r.wall_seconds == pytest.approx(10 + 2 + 2)

    def test_exhausted_when_policy_hits_min_world(self):
        tr = FleetTrace(10, (FleetEvent(4, "failure"),))
        r = simulate_fleet(tr, AlwaysShrink(), flat_costs(), 1, cadence=3)
        assert r.status == "exhausted"
        assert r.steps_completed == 4
        assert r.restores == 0  # nothing to restart into

    def test_spare_swap_keeps_world_and_skips_reshard(self):
        costs = flat_costs(restore=0.5, reshard=7.0)
        tr = FleetTrace(10, (FleetEvent(5, "failure"),))
        r = simulate_fleet(tr, SparePool(1), costs, 4, cadence=3)
        assert r.final_world == 4 and r.spares_left == 0
        assert r.reshard_seconds == 0.0  # same size: no data movement
        assert r.restore_seconds == pytest.approx(0.5)
        assert r.restores == 1

    def test_banked_arrival_is_free_grow_restarts(self):
        costs = flat_costs(restore=0.5, reshard=2.0)
        # The pool starts full, so bank-testing needs the spare consumed
        # first: failure at 3 (spare swap), the returned host re-banks at 6.
        tr = FleetTrace(10, (FleetEvent(3, "failure"), FleetEvent(6, "arrival")))
        banked = simulate_fleet(tr, SparePool(1), costs, 4, cadence=3)
        assert banked.restores == 1  # the swap; the arrival never interrupts
        assert banked.spares_left == 1 and banked.final_world == 4
        assert banked.recompute_seconds == 0.0  # failure hit right at a save
        # AlwaysShrink grows on a bare arrival: planned restart from step 3.
        grown = simulate_fleet(
            FleetTrace(10, (FleetEvent(4, "arrival"),)),
            AlwaysShrink(), costs, 4, cadence=3,
        )
        assert grown.restores == 1 and grown.final_world == 5
        assert grown.recompute_seconds == pytest.approx(1.0)  # step 3 re-run
        assert grown.reshard_seconds == pytest.approx(2.0)

    def test_max_world_size_caps_growth(self):
        tr = FleetTrace(10, (FleetEvent(4, "arrival", count=3),))
        r = simulate_fleet(
            tr, AlwaysShrink(), flat_costs(), 4, cadence=3, max_world_size=5
        )
        assert r.final_world == 5

    def test_async_save_overlaps_io(self):
        costs = flat_costs(save_io=0.5, snapshot=0.1)
        blocking = simulate_fleet(FleetTrace(10), AlwaysShrink(), costs, 4, cadence=3)
        overlapped = simulate_fleet(
            FleetTrace(10), AlwaysShrink(), costs, 4, cadence=3, async_save=True
        )
        # Async pays only the snapshot up front; the io happens off-path
        # (cadence 3 > 0.5 s, so back-pressure never binds).
        assert overlapped.save_seconds == pytest.approx(3 * 0.1)
        assert overlapped.wall_seconds == pytest.approx(10 + 3 * 0.1)
        assert overlapped.wall_seconds < blocking.wall_seconds
        assert overlapped.goodput > blocking.goodput

    def test_async_backpressure_stalls_when_io_exceeds_cadence(self):
        # io = 5 s per save, one save per 2 one-second steps: the double
        # buffer fills and later commits wait for the previous write.
        costs = flat_costs(save_io=5.0, snapshot=0.0)
        r = simulate_fleet(FleetTrace(9), AlwaysShrink(), costs, 4, cadence=2, async_save=True)
        assert r.save_seconds > 0.0  # stalls were charged
        # Still never slower than fully blocking.
        b = simulate_fleet(FleetTrace(9), AlwaysShrink(), costs, 4, cadence=2)
        assert r.wall_seconds <= b.wall_seconds

    def test_failure_discards_in_flight_async_save(self):
        # Save at step 3 needs 5 s of io; the failure at step 4 beats it:
        # the write is torn, so the rollback target is step 0, not 3.
        costs = flat_costs(save_io=5.0, snapshot=0.0)
        tr = FleetTrace(10, (FleetEvent(4, "failure"),))
        r = simulate_fleet(tr, AlwaysShrink(), costs, 2, cadence=3, async_save=True)
        assert r.recompute_seconds == pytest.approx(4.0)  # steps 0-3 re-run

    def test_planned_grow_drains_in_flight_async_save(self):
        # Same in-flight save, but the interruption is a *planned* grow:
        # the supervisor drains the writer first, so step 3 is durable and
        # only step 3 itself is recomputed.
        costs = flat_costs(save_io=5.0, snapshot=0.0)
        tr = FleetTrace(10, (FleetEvent(4, "arrival"),))
        r = simulate_fleet(tr, AlwaysShrink(), costs, 2, cadence=3, async_save=True)
        assert r.recompute_seconds == pytest.approx(1.0)

    def test_cost_aware_cadence_uses_trace_mtbf(self):
        # step 1 s, save C = 2 s, MTBF = horizon/1 failure = 10_000 steps
        # -> tau = sqrt(2*2*10_000) = 200 steps.
        costs = flat_costs(save_io=2.0)
        tr = FleetTrace(10_000, (FleetEvent(9_999, "failure"),))
        r = simulate_fleet(tr, CostAwareCadence(), costs, 4, cadence=25)
        assert r.cadence_steps == 200
        assert r.saves == 10_000 // 200 - 1  # never saves at the horizon

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="world_size"):
            simulate_fleet(FleetTrace(5), AlwaysShrink(), flat_costs(), 0)
        with pytest.raises(ValueError, match="cadence"):
            simulate_fleet(FleetTrace(5), AlwaysShrink(), flat_costs(), 2, cadence=0)
        with pytest.raises(ValueError, match="no step cost"):
            FleetCosts({4: 1.0}, save_io_seconds=0.0).step_seconds(3)


class TestComparePolicies:
    def _setup(self):
        costs = flat_costs(save_io=0.4, snapshot=0.1, restore=0.5, reshard=3.0)
        trace = FleetTrace.poisson(
            20_000, mtbf_steps=1_500, return_after_steps=600, seed=11
        )
        policies = [AlwaysShrink(), SparePool(2), CostAwareCadence(AlwaysShrink())]
        return trace, policies, costs

    def test_ranking_is_deterministic_and_sorted(self):
        trace, policies, costs = self._setup()
        a = compare_policies(trace, policies, costs, 4, cadence=25)
        b = compare_policies(trace, policies, costs, 4, cadence=25)
        assert [(r.policy, r.goodput) for r in a] == [(r.policy, r.goodput) for r in b]
        goodputs = [r.goodput for r in a]
        assert goodputs == sorted(goodputs, reverse=True)
        assert {r.policy for r in a} == {p.name for p in policies}

    def test_empty_policy_list_rejected(self):
        trace, _, costs = self._setup()
        with pytest.raises(ValueError, match="at least one policy"):
            compare_policies(trace, [], costs, 4)


class TestStepCostTable:
    class _FakeSchedule:
        def __init__(self, world_size):
            self.world_size = world_size

    def test_anchor_replay_and_nearest_scaling(self, monkeypatch):
        import repro.perf.schedule as sched

        replayed = []

        def fake_replay(schedule, machine, n_steps=1, compute_scale=1.0, **kw):
            replayed.append(schedule.world_size)

            class R:
                step_seconds = 1.0 / schedule.world_size

            return R()

        monkeypatch.setattr(sched, "replay", fake_replay)
        table = sched.StepCostTable()
        table.add(self._FakeSchedule(2))
        table.add(self._FakeSchedule(4))
        assert table.worlds == [2, 4]
        assert len(table) == 2
        assert table.is_exact(4) and not table.is_exact(3)
        # Exact worlds replay (memoized: one replay per anchor).
        assert table.seconds_for(4) == pytest.approx(0.25)
        assert table(4) == pytest.approx(0.25)
        assert replayed.count(4) == 1
        # World 3 ties between anchors 2 and 4; the smaller anchor wins and
        # scales by anchor/world (perfect-scaling estimate).
        assert table.seconds_for(3) == pytest.approx(0.5 * 2 / 3)
        # World 6 estimates from the nearest anchor 4.
        assert table.seconds_for(6) == pytest.approx(0.25 * 4 / 6)

    def test_empty_table_raises(self):
        from repro.perf.schedule import StepCostTable

        with pytest.raises(ValueError):
            StepCostTable().seconds_for(4)
