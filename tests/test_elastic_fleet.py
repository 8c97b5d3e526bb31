"""Fleet simulator: scripted churn traces priced as pure event arithmetic.

Locks the simulator's ledger against hand-computed scenarios (constant
costs, one event at a time), its fidelity rules (rollback to the last
checkpoint, spare swaps at zero reshard, banked arrivals are free), and the
benchmark probe's exact ledger and machine prices, bitwise.
"""

import dataclasses

import pytest

from repro.elastic import (
    AlwaysShrink,
    FleetCosts,
    FleetEvent,
    FleetTrace,
    SparePool,
    simulate_fleet,
)
from repro.perf.machine import frontier

STEP = 1.0  # constant per-step seconds for the hand-computed scenarios


def flat_costs(save_io=0.0, snapshot=0.0, restore=None, reshard=0.0):
    return FleetCosts(
        {w: STEP for w in range(1, 9)},
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

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="world_size"):
            simulate_fleet(FleetTrace(5), AlwaysShrink(), flat_costs(), 0)
        with pytest.raises(ValueError, match="cadence"):
            simulate_fleet(FleetTrace(5), AlwaysShrink(), flat_costs(), 2, cadence=0)
        with pytest.raises(ValueError, match="no step cost"):
            FleetCosts({4: 1.0}, save_io_seconds=0.0).step_seconds(3)
        with pytest.raises(ValueError, match="model_bytes"):
            FleetCosts.from_machine(frontier(), model_bytes=-1.0, step_cost={1: 1.0})


class TestBenchmarkProbe:
    """Bitwise pin of the one call ``benchmarks/e2e/layers.py::fleet_probe``
    makes (plus the same trace under ``SparePool(2)``), and of the
    ``FleetCosts.from_machine`` prices it charges.  Floats are compared as
    ``float.hex`` so any change to the ledger's arithmetic or its order
    shows here before it shows as a moved benchmark metric.
    """

    PINNED = {
        (0, "always-shrink"): {
            "policy": "always-shrink",
            "horizon_steps": 100000,
            "wall_seconds": "0x1.7d25443597a75p+10",
            "productive_seconds": "0x1.7651dddddf3b2p+10",
            "recompute_seconds": "0x1.ab333333332adp+4",
            "save_seconds": "0x1.2865e89225435p-1",
            "restore_seconds": "0x1.1cc9646280281p-6",
            "reshard_seconds": "0x1.c011d3671ac20p-8",
            "restores": 129,
            "saves": 3999,
            "final_world": 3,
            "spares_left": 0,
            "steps_completed": 100000,
            "status": "completed",
        },
        (0, "spare-pool-2"): {
            "policy": "spare-pool-2",
            "horizon_steps": 100000,
            "wall_seconds": "0x1.3dd095b6dc4b9p+10",
            "productive_seconds": "0x1.3b26eeeef159dp+10",
            "recompute_seconds": "0x1.44cccccccccc4p+3",
            "save_seconds": "0x1.f98d25edd0849p-2",
            "restore_seconds": "0x1.bc98a222d5171p-8",
            "reshard_seconds": "0x1.4d72799a1fd15p-12",
            "restores": 68,
            "saves": 3999,
            "final_world": 4,
            "spares_left": 1,
            "steps_completed": 100000,
            "status": "completed",
        },
        (1, "always-shrink"): {
            "policy": "always-shrink",
            "horizon_steps": 100000,
            "wall_seconds": "0x1.71de36b4c9e32p+10",
            "productive_seconds": "0x1.6bc6222223ec0p+10",
            "recompute_seconds": "0x1.7caaaaaaaaa65p+4",
            "save_seconds": "0x1.209f40a287928p-1",
            "restore_seconds": "0x1.e603d5779639dp-7",
            "reshard_seconds": "0x1.8bf7f06705c93p-8",
            "restores": 114,
            "saves": 3999,
            "final_world": 4,
            "spares_left": 0,
            "steps_completed": 100000,
            "status": "completed",
        },
        (1, "spare-pool-2"): {
            "policy": "spare-pool-2",
            "horizon_steps": 100000,
            "wall_seconds": "0x1.3b9f422d80b58p+10",
            "productive_seconds": "0x1.393aaaaaad26ap+10",
            "recompute_seconds": "0x1.2266666666686p+3",
            "save_seconds": "0x1.f6b5b2d4d4349p-2",
            "restore_seconds": "0x1.767903211cb04p-8",
            "reshard_seconds": "0x1.bc98a222d5172p-14",
            "restores": 58,
            "saves": 3999,
            "final_world": 4,
            "spares_left": 2,
            "steps_completed": 100000,
            "status": "completed",
        },
    }
    COSTS = {  # world: (save_io, snapshot, restore, reshard to world + 1)
        1: ("0x1.81e03f705857bp-12", "0x1.81e03f705857bp-14", "0x1.81e03f705857bp-12", "0x1.bc98a222d5172p-15"),
        2: ("0x1.8a43bb40b34e8p-13", "0x1.8a43bb40b34e8p-15", "0x1.8a43bb40b34e8p-13", "0x1.bc98a222d5172p-15"),
        3: ("0x1.0c6f7a0b5ed8dp-13", "0x1.0c6f7a0b5ed8dp-15", "0x1.0c6f7a0b5ed8dp-13", "0x1.bc98a222d5172p-15"),
        4: ("0x1.9b0ab2e1693c1p-14", "0x1.9b0ab2e1693c1p-16", "0x1.9b0ab2e1693c1p-14", "0x1.bc98a222d5172p-15"),
        5: ("0x1.4f8b588e368f1p-14", "0x1.4f8b588e368f1p-16", "0x1.4f8b588e368f1p-14", "0x1.bc98a222d5172p-15"),
        6: ("0x1.1d3671ac14c66p-14", "0x1.1d3671ac14c66p-16", "0x1.1d3671ac14c66p-14", "0x1.bc98a222d5172p-15"),
        7: ("0x1.f285e2a767006p-15", "0x1.f285e2a767006p-17", "0x1.f285e2a767006p-15", "0x1.bc98a222d5172p-15"),
        8: ("0x1.bc98a222d5172p-15", "0x1.bc98a222d5172p-17", "0x1.bc98a222d5172p-15", "0x1.bc98a222d5172p-15"),
    }

    @staticmethod
    def _costs():
        return FleetCosts.from_machine(
            frontier(), model_bytes=1.5e6, step_cost={w: 0.05 / w for w in range(1, 9)}
        )

    @pytest.mark.parametrize("seed,policy", [
        (0, AlwaysShrink()), (0, SparePool(2)), (1, AlwaysShrink()), (1, SparePool(2)),
    ])
    def test_probe_ledger_is_pinned(self, seed, policy):
        trace = FleetTrace.poisson(
            100_000, mtbf_steps=1_500, return_after_steps=700, seed=seed
        )
        r = simulate_fleet(trace, policy, self._costs(), 4, cadence=25)
        got = {
            k: v.hex() if isinstance(v, float) else v
            for k, v in dataclasses.asdict(r).items()
            if k in self.PINNED[seed, policy.name]
        }
        assert got == self.PINNED[seed, policy.name]

    def test_machine_prices_are_pinned(self):
        costs = self._costs()
        got = {
            w: tuple(v.hex() for v in (
                costs.save_io_seconds(w),
                costs.snapshot_seconds(w),
                costs.restore_seconds(w),
                costs.reshard_seconds(w, w + 1),
            ))
            for w in range(1, 9)
        }
        assert got == self.COSTS
