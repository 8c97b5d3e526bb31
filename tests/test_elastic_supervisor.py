"""Elastic recovery: scripted rank death → shrink → reshard → resume.

The headline invariant: a training run interrupted by rank loss and resumed
at a smaller world size follows the same loss trajectory as an uninterrupted
run of the same schedule (FSDP math is world-size independent; the
checkpoint restores parameters, moments and the step index exactly).
"""

import threading

import numpy as np
import pytest

from repro.dist import SpmdError, run_spmd, run_spmd_world
from repro.elastic import (
    AlwaysShrink,
    ElasticError,
    ElasticSupervisor,
    FailurePlan,
    InjectedFailure,
    RankArrival,
    RankReturn,
    SparePool,
    fsdp_training_segment,
)
from repro.elastic.checkpoint import _WRITER_REGISTRY
from repro.nn import MLP, Module
from repro.tensor import Tensor
from repro.train import TrainConfig

DIM, HID = 6, 10
TOTAL, EVERY = 12, 3


class TinyRegressor(Module):
    """Deterministic toy model exposing ``loss(x, y)`` for the Trainer."""

    def __init__(self, seed=11):
        super().__init__()
        self.net = MLP(DIM, HID, np.random.default_rng(seed))

    def forward(self, x):
        return self.net(x)

    def loss(self, x, y):
        out = self.net(Tensor(x))
        return ((out - Tensor(y)) ** 2).mean()


def batch_fn(step):
    rng = np.random.default_rng(1000 + step)
    x = rng.standard_normal((4, DIM)).astype(np.float32)
    y = rng.standard_normal((4, DIM)).astype(np.float32)
    return x, y


def make_config(**overrides):
    kwargs = dict(
        lr=5e-3, total_steps=TOTAL, warmup_steps=2, checkpoint_every=EVERY
    )
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


def run_elastic(tmp_path, world_size, plan, sub="run", **sup_kwargs):
    root = tmp_path / sub
    segment = fsdp_training_segment(TinyRegressor, batch_fn, make_config(), root)
    sup = ElasticSupervisor(segment, root, world_size, timeout=60, **sup_kwargs)
    return sup.run(TOTAL, failure_plan=plan)


class TestFailurePlan:
    def test_plan_algebra(self):
        plan = FailurePlan.kill(2, 7).then(1, 9)
        assert len(plan) == 2 and plan
        plan.check(0, 7)  # no match: silent
        plan.check(2, 6)
        with pytest.raises(InjectedFailure) as exc:
            plan.check(2, 7)
        assert exc.value.rank == 2 and exc.value.step == 7
        left = plan.without(2, 7)
        assert len(left) == 1
        left.check(2, 7)  # fired event removed
        assert not FailurePlan()

    def test_tick_kills_the_world_and_records_status(self):
        def fn(comm):
            for step in range(5):
                comm.tick(step)
                comm.barrier()
            return "done"

        with pytest.raises(SpmdError) as exc:
            run_spmd(fn, 3, failure_plan=FailurePlan.kill(1, 3), timeout=30)
        err = exc.value
        assert err.rank == 1
        assert isinstance(err.__cause__, InjectedFailure)
        assert err.__cause__.step == 3
        assert err.world.rank_status[1] == "failed"
        assert err.world.failed_ranks == [1]
        # Peers were unwound by the abort, not left running.
        assert all(s in ("aborted", "ok") for r, s in enumerate(err.world.rank_status) if r != 1)

    def test_no_plan_tick_is_noop(self):
        def fn(comm):
            comm.tick(0)
            return True

        assert run_spmd(fn, 2) == [True, True]

    def test_rank_status_all_ok_on_success(self):
        _, world = run_spmd_world(lambda comm: comm.rank, 3)
        assert world.rank_status == ["ok"] * 3


class TestElasticRecovery:
    def test_recovers_and_matches_uninterrupted_baseline(self, tmp_path):
        """The acceptance scenario: 4 ranks, rank 2 dies at step 7, the
        supervisor resumes 3-wide from the step-6 checkpoint, and the final
        loss matches an uninterrupted same-schedule run."""
        res = run_elastic(tmp_path, 4, FailurePlan.kill(2, 7), sub="elastic")
        base = run_elastic(tmp_path, 4, None, sub="baseline")

        assert res.attempts == 2
        assert len(res.losses) == TOTAL
        assert res.world_sizes == [4] * 6 + [3] * 6
        (ev,) = res.recoveries
        assert (ev.failed_rank, ev.failed_step) == (2, 7)
        assert ev.resume_step == 6  # last checkpoint at checkpoint_every=3
        assert ev.steps_lost == 1
        assert (ev.old_world_size, ev.new_world_size) == (4, 3)
        assert ev.reshard_bytes > 0

        np.testing.assert_allclose(res.losses, base.losses, rtol=1e-4, atol=1e-6)
        assert abs(res.final_loss - base.final_loss) <= 1e-4 * abs(base.final_loss)

    def test_trajectory_matches_serial_world(self, tmp_path):
        """FSDP sharding is math-neutral: a 1-rank uninterrupted run gives
        the same trajectory the elastic run reports."""
        res = run_elastic(tmp_path, 4, FailurePlan.kill(0, 4), sub="elastic")
        serial = run_elastic(tmp_path, 1, None, sub="serial")
        np.testing.assert_allclose(res.losses, serial.losses, rtol=1e-4, atol=1e-6)

    def test_cold_restart_before_first_checkpoint(self, tmp_path):
        """Death before any checkpoint restarts from scratch at the smaller
        world; the trajectory still matches the baseline."""
        res = run_elastic(tmp_path, 3, FailurePlan.kill(1, 1), sub="elastic")
        base = run_elastic(tmp_path, 2, None, sub="baseline")
        (ev,) = res.recoveries
        assert ev.resume_step == 0
        assert ev.reshard_bytes == 0  # nothing to reshard
        assert res.world_sizes == [2] * TOTAL
        np.testing.assert_allclose(res.losses, base.losses, rtol=1e-4, atol=1e-6)

    def test_two_sequential_failures(self, tmp_path):
        plan = FailurePlan.kill(3, 5).then(0, 10)
        res = run_elastic(tmp_path, 4, plan, sub="elastic")
        base = run_elastic(tmp_path, 4, None, sub="baseline")
        assert [r.new_world_size for r in res.recoveries] == [3, 2]
        assert res.attempts == 3
        assert res.world_sizes[-1] == 2
        np.testing.assert_allclose(res.losses, base.losses, rtol=1e-4, atol=1e-6)

    def test_refuses_to_shrink_below_min(self, tmp_path):
        with pytest.raises(SpmdError, match="min_world_size"):
            run_elastic(
                tmp_path, 2, FailurePlan.kill(0, 2), sub="elastic", min_world_size=2
            )

    def test_gives_up_after_max_recoveries(self, tmp_path):
        plan = FailurePlan.kill(0, 2).then(0, 3)
        with pytest.raises(SpmdError, match="gave up"):
            run_elastic(
                tmp_path, 4, plan, sub="elastic", max_recoveries=1
            )

    def test_unscripted_exceptions_also_recover(self, tmp_path):
        """A real (non-injected) rank exception takes the same recovery path;
        the crash is one-shot so the retry succeeds."""
        root = tmp_path / "real"
        fired = []

        def flaky_segment(comm, start_step, resume_dir):
            if comm.rank == 1 and not fired:
                fired.append(True)
                raise RuntimeError("spurious ECC error")
            segment = fsdp_training_segment(TinyRegressor, batch_fn, make_config(), root)
            return segment(comm, start_step, resume_dir)

        sup = ElasticSupervisor(flaky_segment, root, 3, timeout=60)
        res = sup.run(TOTAL)
        assert len(res.losses) == TOTAL
        (ev,) = res.recoveries
        assert ev.failed_rank == 1
        assert ev.failed_step == -1  # no step info on a raw exception
        assert ev.new_world_size == 2

class TestRecoveryPolicies:
    def test_always_shrink_transitions(self):
        p = AlwaysShrink()
        assert p.initial_spares == 0
        assert p.on_failure(4, 0) == (3, 0)
        assert p.on_arrival(3, 0, 2) == (5, 0)

    def test_spare_pool_consumes_then_shrinks(self):
        p = SparePool(2)
        assert p.initial_spares == 2
        assert p.on_failure(4, 2) == (4, 1)
        assert p.on_failure(4, 1) == (4, 0)
        assert p.on_failure(4, 0) == (3, 0)

    def test_spare_pool_banks_arrivals_up_to_capacity(self):
        p = SparePool(2)
        # One slot free: bank one, grow by the rest.
        assert p.on_arrival(4, 1, 3) == (6, 2)
        # Pool full: every arrival grows the world.
        assert p.on_arrival(4, 2, 1) == (5, 2)

    def test_spare_pool_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            SparePool(0)


class TestElasticGrow:
    def test_grow_on_rank_return_matches_baseline(self, tmp_path):
        """The v2 acceptance scenario: rank 2 dies at step 4 (shrink 4->3),
        a rank returns at step 7 (grow 3->4), and the full trajectory still
        matches an uninterrupted 4-wide run."""
        plan = FailurePlan.kill(2, 4).rejoin(7)
        res = run_elastic(tmp_path, 4, plan, sub="elastic")
        base = run_elastic(tmp_path, 4, None, sub="baseline")

        assert res.attempts == 3
        assert [ev.kind for ev in res.recoveries] == ["shrink", "grow"]
        shrink, grow = res.recoveries
        assert (shrink.old_world_size, shrink.new_world_size) == (4, 3)
        assert (grow.old_world_size, grow.new_world_size) == (3, 4)
        assert grow.failed_rank == -1  # nobody failed: ranks arrived
        assert grow.reshard_bytes > 0  # 3-wide shards re-split 4 ways
        assert res.world_sizes == [4] * 3 + [3] * 3 + [4] * 6
        np.testing.assert_allclose(res.losses, base.losses, rtol=1e-4, atol=1e-6)

    def test_grow_capped_by_max_world_size(self, tmp_path):
        plan = FailurePlan.kill(1, 4).rejoin(7, count=3)
        res = run_elastic(
            tmp_path, 4, plan, sub="elastic", max_world_size=4
        )
        base = run_elastic(tmp_path, 4, None, sub="baseline")
        grow = res.recoveries[-1]
        assert grow.kind == "grow"
        assert grow.new_world_size == 4  # 3 + 3 arrivals, capped at 4
        np.testing.assert_allclose(res.losses, base.losses, rtol=1e-4, atol=1e-6)

    def test_banked_arrival_is_labelled_spare(self, tmp_path):
        """A returning rank the pool banks restarts the world at the same
        size: an arrival (``failed_rank == -1``) of kind ``"spare"``."""
        plan = FailurePlan.kill(1, 4).rejoin(7)
        res = run_elastic(tmp_path, 4, plan, sub="elastic", policy=SparePool(1))
        assert [ev.kind for ev in res.recoveries] == ["spare", "spare"]
        arrival = res.recoveries[1]
        assert arrival.failed_rank == -1
        assert (arrival.old_world_size, arrival.new_world_size) == (4, 4)
        assert arrival.reshard_bytes == 0
        assert res.world_sizes == [4] * TOTAL

    def test_capped_arrival_is_labelled_spare(self, tmp_path):
        plan = FailurePlan().rejoin(7)
        res = run_elastic(tmp_path, 4, plan, sub="elastic", max_world_size=4)
        (ev,) = res.recoveries
        assert ev.kind == "spare" and ev.failed_rank == -1
        assert (ev.old_world_size, ev.new_world_size) == (4, 4)

    def test_capped_arrival_does_not_roll_back(self, tmp_path):
        """An arrival ``max_world_size`` caps leaves the world as it is: it
        must not abort it and replay the steps since the last checkpoint."""
        res = run_elastic(tmp_path, 4, FailurePlan().rejoin(7), sub="elastic",
                          max_world_size=4)
        base = run_elastic(tmp_path, 4, None, sub="baseline")
        assert res.attempts == 1
        (ev,) = res.recoveries
        assert ev.kind == "spare" and ev.steps_lost == 0 and ev.failed_step == 7
        assert res.total_steps_lost == 0
        assert [v.hex() for v in res.losses] == [v.hex() for v in base.losses]

    def test_banked_arrival_does_not_roll_back(self, tmp_path):
        """The pool banks the returning rank after a failure spent the
        spare: only the failure rebuilds the world."""
        plan = FailurePlan.kill(1, 4).rejoin(7)
        res = run_elastic(tmp_path, 4, plan, sub="elastic", policy=SparePool(1))
        assert res.attempts == 2
        failure, arrival = res.recoveries
        assert arrival.failed_rank == -1 and arrival.steps_lost == 0
        assert res.total_steps_lost == failure.steps_lost

    def test_rank_arrival_plan_algebra(self):
        plan = FailurePlan.kill(1, 3).rejoin(6, count=2)
        assert len(plan) == 2 and plan
        with pytest.raises(RankReturn) as exc:
            plan.check(0, 6)  # only rank 0 observes the arrival
        assert exc.value.step == 6 and exc.value.count == 2
        plan.check(1, 6)  # other ranks pass through
        left = plan.without_arrival(6)
        assert len(left) == 1
        left.check(0, 6)  # consumed
        with pytest.raises(ValueError):
            RankArrival(step=2, count=0)

    def test_spare_pool_swap_keeps_world_size(self, tmp_path):
        res = run_elastic(
            tmp_path, 4, FailurePlan.kill(1, 5), sub="elastic", policy=SparePool(1)
        )
        base = run_elastic(tmp_path, 4, None, sub="baseline")
        (ev,) = res.recoveries
        assert ev.kind == "spare"
        assert (ev.old_world_size, ev.new_world_size) == (4, 4)
        assert ev.reshard_bytes == 0  # same layout: restore, don't reshard
        assert res.world_sizes == [4] * TOTAL
        np.testing.assert_allclose(res.losses, base.losses, rtol=1e-4, atol=1e-6)

    def test_async_saves_survive_recovery(self, tmp_path):
        root = tmp_path / "ad"
        segment = fsdp_training_segment(
            TinyRegressor, batch_fn, make_config(), root,
            async_save=True, keep_last=3,
        )
        sup = ElasticSupervisor(segment, root, 4, timeout=60)
        res = sup.run(TOTAL, failure_plan=FailurePlan.kill(2, 7))
        base = run_elastic(tmp_path, 4, None, sub="baseline")
        assert [ev.kind for ev in res.recoveries] == ["shrink"]
        np.testing.assert_allclose(res.losses, base.losses, rtol=1e-4, atol=1e-6)

    def test_run_leaves_no_writer_thread_behind(self, tmp_path):
        """Each run closes its root's async writer, on return and on
        ElasticError alike: no ``ckpt-writer`` thread or registry entry
        survives ``run``."""
        def writer_threads():
            return {t for t in threading.enumerate() if t.name == "ckpt-writer"}

        def supervise(sub, plan, **kwargs):
            root = tmp_path / sub
            segment = fsdp_training_segment(
                TinyRegressor, batch_fn, make_config(), root, async_save=True
            )
            ElasticSupervisor(segment, root, 3, timeout=60, **kwargs).run(
                TOTAL, failure_plan=plan
            )

        before = writer_threads()
        supervise("ok", FailurePlan.kill(1, 7))
        with pytest.raises(ElasticError):
            supervise("gave-up", FailurePlan.kill(0, 4).then(0, 7), min_world_size=2)
        for sub in ("ok", "gave-up"):
            assert (tmp_path / sub).resolve() not in _WRITER_REGISTRY
        assert writer_threads() <= before

    def test_shard_batch_trajectory_matches_replicated(self, tmp_path):
        root = tmp_path / "sb"
        segment = fsdp_training_segment(
            TinyRegressor, batch_fn, make_config(), root, shard_batch=True
        )
        sup = ElasticSupervisor(segment, root, 4, timeout=60)
        res = sup.run(TOTAL, failure_plan=FailurePlan.kill(1, 5))
        base = run_elastic(tmp_path, 4, None, sub="baseline")
        assert res.world_sizes == [4] * 3 + [3] * 9
        np.testing.assert_allclose(res.losses, base.losses, rtol=1e-3, atol=1e-5)


class TestElasticError:
    def test_min_world_exit_carries_history(self, tmp_path):
        plan = FailurePlan.kill(0, 2).then(0, 4)
        with pytest.raises(ElasticError, match="min_world_size") as exc:
            run_elastic(tmp_path, 3, plan, sub="elastic", min_world_size=2)
        err = exc.value
        assert isinstance(err, SpmdError)  # old except clauses still catch it
        assert len(err.history) == 1  # the 3->2 shrink that *did* succeed
        assert err.history[0].kind == "shrink"
        assert err.history[0].new_world_size == 2

    def test_max_recoveries_exit_carries_history(self, tmp_path):
        plan = FailurePlan.kill(0, 2).then(0, 3)
        with pytest.raises(ElasticError, match="gave up") as exc:
            run_elastic(tmp_path, 4, plan, sub="elastic", max_recoveries=1)
        err = exc.value
        assert len(err.history) == 1
        assert (err.history[0].old_world_size, err.history[0].new_world_size) == (4, 3)

    def test_timeout_is_not_wrapped(self, tmp_path):
        """Driver-side timeouts identify no culprit: they re-raise as plain
        SpmdError (rank -1), never as a recovery exhaustion."""

        def hanging_segment(comm, start_step, resume_dir):
            if comm.rank == 0:
                import time

                time.sleep(3.0)
            comm.barrier()
            return []

        sup = ElasticSupervisor(hanging_segment, tmp_path / "hang", 2, timeout=0.5)
        with pytest.raises(SpmdError) as exc:
            sup.run(1)
        assert not isinstance(exc.value, ElasticError)
        assert exc.value.rank < 0
