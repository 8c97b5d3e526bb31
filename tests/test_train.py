"""Tests for the training harness (scheduler, trainer, metrics)."""

import numpy as np
import pytest

from repro.data import EVAL_CHANNELS
from repro.nn import Linear, Module, load_checkpoint, save_checkpoint
from repro.tensor import Tensor, functional as F
from repro.train import (
    TrainConfig,
    Trainer,
    cosine_warmup,
    eval_channel_rmse,
    lat_weighted_rmse,
    masked_reconstruction_rmse,
)


class TestSchedule:
    def test_warmup_ramps_linearly(self):
        lrs = [cosine_warmup(s, 100, 1.0, warmup_steps=10) for s in range(10)]
        np.testing.assert_allclose(lrs, np.arange(1, 11) / 10)

    def test_cosine_decays_to_min(self):
        assert cosine_warmup(100, 100, 1.0, warmup_steps=0, min_lr=0.1) == pytest.approx(0.1)

    def test_peak_after_warmup(self):
        assert cosine_warmup(10, 1000, 1.0, warmup_steps=10) == pytest.approx(1.0, rel=1e-3)

    def test_monotone_decay_after_warmup(self):
        lrs = [cosine_warmup(s, 50, 1.0, warmup_steps=5) for s in range(5, 50)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            cosine_warmup(0, 0, 1.0)


class _Quadratic(Module):
    def __init__(self):
        super().__init__()
        self.lin = Linear(4, 1, np.random.default_rng(0))

    def loss(self, x, y):
        pred = self.lin(Tensor(x))
        return F.mse_loss(pred, Tensor(y))


class TestTrainer:
    def test_records_history(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 4)).astype(np.float32)
        y = (x @ np.array([[1.0], [2.0], [-1.0], [0.5]])).astype(np.float32)
        model = _Quadratic()
        tr = Trainer(model, TrainConfig(lr=5e-2, total_steps=40, warmup_steps=2))
        for _ in range(40):
            tr.step(x, y)
        res = tr.result
        assert len(res.losses) == len(res.lrs) == len(res.grad_norms) == 40
        assert res.final_loss < res.losses[0] * 0.5

    def test_grad_hook_called(self):
        calls = []
        model = _Quadratic()
        tr = Trainer(model, TrainConfig(total_steps=3), grad_hook=lambda: calls.append(1))
        x = np.zeros((2, 4), dtype=np.float32)
        y = np.zeros((2, 1), dtype=np.float32)
        tr.step(x, y)
        tr.step(x, y)
        assert len(calls) == 2

    def test_smoothed_loss(self):
        model = _Quadratic()
        tr = Trainer(model, TrainConfig(total_steps=5))
        tr.result.losses = [5.0, 3.0, 1.0, 1.0, 1.0]
        sm = tr.result.smoothed(window=3)
        np.testing.assert_allclose(sm, [3.0, 5.0 / 3, 1.0])

    def test_checkpoint_cadence_fires_on_step_multiples(self):
        fired = []
        model = _Quadratic()
        tr = Trainer(
            model,
            TrainConfig(total_steps=10, checkpoint_every=3),
            checkpoint_hook=fired.append,
        )
        x = np.zeros((2, 4), dtype=np.float32)
        y = np.zeros((2, 1), dtype=np.float32)
        for _ in range(10):
            tr.step(x, y)
        assert fired == [3, 6, 9]

    def test_pre_step_hook_sees_step_indices(self):
        seen = []
        model = _Quadratic()
        tr = Trainer(model, TrainConfig(total_steps=4), pre_step_hook=seen.append)
        x = np.zeros((2, 4), dtype=np.float32)
        y = np.zeros((2, 1), dtype=np.float32)
        for _ in range(3):
            tr.step(x, y)
        assert seen == [0, 1, 2]

    def test_resume_continues_schedule_and_cadence(self):
        """A trainer resumed at start_step=s uses step s's LR and keeps the
        absolute checkpoint cadence (fires at multiples of the step index,
        not of the steps run since resume)."""
        x = np.random.default_rng(1).standard_normal((8, 4)).astype(np.float32)
        y = np.zeros((8, 1), dtype=np.float32)
        cfg = TrainConfig(lr=1e-2, total_steps=20, warmup_steps=4, checkpoint_every=4)

        full = Trainer(_Quadratic(), cfg)
        for _ in range(8):
            full.step(x, y)

        fired = []
        resumed = Trainer(_Quadratic(), cfg, start_step=6, checkpoint_hook=fired.append)
        assert resumed.step_index == 6
        resumed.step(x, y)
        resumed.step(x, y)
        assert fired == [8]
        # Step 6 and 7 of the resumed run use the same schedule LRs.
        np.testing.assert_allclose(resumed.result.lrs, full.result.lrs[6:8])

    def test_negative_start_step_rejected(self):
        with pytest.raises(ValueError):
            Trainer(_Quadratic(), TrainConfig(), start_step=-1)

    def test_fit_unpacks_list_batches_like_tuples(self):
        """Regression: loaders yielding [x, y] lists used to reach
        model.loss as a single positional argument and crash."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4)).astype(np.float32)
        y = rng.standard_normal((4, 1)).astype(np.float32)
        as_tuples = Trainer(_Quadratic(), TrainConfig(total_steps=3))
        as_lists = Trainer(_Quadratic(), TrainConfig(total_steps=3))
        as_tuples.fit([(x, y)] * 3)
        as_lists.fit([[x, y]] * 3)
        np.testing.assert_allclose(as_lists.result.losses, as_tuples.result.losses)

    def test_fit_passes_bare_array_batches_whole(self):
        """Non-sequence batches still arrive as one argument."""
        seen = []

        class _OneArg(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(4, 1, np.random.default_rng(0))

            def loss(self, x):
                seen.append(x.shape)
                return F.mse_loss(self.lin(Tensor(x)), Tensor(np.zeros((2, 1), np.float32)))

        tr = Trainer(_OneArg(), TrainConfig(total_steps=2))
        tr.fit([np.zeros((2, 4), np.float32)] * 2)
        assert seen == [(2, 4), (2, 4)]

    @pytest.mark.parametrize("via", ["load_state_dict", "load_checkpoint"])
    def test_load_under_a_trainer_steps_from_the_loaded_values(self, via, tmp_path):
        """Loading into a model whose optimizer already exists must move the
        values the optimizer trains, not detach them from it."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 4)).astype(np.float32)
        y = rng.standard_normal((8, 1)).astype(np.float32)
        loaded = {k: v + 0.5 for k, v in _Quadratic().state_dict().items()}
        config = TrainConfig(lr=1e-2, total_steps=2, warmup_steps=0)

        model = _Quadratic()
        tr = Trainer(model, config)
        if via == "load_state_dict":
            model.load_state_dict(loaded)
        else:
            source = _Quadratic()
            source.load_state_dict(loaded)
            load_checkpoint(model, save_checkpoint(source, tmp_path / "m"), strict=False)
        tr.step(x, y)

        reference = _Quadratic()
        reference.load_state_dict(loaded)
        Trainer(reference, config).step(x, y)
        for (name, got), want in zip(model.state_dict().items(), reference.state_dict().values()):
            assert np.array_equal(got, want), name
            assert not np.array_equal(got, loaded[name]), name

    def test_rebinding_a_parameter_off_its_optimizer_raises(self):
        model = _Quadratic()
        tr = Trainer(model, TrainConfig(total_steps=2))
        model.lin.weight.data = model.lin.weight.data.copy()
        with pytest.raises(RuntimeError, match="rebound"):
            tr.step(np.zeros((2, 4), np.float32), np.zeros((2, 1), np.float32))

    def test_grad_norms_recorded_without_clipping(self):
        """Regression: grad_clip=0 used to record norm 0.0 instead of the
        true gradient norm — and must not scale any gradient."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 4)).astype(np.float32)
        y = rng.standard_normal((8, 1)).astype(np.float32)

        unclipped = Trainer(_Quadratic(), TrainConfig(lr=0.0, grad_clip=0.0, total_steps=2))
        reference = Trainer(_Quadratic(), TrainConfig(lr=0.0, grad_clip=1e9, total_steps=2))
        unclipped.step(x, y)
        reference.step(x, y)
        # Same model/data: the recorded norm equals the (never-exceeded)
        # clip path's pre-clip norm, and it is a real nonzero magnitude.
        assert unclipped.result.grad_norms[0] == reference.result.grad_norms[0]
        assert unclipped.result.grad_norms[0] > 0.0
        # With lr=0 the step leaves params alone, so gradients themselves
        # must also be untouched by the norm computation.
        for p_u, p_r in zip(unclipped.params, reference.params):
            np.testing.assert_array_equal(p_u.grad, p_r.grad)


class TestMetrics:
    def test_lat_weighted_rmse_zero_when_equal(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 16))
        assert lat_weighted_rmse(x, x) == 0.0

    def test_constant_error_gives_that_rmse(self):
        x = np.zeros((1, 2, 8, 16))
        assert lat_weighted_rmse(x, x + 2.0) == pytest.approx(2.0, rel=1e-6)

    def test_equator_errors_weigh_more(self):
        pred = np.zeros((1, 1, 8, 16))
        pole = pred.copy()
        pole[0, 0, 0, :] = 1.0  # error at the pole row
        equator = pred.copy()
        equator[0, 0, 4, :] = 1.0  # error near the equator
        target = np.zeros_like(pred)
        assert lat_weighted_rmse(equator, target) > lat_weighted_rmse(pole, target)

    def test_channel_selection(self):
        pred = np.zeros((1, 80, 4, 8))
        target = np.zeros_like(pred)
        target[0, EVAL_CHANNELS["z500"]] = 1.0
        per = eval_channel_rmse(pred, target)
        assert per["z500"] == pytest.approx(1.0, rel=1e-6)
        assert per["t850"] == 0.0 and per["u10"] == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            lat_weighted_rmse(np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 4, 5)))

    def test_masked_reconstruction_rmse(self):
        pred = np.zeros((1, 4, 6))
        target = np.ones((1, 4, 6))
        mask = np.array([1.0, 0.0, 1.0, 0.0])
        assert masked_reconstruction_rmse(pred, target, mask) == pytest.approx(1.0)
