"""Tests for user-facing tooling: ACC metric, CLI, and the hierarchical Swin
additions."""

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.data import SyntheticERA5, ERA5Config
from repro.nn.swin import HierarchicalSwinEncoder, PatchMerging
from repro.tensor import Tensor
from repro.train import anomaly_correlation

RNG = np.random.default_rng(91)


class TestAnomalyCorrelation:
    def _fields(self):
        clim = RNG.standard_normal((1, 2, 8, 16))
        truth = clim + RNG.standard_normal((4, 2, 8, 16))
        return clim, truth

    def test_perfect_forecast_is_one(self):
        clim, truth = self._fields()
        assert anomaly_correlation(truth, truth, clim) == pytest.approx(1.0)

    def test_climatology_forecast_is_zero_skill(self):
        clim, truth = self._fields()
        pred = np.broadcast_to(clim, truth.shape)
        with pytest.raises(ValueError):
            anomaly_correlation(pred, truth, clim)  # zero-variance anomalies

    def test_anticorrelated_is_negative(self):
        clim, truth = self._fields()
        pred = 2 * np.broadcast_to(clim, truth.shape) - truth  # mirrored anomaly
        assert anomaly_correlation(pred, truth, clim) == pytest.approx(-1.0)

    def test_bounded(self):
        clim, truth = self._fields()
        pred = truth + RNG.standard_normal(truth.shape)
        acc = anomaly_correlation(pred, truth, clim)
        assert -1.0 <= acc <= 1.0
        assert acc > 0.3  # correlated forecast keeps skill

    def test_channel_selection(self):
        clim, truth = self._fields()
        pred = truth.copy()
        pred[:, 1] = np.broadcast_to(clim[:, 1], pred[:, 1].shape) - (
            truth[:, 1] - clim[:, 1]
        )
        assert anomaly_correlation(pred, truth, clim, channel=0) == pytest.approx(1.0)
        assert anomaly_correlation(pred, truth, clim, channel=1) == pytest.approx(-1.0)

    def test_on_synthetic_era5_persistence(self):
        """Persistence forecasting has positive ACC on correlated dynamics."""
        era = SyntheticERA5(ERA5Config(n_steps=10, seed=2))
        clim = era.fields.mean(axis=0, keepdims=True)
        pred = era.fields[0:4]     # persistence: predict t+1 with t
        truth = era.fields[1:5]
        assert anomaly_correlation(pred, truth, clim) > 0.5


class TestHierarchicalSwin:
    def test_merging_halves_grid_doubles_dim(self):
        pm = PatchMerging(16, RNG)
        x = Tensor(RNG.standard_normal((2, 64, 16)).astype(np.float32))
        out, grid = pm(x, (8, 8))
        assert out.shape == (2, 16, 32) and grid == (4, 4)

    def test_merging_rejects_odd_grid(self):
        pm = PatchMerging(16, RNG)
        with pytest.raises(ValueError):
            pm(Tensor(np.zeros((1, 15, 16), dtype=np.float32)), (3, 5))

    def test_two_stage_encoder(self):
        enc = HierarchicalSwinEncoder(16, (2, 2), 4, grid=(8, 8), window=4, rng=RNG)
        x = Tensor(RNG.standard_normal((2, 64, 16)).astype(np.float32), requires_grad=True)
        out = enc(x)
        assert out.shape == (2, 16, 32)
        assert enc.out_dim == 32 and enc.out_grid == (4, 4)
        out.sum().backward()
        assert x.grad is not None

    def test_stage_grid_must_divide_window(self):
        with pytest.raises(ValueError):
            # second stage grid would be 2x2 < window 4 after merging... the
            # 4x4 first-stage grid divides, 2x2 does not.
            HierarchicalSwinEncoder(16, (1, 1, 1), 4, grid=(8, 8), window=4, rng=RNG)


class TestCLI:
    def test_plan_command(self, capsys):
        assert cli_main(["plan", "--model", "1.7B", "--channels", "512", "--tp", "2"]) == 0
        out = capsys.readouterr().out
        assert "recommended: D-CHAG-L" in out
        assert "TFLOP/s/GPU" in out

