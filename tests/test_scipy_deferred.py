"""scipy stays off the import path.

Only exact GELU (``scipy.special.erf``), hyperspectral synthesis
(``scipy.ndimage.gaussian_filter``) and bilinear regridding
(``scipy.interpolate.RegularGridInterpolator``) call scipy, and each imports
it on first use.  Importing any ``repro`` module loads numpy and nothing
heavier, and the planner, replay and comm-volume paths run with scipy
unavailable — so a §6.2 search does not pay scipy's ~0.6 s import.

The three scipy callers are pinned bitwise (sha256 of their output bytes),
so moving an import cannot move a value.  The digests were recorded on
x86-64 with NumPy 2.4 and SciPy 1.17; a library upgrade that changes a
kernel's last bit changes them too.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data import Grid, HyperspectralConfig, HyperspectralDataset, bilinear_regrid
from repro.tensor import Tensor, functional as F

SRC = str(Path(repro.__file__).resolve().parents[1])

BLOCKED = """
import pkgutil
import sys

sys.modules["scipy"] = None  # every scipy import now raises ImportError

from importlib import import_module

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    module = import_module(info.name)
    for name in getattr(module, "__all__", ()):
        getattr(module, name)  # lazily resolved exports too

from repro.obs import comm_volume_report
from repro.perf import (
    ModelConfig, ParallelPlan, Workload, frontier, named_model,
    search_configurations, simulated_overlaps,
)
from repro.perf.calibrate import measure_plan

machine = frontier()
model = named_model("7B")
ranked = search_configurations(
    model, 500, 64, machine, 256,
    overlaps=simulated_overlaps(machine, model, 500), prune_top_k=3,
)
assert ranked, "empty search"

small = ModelConfig("fence", dim=64, depth=2, heads=4, patch=4, image_hw=(16, 16))
work, plan = Workload(channels=16, batch=2), ParallelPlan("tp", tp=2, fsdp=1, dp=1)
assert measure_plan(small, work, plan, machine, eager=True).wire_matches_predicted()
assert comm_volume_report(small, work, plan, machine).wire_exact
print("ok")
"""

UNBLOCKED = """
import sys

import numpy as np

import repro.models
from repro.tensor import Tensor, functional as F

assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy at import"
F.gelu(Tensor(np.ones(3, dtype=np.float32)))
assert "scipy.special" in sys.modules
assert not [m for m in sys.modules if m.startswith(("scipy.ndimage", "scipy.interpolate"))]
print("ok")
"""


@pytest.mark.parametrize("code", [BLOCKED, UNBLOCKED], ids=["scipy_blocked", "import_then_gelu"])
def test_scipy_off_the_import_path(code):
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr[-3000:]


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("dtype, want_out, want_grad", [
    (np.float32, "658a10cab2d4d5f9", "5f60c6439ec63194"),
    (np.float64, "ec38a5b56bb8e646", "c064b1f8470368ba"),
])
def test_gelu_pinned(dtype, want_out, want_grad):
    rng = np.random.default_rng(0)
    x = Tensor((3 * rng.standard_normal((64, 48))).astype(dtype), requires_grad=True)
    out = F.gelu(x)
    (out * Tensor(rng.standard_normal(out.shape).astype(dtype))).sum().backward()
    assert out.dtype == x.grad.dtype == dtype
    assert (digest(out.data), digest(x.grad)) == (want_out, want_grad)


def test_hyperspectral_batch_pinned():
    ds = HyperspectralDataset(HyperspectralConfig(channels=16, height=24, width=24, n_images=4))
    batch = ds.batch([0, 3])
    assert batch.shape == (2, 16, 24, 24) and batch.dtype == np.float32
    assert digest(batch) == "f6a904cf46995936"


def test_bilinear_regrid_pinned():
    field = np.random.default_rng(1).standard_normal((2, 16, 32))
    out = bilinear_regrid(field, Grid(16, 32), Grid(12, 20))
    assert out.shape == (2, 12, 20) and out.dtype == np.float32
    assert digest(out) == "d059bd79d3141254"
