"""Checkpointing: save/load a module's state dict as a compressed ``.npz``.

Checkpoints are architecture-agnostic (plain name → array maps), so a model
trained with D-CHAG can be re-assembled serially and vice versa as long as
the parameter names line up — the property the paper uses when it compares
distributed runs against the single-GPU baseline.

Both ends share one path convention: :func:`save_checkpoint` appends ``.npz``
to paths that lack it (``model.ckpt`` → ``model.ckpt.npz``) and
:func:`load_checkpoint` applies the same derivation, so the path a caller
passed to save round-trips through load unchanged.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .module import Module

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_equal",
    "resolve_checkpoint_path",
]


def resolve_checkpoint_path(path: str | Path, for_load: bool = False) -> Path:
    """The on-disk ``.npz`` path for *path* (shared by save and load).

    ``model.ckpt`` → ``model.ckpt.npz``; paths already ending in ``.npz``
    pass through.  For loads, an exact existing path wins even without the
    suffix, so checkpoints produced by other tools still open.
    """
    path = Path(path)
    if path.suffix == ".npz":
        return path
    if for_load and path.exists():
        return path
    return path.with_suffix(path.suffix + ".npz")


def save_checkpoint(module: Module, path: str | Path) -> Path:
    """Write ``module.state_dict()`` to *path* (``.npz``, compressed).

    Returns the actual path written (suffix-derived), which
    :func:`load_checkpoint` also derives — callers may round-trip either
    the argument or the return value.
    """
    path = resolve_checkpoint_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **module.state_dict())
    return path


def load_checkpoint(module: Module, path: str | Path, strict: bool = True) -> list[str]:
    """Load a checkpoint into *module*.

    Accepts the same path that was passed to :func:`save_checkpoint` (with or
    without the derived ``.npz`` suffix).  With ``strict=False``, parameters
    missing from the file keep their current values and unexpected file
    entries are ignored; the list of skipped names is returned (empty under
    ``strict=True`` success).
    """
    path = resolve_checkpoint_path(path, for_load=True)
    with np.load(path) as data:
        state = {k: data[k] for k in data.files}
    if strict:
        module.load_state_dict(state)
        return []
    own = dict(module.named_parameters())
    module.load_state_dict({name: state.get(name, p.data) for name, p in own.items()})
    return sorted(set(state) ^ set(own))


def checkpoint_equal(a: Module, b: Module, rtol: float = 0.0, atol: float = 0.0) -> bool:
    """Whether two modules hold identical (or allclose) parameters."""
    sa, sb = a.state_dict(), b.state_dict()
    if sa.keys() != sb.keys():
        return False
    for k in sa:
        if rtol == 0.0 and atol == 0.0:
            if not np.array_equal(sa[k], sb[k]):
                return False
        elif not np.allclose(sa[k], sb[k], rtol=rtol, atol=atol):
            return False
    return True
