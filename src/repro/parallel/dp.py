"""Data parallelism: replicate the model, shard the batch, AllReduce grads.

The paper's hybrid setup (§3.4) applies DP as the outermost axis — "in DP,
compute scales with communication", which is why Hybrid D-CHAG applies it as
early as possible (§6.3).  A DP replica is a composition, not a wrapper:
:func:`~repro.dist.broadcast_parameters` once so every replica starts
identical, :func:`shard_batch` for the local slice, and
``Trainer(grad_hook=...)`` calling :func:`~repro.dist.average_gradients`
(under ``comm.phase_scope("dp_sync")`` when a virtual clock should see the
sync) after each backward.
"""

from __future__ import annotations

import numpy as np

from ..dist import Communicator, ProcessGroup

__all__ = ["shard_batch"]


def shard_batch(batch: np.ndarray, comm: Communicator, group: ProcessGroup | None = None) -> np.ndarray:
    """Return this rank's slice of the leading (batch) axis."""
    group = group if group is not None else comm.world.default_group
    n = group.size
    if batch.shape[0] % n != 0:
        raise ValueError(f"batch size {batch.shape[0]} not divisible by DP size {n}")
    step = batch.shape[0] // n
    idx = group.rank_index(comm.rank)
    return batch[idx * step : (idx + 1) * step]

