"""Data parallelism: replicate the model, shard the batch, AllReduce grads.

The paper's hybrid setup (§3.4) applies DP as the outermost axis — "in DP,
compute scales with communication", which is why Hybrid D-CHAG applies it as
early as possible (§6.3).
"""

from __future__ import annotations

import numpy as np

from ..dist import Communicator, ProcessGroup, average_gradients, broadcast_parameters
from ..nn import Module
from ..tensor import Tensor

__all__ = ["DataParallel", "shard_batch"]


def shard_batch(batch: np.ndarray, comm: Communicator, group: ProcessGroup | None = None) -> np.ndarray:
    """Return this rank's slice of the leading (batch) axis."""
    group = group if group is not None else comm.world.default_group
    n = group.size
    if batch.shape[0] % n != 0:
        raise ValueError(f"batch size {batch.shape[0]} not divisible by DP size {n}")
    step = batch.shape[0] // n
    idx = group.rank_index(comm.rank)
    return batch[idx * step : (idx + 1) * step]


class DataParallel(Module):
    """DDP-style wrapper: broadcast at init, ``sync_gradients`` after backward.

    Compute-cost hooks: under a virtual clock (``run_spmd(...,
    clock=VirtualClock(machine))``), ``forward_seconds``/``backward_seconds``
    charge the replica's per-step compute onto the rank timeline — forward
    after the wrapped module runs, backward just before the gradient sync —
    and the sync's AllReduce is stamped ``phase="dp_sync"``.  That is the
    exact shape :func:`repro.perf.overlap.derive_overlaps` needs to derive
    the DP overlap fraction (how much of the gradient AllReduce a bucketed
    implementation hides under backward).  Both hooks are no-ops without a
    clock.

    ``grad_buckets > 1`` runs the **bucketed-DDP** schedule: parameters are
    split into that many contiguous buckets and each bucket's AllReduce is
    issued right after the slice of backward compute that produced its
    gradients.  Under an issue-queue clock (``VirtualClock(...,
    eager_phases={"dp_sync"})``) every bucket but the last then overlaps
    the remaining backward compute, which is exactly how real DDP hides its
    gradient traffic; the derived exposure is per bucket
    (:func:`repro.perf.overlap.derive_bucket_exposures`).  Wire accounting
    is unchanged — bucketing reorders time, not bytes.
    """

    def __init__(
        self,
        comm: Communicator,
        group: ProcessGroup | None,
        module: Module,
        sync_init: bool = True,
        forward_seconds: float = 0.0,
        backward_seconds: float = 0.0,
        grad_buckets: int = 1,
    ) -> None:
        super().__init__()
        group = group if group is not None else comm.world.default_group
        if grad_buckets < 1:
            raise ValueError(f"grad_buckets must be >= 1, got {grad_buckets}")
        self.comm = comm
        self.group = group
        self.module = module
        self.forward_seconds = float(forward_seconds)
        self.backward_seconds = float(backward_seconds)
        self.grad_buckets = int(grad_buckets)
        if sync_init and group.size > 1:
            broadcast_parameters(comm, module.parameters(), root=group.ranks[0], group=group)

    def forward(self, *args, **kwargs):
        out = self.module(*args, **kwargs)
        if self.forward_seconds:
            self.comm.charge_compute(self.forward_seconds, phase="forward")
        return out

    def sync_gradients(self) -> None:
        """AllReduce (mean) every parameter gradient across the DP group."""
        params = self.module.parameters()
        buckets = min(self.grad_buckets, max(1, len(params)))
        if buckets <= 1 or self.group.size <= 1:
            if self.backward_seconds:
                self.comm.charge_compute(self.backward_seconds, phase="backward")
            if self.group.size > 1:
                with self.comm.phase_scope("dp_sync"):
                    average_gradients(self.comm, params, group=self.group)
            return
        step = -(-len(params) // buckets)
        chunks = [params[lo : lo + step] for lo in range(0, len(params), step)]
        per = self.backward_seconds / len(chunks)
        for chunk in chunks:
            # The bucket's gradients exist only after its share of backward
            # compute — charge first, then issue (eagerly, under an
            # issue-queue clock) so later slices can hide earlier buckets.
            if per:
                self.comm.charge_compute(per, phase="backward")
            with self.comm.phase_scope("dp_sync"):
                average_gradients(self.comm, chunk, group=self.group)

    def parameters(self) -> list[Tensor]:  # type: ignore[override]
        return self.module.parameters()
