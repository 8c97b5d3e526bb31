"""Device mesh for hybrid parallelism (paper §3.4, Fig. 5).

The paper composes the axes: the D-CHAG/TP group (innermost — identical
groups by construction, §3.4), Ulysses sequence parallelism over the same
model segments (§3.5), FSDP across TP×SP groups, and DP outermost.  A
:class:`DeviceMesh` factors the world as ``world = dp × fsdp × sp × tp``
with TP fastest-varying, so that a TP group maps onto one node's GCDs (fast
Infinity Fabric links), SP sits just outside it, and DP crosses nodes
(Slingshot) — the locality §6.3 credits for Hybrid D-CHAG's scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dist import Communicator, ProcessGroup

__all__ = ["DeviceMesh", "ParallelContext"]


class ParallelContext:
    """One rank's view of the group a model-parallel rewrite
    (:func:`~repro.parallel.tensor_parallel`,
    :func:`~repro.parallel.sequence_parallel`) communicates over."""

    def __init__(self, comm: Communicator, group: ProcessGroup | None = None) -> None:
        self.comm = comm
        self.group = group if group is not None else comm.world.default_group
        self.size = self.group.size
        self.index = self.group.rank_index(comm.rank)

    def shard(self, n: int) -> slice:
        """This rank's contiguous slice of an axis of size *n*."""
        if n % self.size != 0:
            raise ValueError(f"axis size {n} not divisible by group size {self.size}")
        step = n // self.size
        return slice(self.index * step, (self.index + 1) * step)


@dataclass(frozen=True)
class MeshCoords:
    dp: int
    fsdp: int
    sp: int
    tp: int


class DeviceMesh:
    """Factor the world into (dp, fsdp, sp, tp) process groups.

    Rank layout: ``rank = ((dp_idx * fsdp + fsdp_idx) * sp + sp_idx) * tp
    + tp_idx`` — TP contiguous (intra-node), then SP, then FSDP, then DP.
    """

    def __init__(
        self,
        comm: Communicator,
        tp: int = 1,
        fsdp: int = 1,
        dp: int | None = None,
        sp: int = 1,
    ) -> None:
        world = comm.size
        if dp is None:
            if world % (tp * sp * fsdp) != 0:
                raise ValueError(
                    f"world {world} not divisible by tp*sp*fsdp={tp * sp * fsdp}"
                )
            dp = world // (tp * sp * fsdp)
        if dp * fsdp * sp * tp != world:
            raise ValueError(
                f"dp*fsdp*sp*tp = {dp * fsdp * sp * tp} != world size {world}"
            )
        self.comm = comm
        self.tp_size, self.sp_size, self.fsdp_size, self.dp_size = tp, sp, fsdp, dp
        r = comm.rank
        self.coords = MeshCoords(
            dp=r // (fsdp * sp * tp),
            fsdp=(r // (sp * tp)) % fsdp,
            sp=(r // tp) % sp,
            tp=r % tp,
        )

        c = self.coords
        self.tp_group: ProcessGroup = comm.group(
            [((c.dp * fsdp + c.fsdp) * sp + c.sp) * tp + t for t in range(tp)]
        )
        self.sp_group: ProcessGroup = comm.group(
            [((c.dp * fsdp + c.fsdp) * sp + s) * tp + c.tp for s in range(sp)]
        )
        self.fsdp_group: ProcessGroup = comm.group(
            [((c.dp * fsdp + f) * sp + c.sp) * tp + c.tp for f in range(fsdp)]
        )
        self.dp_group: ProcessGroup = comm.group(
            [((d * fsdp + c.fsdp) * sp + c.sp) * tp + c.tp for d in range(dp)]
        )
        # D-CHAG shares the TP group by construction (§3.4).
        self.dchag_group = self.tp_group

    def describe(self) -> str:
        return (
            f"DeviceMesh(world={self.comm.size}, dp={self.dp_size}, "
            f"fsdp={self.fsdp_size}, sp={self.sp_size}, tp={self.tp_size}, "
            f"rank={self.comm.rank}, coords={self.coords})"
        )
