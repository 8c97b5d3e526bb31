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


def _layout(
    rank: int, tp: int, sp: int, fsdp: int, dp: int
) -> tuple[MeshCoords, dict[str, tuple[int, ...]]]:
    """*rank*'s mesh coordinates and the world ranks of its tp, sp, fsdp
    and dp groups: ``rank = ((dp_idx * fsdp + fsdp_idx) * sp + sp_idx) * tp
    + tp_idx`` — TP contiguous (intra-node), then SP, then FSDP, then DP.

    The one statement of the rank layout: :class:`DeviceMesh` builds its
    groups from it, and ``repro.perf.calibrate._write_step`` writes
    ``measure_plan``'s step schedules with it, without a world.
    """
    c = MeshCoords(
        dp=rank // (fsdp * sp * tp),
        fsdp=(rank // (sp * tp)) % fsdp,
        sp=(rank // tp) % sp,
        tp=rank % tp,
    )

    def at(d: int = c.dp, f: int = c.fsdp, s: int = c.sp, t: int = c.tp) -> int:
        return ((d * fsdp + f) * sp + s) * tp + t

    return c, {
        "tp": tuple(at(t=t) for t in range(tp)),
        "sp": tuple(at(s=s) for s in range(sp)),
        "fsdp": tuple(at(f=f) for f in range(fsdp)),
        "dp": tuple(at(d=d) for d in range(dp)),
    }


class DeviceMesh:
    """Factor the world into (dp, fsdp, sp, tp) process groups, TP
    innermost (the rank layout is stated once, in :func:`_layout`)."""

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
        self.coords, groups = _layout(comm.rank, tp, sp, fsdp, dp)
        self.tp_group: ProcessGroup = comm.group(groups["tp"])
        self.sp_group: ProcessGroup = comm.group(groups["sp"])
        self.fsdp_group: ProcessGroup = comm.group(groups["fsdp"])
        self.dp_group: ProcessGroup = comm.group(groups["dp"])
        # D-CHAG shares the TP group by construction (§3.4).
        self.dchag_group = self.tp_group

    def describe(self) -> str:
        return (
            f"DeviceMesh(world={self.comm.size}, dp={self.dp_size}, "
            f"fsdp={self.fsdp_size}, sp={self.sp_size}, tp={self.tp_size}, "
            f"rank={self.comm.rank}, coords={self.coords})"
        )
