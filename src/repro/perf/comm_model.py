"""α–β communication cost model over the Frontier topology.

Collective time = latency·steps + moved-bytes / bottleneck-bandwidth, with
ring algorithms (what RCCL runs).  A group whose ranks all live inside one
node rides Infinity Fabric (50 GB/s); a group spanning nodes is limited by
the per-GPU share of the node's Slingshot injection bandwidth (§4.1).

All pricing delegates to the shared :class:`~repro.perf.cost.CostModel` —
the same core the runtime's :class:`~repro.perf.clock.VirtualClock` uses, so
analytic predictions and measured (simulated) runs can be cross-checked
byte-for-byte (``perf/calibrate.py``).

:func:`step_comm_schedule` is the single source of the per-step collective
schedule: :func:`estimate_step_comm` prices it analytically, and
:func:`~repro.perf.calibrate.measure_plan` replays the identical events
through real :func:`~repro.dist.run_spmd` worlds on
:class:`~repro.parallel.DeviceMesh` groups.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .cost import CostModel
from .machine import MachineSpec
from .modelcfg import ModelConfig, transformer_param_count
from .plan import ParallelPlan, Precision, Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .overlap import DerivedOverlaps

__all__ = [
    "CommEvent",
    "step_comm_schedule",
    "axis_group_sizes",
    "axis_intra_node",
    "CommBreakdown",
    "estimate_step_comm",
]

#: Default hidden fractions when no derived overlaps are supplied — the
#: paper-era assumptions.  Derive real ones with a virtual-clock run and
#: :func:`repro.perf.overlap.derive_overlaps`, then pass ``overlaps=``.
DEFAULT_DP_OVERLAP = 0.8
DEFAULT_FSDP_OVERLAP = 0.5


@dataclass(frozen=True)
class CommEvent:
    """One collective in a training step's schedule.

    ``axis`` names the parallel axis whose process group carries the event
    (``"tp"``, ``"gather"`` — the channel-stage gather, rides the TP group —
    ``"sp"`` / ``"sp_gather"`` / ``"sp_scatter"`` — the Ulysses all-to-alls
    and the sequence-boundary gathers, all on the SP group — ``"fsdp"`` or
    ``"dp"``); ``count`` is the per-step multiplicity.
    """

    axis: str
    op: str
    payload_bytes: int
    count: int = 1


def step_comm_schedule(
    model: ModelConfig,
    workload: Workload,
    plan: ParallelPlan,
    precision: Precision = Precision(),
) -> list[CommEvent]:
    """Every collective one training step issues, with exact payload bytes.

    The analytic pricer and the measured replay (``perf/calibrate.py``)
    consume this same list, which is what makes their wire-byte accounting
    comparable at all.
    """
    D = model.dim
    N = model.tokens
    C = workload.channels
    B = workload.batch
    ab = precision.act_bytes
    tp, sp, fsdp, dp = plan.tp, plan.sp, plan.fsdp, plan.dp

    events: list[CommEvent] = []

    # ---- TP: 2 AllReduce fwd + 2 bwd per block, each B·N·D activations,
    # plus the channel-aggregation module's own TP collectives (2 fwd + 2 bwd).
    if tp > 1:
        act_bytes = int(B * N * D * ab)
        events.append(CommEvent("tp", "all_reduce", act_bytes, 4 * model.depth + 4))

    # ---- SP: the Ulysses schedule.  Each block's attention flips the
    # sharded axis with all-to-alls over q/k/v (tokens→heads) and the
    # attention output (heads→tokens): 4 forward + 4 mirrored backward per
    # block, each moving this rank's B·(N/sp)·D activation shard — the
    # O(N/sp) per-link traffic that beats TP's O(N) ring collectives at
    # long sequence.  The boundary ops are the scatter/gather pair: the
    # scatter's backward re-assembles the full gradient with one AllGather
    # and the gather's forward re-assembles the full sequence with another.
    if sp > 1:
        if N % sp != 0:
            raise ValueError(f"sequence length {N} not divisible by sp={sp}")
        shard_bytes = int(B * (N // sp) * D * ab)
        events.append(CommEvent("sp", "all_to_all", shard_bytes, 8 * model.depth))
        events.append(CommEvent("sp_gather", "all_gather", shard_bytes))
        events.append(CommEvent("sp_scatter", "all_gather", shard_bytes))

    # ---- channel-stage gather ------------------------------------------
    if plan.strategy == "dist_tok" and tp > 1:
        shard = int(B * (C // tp) * N * D * ab)
        events.append(CommEvent("gather", "all_gather", shard))
        # backward pays the ReduceScatter of the full gradient
        events.append(CommEvent("gather", "reduce_scatter", shard * tp))
    elif plan.strategy == "dchag" and tp > 1:
        one_channel = int(B * 1 * N * D * ab)
        events.append(CommEvent("gather", "all_gather", one_channel))
        # no backward collective (the paper's headline property)

    # ---- FSDP: AllGather params fwd + bwd, ReduceScatter grads ----------
    if fsdp > 1:
        params = transformer_param_count(model) / tp
        shard_bytes = int(params * precision.param_bytes / fsdp)
        events.append(CommEvent("fsdp", "all_gather", shard_bytes, 2))
        events.append(
            CommEvent("fsdp", "reduce_scatter", int(params * precision.grad_bytes))
        )

    # ---- DP: one gradient AllReduce per step -----------------------------
    if dp > 1:
        grad_bytes = int(
            (transformer_param_count(model) / tp / fsdp) * precision.grad_bytes
        )
        events.append(CommEvent("dp", "all_reduce", grad_bytes))

    return events


def axis_group_sizes(plan: ParallelPlan) -> dict[str, int]:
    """Process-group size carrying each schedule axis."""
    return {
        "tp": plan.tp,
        "gather": plan.tp,
        "sp": plan.sp,
        "sp_gather": plan.sp,
        "sp_scatter": plan.sp,
        "fsdp": plan.fsdp,
        "dp": plan.dp,
    }


def axis_intra_node(plan: ParallelPlan, machine: MachineSpec) -> dict[str, bool]:
    """Placement per axis: a replica occupies tp·sp·fsdp consecutive GPUs
    (TP innermost, then SP, then FSDP), so SP crosses nodes once tp·sp
    exceeds a node, FSDP once tp·sp·fsdp does; DP is outermost (almost
    always cross-node).  Matches the TP-innermost
    :class:`~repro.parallel.DeviceMesh` rank layout."""
    tp, sp, fsdp, dp = plan.tp, plan.sp, plan.fsdp, plan.dp
    g = machine.gpus_per_node
    tp_intra = tp <= g
    sp_intra = tp * sp <= g
    return {
        "tp": tp_intra,
        "gather": tp_intra,
        "sp": sp_intra,
        "sp_gather": sp_intra,
        "sp_scatter": sp_intra,
        "fsdp": tp * sp * fsdp <= g,
        "dp": tp * sp * fsdp * dp <= g,
    }


@dataclass(frozen=True)
class CommBreakdown:
    """Per-step communication seconds (and per-rank wire bytes) by axis.

    The ``*_time`` fields are **exposed** seconds — the FSDP and DP entries
    already discounted by their overlap fractions; the ``*_wire`` fields are
    raw per-rank ring wire bytes (overlap hides time, not bytes).
    """

    tp_time: float
    gather_time: float      # channel-stage gather (dist_tok / dchag)
    fsdp_time: float
    dp_time: float
    tp_wire: int = 0
    gather_wire: int = 0
    fsdp_wire: int = 0
    dp_wire: int = 0
    sp_time: float = 0.0    # Ulysses a2a + boundary gathers, critical path
    sp_wire: int = 0
    sp_gather_wire: int = 0
    sp_scatter_wire: int = 0

    @property
    def total(self) -> float:
        return (
            self.tp_time + self.gather_time + self.sp_time
            + self.fsdp_time + self.dp_time
        )

    @property
    def total_wire(self) -> int:
        return (
            self.tp_wire + self.gather_wire + self.sp_wire
            + self.sp_gather_wire + self.sp_scatter_wire
            + self.fsdp_wire + self.dp_wire
        )

    def wire_by_axis(self) -> dict[str, int]:
        return {
            "tp": self.tp_wire,
            "gather": self.gather_wire,
            "sp": self.sp_wire,
            "sp_gather": self.sp_gather_wire,
            "sp_scatter": self.sp_scatter_wire,
            "fsdp": self.fsdp_wire,
            "dp": self.dp_wire,
        }


def _price_comm(
    schedule: list[CommEvent], plan: ParallelPlan, machine: MachineSpec
) -> CommBreakdown:
    """*schedule* priced with nothing hidden: every axis's full α–β seconds
    and its per-rank wire bytes (the breakdown at dp/fsdp overlap 0).

    :func:`_expose` applies the hidden fractions afterwards, so one priced
    schedule serves any number of overlap pairs.
    """
    cost = CostModel(machine)
    sizes = axis_group_sizes(plan)
    intra = axis_intra_node(plan, machine)

    times = dict.fromkeys(sizes, 0.0)
    wires = dict.fromkeys(sizes, 0)
    for ev in schedule:
        n = sizes[ev.axis]
        times[ev.axis] += ev.count * cost.collective_seconds(
            ev.op, ev.payload_bytes, n, intra[ev.axis]
        )
        if n > 1:
            wires[ev.axis] += ev.count * cost.wire_bytes(ev.op, ev.payload_bytes, n)

    return CommBreakdown(
        tp_time=times["tp"],
        gather_time=times["gather"],
        sp_time=times["sp"] + times["sp_gather"] + times["sp_scatter"],
        fsdp_time=times["fsdp"],
        dp_time=times["dp"],
        tp_wire=wires["tp"],
        gather_wire=wires["gather"],
        sp_wire=wires["sp"],
        sp_gather_wire=wires["sp_gather"],
        sp_scatter_wire=wires["sp_scatter"],
        fsdp_wire=wires["fsdp"],
        dp_wire=wires["dp"],
    )


def _exposed_seconds(
    raw: CommBreakdown, dp_overlap: float, fsdp_overlap: float
) -> tuple[float, float]:
    """``(fsdp, dp)`` seconds of the un-overlapped *raw* left exposed once
    the hidden fractions are taken off — the only place they are applied."""
    return raw.fsdp_time * (1.0 - fsdp_overlap), raw.dp_time * (1.0 - dp_overlap)


def _expose(raw: CommBreakdown, dp_overlap: float, fsdp_overlap: float) -> CommBreakdown:
    """The breakdown of *raw* (from :func:`_price_comm`) at one overlap pair."""
    fsdp_time, dp_time = _exposed_seconds(raw, dp_overlap, fsdp_overlap)
    return replace(raw, fsdp_time=fsdp_time, dp_time=dp_time)


def _overlap_pair(overlaps: "DerivedOverlaps | None") -> tuple[float, float]:
    """``(dp, fsdp)`` hidden fractions: *overlaps*' derived pair, or the
    paper-era defaults when it is None."""
    if overlaps is None:
        return DEFAULT_DP_OVERLAP, DEFAULT_FSDP_OVERLAP
    return overlaps.dp_overlap, overlaps.fsdp_overlap


def estimate_step_comm(
    model: ModelConfig,
    workload: Workload,
    plan: ParallelPlan,
    machine: MachineSpec,
    precision: Precision = Precision(),
    dp_overlap: float = DEFAULT_DP_OVERLAP,
    fsdp_overlap: float = DEFAULT_FSDP_OVERLAP,
    overlaps: "DerivedOverlaps | None" = None,
) -> CommBreakdown:
    """Non-overlapped communication seconds for one training step.

    DP AllReduce and FSDP gathers partially overlap with compute
    (``*_overlap`` = hidden fraction); TP collectives and the Ulysses SP
    all-to-alls sit on the critical path (overlap 0), as in Megatron-style
    implementations — the next op consumes their output immediately.  Pass
    ``overlaps=`` (a :class:`~repro.perf.overlap.DerivedOverlaps` from a
    virtual-clock run) to replace the assumed fractions with derived ones.

    The schedule is priced first with nothing hidden and the two fractions
    are applied last, so re-exposing a priced step at another pair costs
    two multiplies, not a re-pricing.
    """
    if overlaps is not None:
        dp_overlap, fsdp_overlap = _overlap_pair(overlaps)
    raw = _price_comm(step_comm_schedule(model, workload, plan, precision), plan, machine)
    return _expose(raw, dp_overlap, fsdp_overlap)
