"""Sequence parallelism (paper §3.5's "other model-parallel strategies").

The paper notes D-CHAG composes with SP exactly where it composes with TP:
"Sequence Parallelism could operate on the same model segments — just before
the self-attention layers — to distribute sequence length … enabling
tokenization and hierarchical aggregation to be distributed along the axis
in which the data are fused."

This module implements DeepSpeed-Ulysses-style SP: activations are sharded
along the token axis (``[B, N/sp, D]``); attention switches to *head*
sharding with a pair of all-to-alls (tokens→heads before the attention
kernel, heads→tokens after), so every rank computes full-sequence attention
for ``heads/sp`` heads.  LayerNorms and MLPs run directly on the token
shard with no communication at all.

Every collective is phase-tagged — :data:`SP_A2A_PHASE` for the per-block
all-to-alls (forward and backward), :data:`SP_GATHER_PHASE` /
:data:`SP_SCATTER_PHASE` for the sequence-boundary gathers — matching
``repro.perf.calibrate.AXIS_PHASES``, so overlap derivation and the
comm-volume gate reconcile live SP traffic against the analytic
:func:`~repro.perf.comm_model.step_comm_schedule` per op × phase × link.
Every SP collective allocates its result.  The all-to-alls may not be
pooled (:mod:`repro.dist.pool` states the rule): attention saves the
exchanged q/k/v for backward, so a second forward before that backward
would overwrite them in a pooled buffer.

Composition with D-CHAG: ``scatter_sequence`` the replicated output of the
:class:`~repro.core.dchag.DCHAG` front-end, then run :class:`SPViTEncoder`
over the same group.
"""

from __future__ import annotations

import numpy as np

from ..dist import Communicator, ProcessGroup
from ..nn import LayerNorm, Linear, MLP, Module, ModuleList
from ..nn.attention import merge_heads, scaled_dot_product_attention, split_heads
from ..tensor import Tensor

__all__ = [
    "SP_A2A_PHASE",
    "SP_GATHER_PHASE",
    "SP_SCATTER_PHASE",
    "SPContext",
    "scatter_sequence",
    "gather_sequence",
    "all_to_all_tokens_to_heads",
    "all_to_all_heads_to_tokens",
    "SPSelfAttention",
    "SPTransformerBlock",
    "SPViTEncoder",
]

#: Traffic phases stamped on SP collectives — the names the calibration
#: harness and commvol gate key their per-axis books on.
SP_A2A_PHASE = "sp_a2a"
SP_GATHER_PHASE = "sp_gather"
SP_SCATTER_PHASE = "sp_scatter"


class SPContext:
    """The (communicator, group) pair SP layers communicate over.

    Mirrors :class:`~repro.parallel.tp.TPContext`'s conventions:
    ``block_seconds`` charges per-block forward compute onto the virtual
    clock (half after attention, half after the MLP — SP all-to-alls sit on
    the critical path between them, matching the analytic model's overlap-0
    treatment).  Unlike TP, the phases are fixed —
    :data:`SP_A2A_PHASE` and friends — because the measured replay's
    ``AXIS_PHASES`` books expect exactly those names.
    """

    def __init__(
        self,
        comm: Communicator,
        group: ProcessGroup | None = None,
        block_seconds: float = 0.0,
    ) -> None:
        self.comm = comm
        self.group = group if group is not None else comm.world.default_group
        self.size = self.group.size
        self.index = self.group.rank_index(comm.rank)
        self.block_seconds = float(block_seconds)

    def charge(self, seconds: float, phase: str = "forward") -> None:
        """Charge compute onto this rank's virtual timeline."""
        if seconds:
            self.comm.charge_compute(seconds, phase=phase)


def scatter_sequence(ctx: SPContext, x: Tensor, axis: int = 1) -> Tensor:
    """Take this rank's token shard of a *replicated* tensor.

    Forward is a local slice; backward re-assembles the full gradient with a
    forward-only gather (valid because the upstream producer is replicated,
    mirroring the D-CHAG gather argument in reverse), stamped
    :data:`SP_SCATTER_PHASE`.
    """
    n = x.shape[axis]
    sp = ctx.size
    if n % sp != 0:
        raise ValueError(f"sequence length {n} not divisible by SP degree {sp}")
    step = n // sp
    lo = ctx.index * step
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(lo, lo + step)
    out_data = x.data[tuple(idx)].copy()

    def backward(grad: np.ndarray) -> None:
        with ctx.comm.phase_scope(SP_SCATTER_PHASE):
            parts = ctx.comm.all_gather(grad, group=ctx.group)
        x._accumulate(np.concatenate(parts, axis=axis))

    return x._make(out_data, (x,), backward, "scatter_sequence")


def gather_sequence(ctx: SPContext, x: Tensor, axis: int = 1) -> Tensor:
    """AllGather token shards back to the full (replicated) sequence,
    stamped :data:`SP_GATHER_PHASE`.

    Backward takes the local slice — the conjugate of
    :func:`scatter_sequence`, again communication-free going backward.
    """
    from ..dist import all_gather_forward_only

    with ctx.comm.phase_scope(SP_GATHER_PHASE):
        return all_gather_forward_only(ctx.comm, x, ctx.group, axis=axis)


def _a2a(ctx: SPContext, x: Tensor, split_axis: int, concat_axis: int) -> Tensor:
    """Differentiable all-to-all: split *x* along ``split_axis`` into sp
    pieces (one per rank), receive sp pieces and concatenate along
    ``concat_axis``.  Backward is the mirrored all-to-all; both directions
    are stamped :data:`SP_A2A_PHASE`.
    """
    sp = ctx.size
    if x.shape[split_axis] % sp != 0:
        raise ValueError(
            f"axis {split_axis} of size {x.shape[split_axis]} not divisible by sp={sp}"
        )

    def exchange(data: np.ndarray, src_axis: int, dst_axis: int) -> np.ndarray:
        send = np.split(data, sp, axis=src_axis)
        with ctx.comm.phase_scope(SP_A2A_PHASE):
            recv = ctx.comm.all_to_all(send, group=ctx.group)
        return np.concatenate(recv, axis=dst_axis)

    out_data = exchange(x.data, split_axis, concat_axis)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(exchange(grad, concat_axis, split_axis))

    return x._make(out_data, (x,), backward, "all_to_all")


def all_to_all_tokens_to_heads(ctx: SPContext, x: Tensor) -> Tensor:
    """[B, h, N/sp, hd] (all heads, token shard) → [B, h/sp, N, hd]
    (head shard, full sequence)."""
    return _a2a(ctx, x, split_axis=1, concat_axis=2)


def all_to_all_heads_to_tokens(ctx: SPContext, x: Tensor) -> Tensor:
    """[B, h/sp, N, hd] → [B, h, N/sp, hd] — the inverse switch."""
    return _a2a(ctx, x, split_axis=2, concat_axis=1)


class SPSelfAttention(Module):
    """Full-sequence attention under sequence sharding (Ulysses pattern).

    Projections run on the token shard; all-to-alls flip the sharded axis
    to heads for the attention kernel and back — four per forward (q, k, v
    tokens→heads plus the output heads→tokens), each mirrored in backward.
    """

    def __init__(
        self,
        ctx: SPContext,
        dim: int,
        heads: int,
        master_qkv_w: np.ndarray,
        master_qkv_b: np.ndarray,
        master_proj_w: np.ndarray,
        master_proj_b: np.ndarray,
    ) -> None:
        super().__init__()
        if heads % ctx.size != 0:
            raise ValueError(f"heads {heads} not divisible by SP degree {ctx.size}")
        self.ctx = ctx
        self.dim = dim
        self.heads = heads
        self.qkv = Linear(dim, 3 * dim, weight=master_qkv_w, bias_value=master_qkv_b)
        self.proj = Linear(dim, dim, weight=master_proj_w, bias_value=master_proj_b)

    def forward(self, x: Tensor) -> Tensor:
        """[B, N/sp, D] -> [B, N/sp, D]."""
        ctx = self.ctx
        qkv = self.qkv(x)
        q, k, v = qkv.split(3, axis=-1)
        q, k, v = (split_heads(t, self.heads) for t in (q, k, v))  # [B, h, N/sp, hd]
        q, k, v = (all_to_all_tokens_to_heads(ctx, t) for t in (q, k, v))  # [B, h/sp, N, hd]
        out = scaled_dot_product_attention(q, k, v)
        out = all_to_all_heads_to_tokens(ctx, out)  # [B, h, N/sp, hd]
        return self.proj(merge_heads(out))


class SPTransformerBlock(Module):
    """Pre-norm block on a token shard: only the attention communicates."""

    def __init__(self, ctx: SPContext, dim: int, heads: int, masters: dict[str, np.ndarray]) -> None:
        super().__init__()
        self.ctx = ctx
        self.norm1 = LayerNorm(dim)
        self.norm1.load_state_dict({"weight": masters["norm1.weight"], "bias": masters["norm1.bias"]})
        self.attn = SPSelfAttention(
            ctx, dim, heads,
            masters["attn.qkv.weight"], masters["attn.qkv.bias"],
            masters["attn.proj.weight"], masters["attn.proj.bias"],
        )
        self.norm2 = LayerNorm(dim)
        self.norm2.load_state_dict({"weight": masters["norm2.weight"], "bias": masters["norm2.bias"]})
        self.mlp = MLP.from_masters(
            masters["mlp.fc1.weight"], masters["mlp.fc1.bias"],
            masters["mlp.fc2.weight"], masters["mlp.fc2.bias"],
        )

    def forward(self, x: Tensor) -> Tensor:
        ctx = self.ctx
        h = self.attn(self.norm1(x))
        ctx.charge(0.5 * ctx.block_seconds)
        x = x + h
        h = self.mlp(self.norm2(x))
        ctx.charge(0.5 * ctx.block_seconds)
        return x + h


class SPViTEncoder(Module):
    """Sequence-parallel ViT encoder built from a serial encoder's state.

    Input is the rank's token shard ``[B, N/sp, D]``; pass replicated input
    through :func:`scatter_sequence` first, and :func:`gather_sequence` the
    output if the downstream head needs the full sequence.
    """

    def __init__(
        self,
        ctx: SPContext,
        dim: int,
        depth: int,
        heads: int,
        master_state: dict[str, np.ndarray],
    ) -> None:
        super().__init__()
        self.ctx = ctx
        blocks = []
        for i in range(depth):
            prefix = f"blocks.{i}."
            masters = {k[len(prefix):]: v for k, v in master_state.items() if k.startswith(prefix)}
            blocks.append(SPTransformerBlock(ctx, dim, heads, masters))
        self.blocks = ModuleList(blocks)
        self.norm = LayerNorm(dim)
        self.norm.load_state_dict(
            {"weight": master_state["norm.weight"], "bias": master_state["norm.bias"]}
        )

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return self.norm(x)
