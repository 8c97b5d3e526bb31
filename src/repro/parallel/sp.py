"""Sequence parallelism (paper §3.5's "other model-parallel strategies").

The paper notes D-CHAG composes with SP exactly where it composes with TP:
"Sequence Parallelism could operate on the same model segments — just before
the self-attention layers — to distribute sequence length … enabling
tokenization and hierarchical aggregation to be distributed along the axis
in which the data are fused."

This module implements DeepSpeed-Ulysses-style SP: activations are sharded
along the token axis (``[B, N/sp, D]``).  :func:`sequence_parallel` rewrites
a serial module in place so that every
:class:`~repro.nn.MultiHeadSelfAttention` inside it wraps its attention
kernel (:meth:`~repro.nn.MultiHeadSelfAttention.attend`) in a pair of
all-to-alls — q/k/v tokens→heads before, the output heads→tokens after — so
every rank computes full-sequence attention for ``heads/sp`` heads.
Projections, LayerNorms and MLPs are the serial modules, run on the token
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
:class:`~repro.core.dchag.DCHAG` front-end, then run the
:func:`sequence_parallel` encoder over the same group.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..dist import all_gather_forward_only
from ..nn import Module, MultiHeadSelfAttention
from ..tensor import Tensor
from .mesh import ParallelContext

__all__ = [
    "SP_A2A_PHASE",
    "SP_GATHER_PHASE",
    "SP_SCATTER_PHASE",
    "scatter_sequence",
    "gather_sequence",
    "all_to_all_tokens_to_heads",
    "all_to_all_heads_to_tokens",
    "sequence_parallel",
]

#: Traffic phases stamped on SP collectives — the names the calibration
#: harness and commvol gate key their per-axis books on.
SP_A2A_PHASE = "sp_a2a"
SP_GATHER_PHASE = "sp_gather"
SP_SCATTER_PHASE = "sp_scatter"


def scatter_sequence(ctx: ParallelContext, x: Tensor, axis: int = 1) -> Tensor:
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


def gather_sequence(ctx: ParallelContext, x: Tensor, axis: int = 1) -> Tensor:
    """AllGather token shards back to the full (replicated) sequence,
    stamped :data:`SP_GATHER_PHASE`.

    Backward takes the local slice — the conjugate of
    :func:`scatter_sequence`, again communication-free going backward.
    """
    with ctx.comm.phase_scope(SP_GATHER_PHASE):
        return all_gather_forward_only(ctx.comm, x, ctx.group, axis=axis)


def _a2a(ctx: ParallelContext, x: Tensor, split_axis: int, concat_axis: int) -> Tensor:
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


def all_to_all_tokens_to_heads(ctx: ParallelContext, x: Tensor) -> Tensor:
    """[B, h, N/sp, hd] (all heads, token shard) → [B, h/sp, N, hd]
    (head shard, full sequence)."""
    return _a2a(ctx, x, split_axis=1, concat_axis=2)


def all_to_all_heads_to_tokens(ctx: ParallelContext, x: Tensor) -> Tensor:
    """[B, h/sp, N, hd] → [B, h, N/sp, hd] — the inverse switch."""
    return _a2a(ctx, x, split_axis=2, concat_axis=1)


def _ulysses_attend(ctx: ParallelContext, attend, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """``attend`` on ``[B, h, N/sp, hd]`` token shards: full-sequence
    attention for this rank's ``h/sp`` heads, back on the token shard."""
    q, k, v = (all_to_all_tokens_to_heads(ctx, t) for t in (q, k, v))
    return all_to_all_heads_to_tokens(ctx, attend(q, k, v))


def sequence_parallel(ctx: ParallelContext, module: Module) -> Module:
    """Rewrite *module* in place for Ulysses SP over ``ctx.group`` and
    return it.

    The rewritten module maps this rank's token shard ``[B, N/sp, D]`` to
    its output shard; pass replicated input through
    :func:`scatter_sequence` first, and :func:`gather_sequence` the output
    if the downstream head needs the full sequence.
    """
    for m in module.modules():
        if isinstance(m, MultiHeadSelfAttention):
            if m.heads % ctx.size != 0:
                raise ValueError(f"heads {m.heads} not divisible by SP degree {ctx.size}")
            m.attend = partial(_ulysses_attend, ctx, m.attend)
    return module
