"""Tensor parallelism (Megatron-style), the paper's baseline (§4.3).

TP shards the *embedding* dimension: attention splits by head, MLPs by
column-then-row.  :func:`tensor_parallel` rewrites a serial module in
place — every :class:`~repro.nn.MultiHeadSelfAttention`,
:class:`~repro.nn.MLP` and :class:`~repro.nn.ChannelCrossAttention` inside
it swaps its linears for this rank's shards and runs on ``heads/tp`` heads;
LayerNorms, residuals and everything else stay serial and replicated:

* :class:`ColumnParallelLinear` (qkv, fc1, q/kv projections) applies
  Megatron's ``f`` = :func:`~repro.dist.copy_to_group` (identity forward,
  gradient AllReduce backward) to its input;
* :class:`RowParallelLinear` (attention/MLP output projections) returns
  ``g(x @ W) + b`` with ``g`` = :func:`~repro.dist.reduce_from_group`
  (AllReduce forward, identity backward).

Shards are sliced from the module's own weights, so a TP model on *n* ranks
is bitwise the serial model's math on shards of one master initialisation —
the equivalence the paper leans on when it uses single-GPU runs as the
correctness baseline (§5), fenced in ``tests/test_model_parallel_fence.py``.
A sharded module's ``state_dict`` keys are the serial module's.  Every
region AllReduce allocates its result (:mod:`repro.dist.pool` states the
rule).  TP collectives produce activations the next operation consumes
immediately, so they must block; never stamp them with an eager phase.
"""

from __future__ import annotations

from functools import partial

from ..dist import copy_to_group, reduce_from_group
from ..nn import MLP, ChannelCrossAttention, Linear, Module, MultiHeadSelfAttention
from ..tensor import Tensor
from .mesh import ParallelContext

__all__ = ["ColumnParallelLinear", "RowParallelLinear", "tensor_parallel"]


class ColumnParallelLinear(Linear):
    """This rank's output columns of *linear*, ``f`` on the input.

    With ``groups > 1`` the output axis is that many equal blocks (q|k|v)
    and each block is sharded, so the rank's columns stay head-aligned.
    """

    def __init__(self, ctx: ParallelContext, linear: Linear, groups: int = 1) -> None:
        sl = ctx.shard(linear.out_features // groups)

        def cols(a):  # a fresh contiguous array: every block's slice, in order
            return a.reshape(*a.shape[:-1], groups, -1)[..., sl].reshape(*a.shape[:-1], -1)

        super().__init__(
            linear.in_features, groups * (sl.stop - sl.start),
            weight=cols(linear.weight.data), bias_value=cols(linear.bias.data),
        )
        self.ctx = ctx

    def forward(self, x: Tensor) -> Tensor:
        return super().forward(copy_to_group(self.ctx.comm, x, self.ctx.group))


class RowParallelLinear(Linear):
    """This rank's input rows of *linear*: ``g(x @ W_rows) + b``, the bias
    added once, after the reduction."""

    def __init__(self, ctx: ParallelContext, linear: Linear) -> None:
        sl = ctx.shard(linear.in_features)
        super().__init__(
            sl.stop - sl.start, linear.out_features,
            weight=linear.weight.data[sl].copy(), bias_value=linear.bias.data,
        )
        self.ctx = ctx

    def forward(self, x: Tensor) -> Tensor:
        return reduce_from_group(self.ctx.comm, x @ self.weight, self.ctx.group) + self.bias


def _shard_heads(ctx: ParallelContext, attn: Module) -> None:
    if attn.heads % ctx.size != 0:
        raise ValueError(f"heads {attn.heads} not divisible by TP size {ctx.size}")
    attn.heads //= ctx.size


def tensor_parallel(ctx: ParallelContext, module: Module) -> Module:
    """Shard *module* in place over ``ctx.group`` and return it.

    Input and output of every rewritten layer are replicated across the
    group.  Build *module* identically on every rank (same seed or same
    loaded state): each rank keeps its own shard of those weights.
    """
    for m in module.modules():
        if isinstance(m, MultiHeadSelfAttention):
            _shard_heads(ctx, m)
            m.qkv = ColumnParallelLinear(ctx, m.qkv, groups=3)
            m.proj = RowParallelLinear(ctx, m.proj)
        elif isinstance(m, MLP):
            m.fc1 = ColumnParallelLinear(ctx, m.fc1)
            m.fc2 = RowParallelLinear(ctx, m.fc2)
        elif isinstance(m, ChannelCrossAttention):
            _shard_heads(ctx, m)
            m.q_proj = ColumnParallelLinear(ctx, m.q_proj)
            # The absorbed form reads the kv weights directly, never calling
            # kv_proj, so ``f`` goes on the channel tokens at layer entry.
            m.kv_proj = ColumnParallelLinear(ctx, m.kv_proj, groups=2)
            m.proj = RowParallelLinear(ctx, m.proj)
            m.forward = partial(_entering, ctx, m.forward)
    return module


def _entering(ctx: ParallelContext, forward, x: Tensor) -> Tensor:
    return forward(copy_to_group(ctx.comm, x, ctx.group))
