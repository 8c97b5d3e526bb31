"""Tensor parallelism (Megatron-style), the paper's baseline (§4.3).

TP shards the *embedding* dimension: attention layers split by head, MLPs by
column-then-row, with the conjugate communication operators
:func:`~repro.dist.copy_to_group` (identity fwd / AllReduce bwd) and
:func:`~repro.dist.reduce_from_group` (AllReduce fwd / identity bwd) at the
region boundaries.

Every parallel layer is constructed from a **master** weight array and
slices its rank shard deterministically, so a TP model on *n* ranks is
bitwise-equivalent to the serial model built from the same masters — the
equivalence the paper leans on when it uses single-GPU runs as the
correctness baseline (§5).
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..dist import Communicator, ProcessGroup, copy_to_group, reduce_from_group, site_key
from ..nn import LayerNorm, Linear, Module, ModuleList
from ..nn.attention import (
    _merge_heads,
    _split_heads,
    channel_query_attention,
    scaled_dot_product_attention,
)
from ..tensor import Tensor, functional as F

__all__ = [
    "TPContext",
    "ColumnParallelLinear",
    "RowParallelLinear",
    "TPSelfAttention",
    "TPMLP",
    "TPTransformerBlock",
    "TPViTEncoder",
    "TPChannelCrossAttention",
]


class TPContext:
    """The (communicator, group) pair a TP layer communicates over.

    Virtual-clock hooks: ``block_seconds`` is the per-transformer-block
    forward compute a block charges onto the rank timeline (half after the
    attention region, half after the MLP region — TP collectives sit on the
    critical path between them, matching the analytic model's overlap-0
    treatment of TP); ``phase`` optionally stamps every forward collective a
    block issues (e.g. ``"tp"``) so measured traffic can be split by axis.
    Both are no-ops by default / without a clock.

    Issue-queue note: keep this context's ``phase`` out of a clock's
    ``eager_phases`` — every TP collective produces activations the next
    operation consumes immediately, so the region AllReduces must block
    (which is also why the overlap engine never discounts the TP axis).

    ``pool=True`` (the default) gives every region boundary a pooled
    ``out=`` buffer: each block's forward ``g`` AllReduce and backward ``f``
    AllReduce reuse one buffer per site across steps instead of allocating
    (see :mod:`repro.dist.pool`); ``pool=False`` is the allocating reference
    the parity property tests compare against.
    """

    def __init__(
        self,
        comm: Communicator,
        group: ProcessGroup | None = None,
        block_seconds: float = 0.0,
        phase: str | None = None,
        pool: bool = True,
    ) -> None:
        self.comm = comm
        self.group = group if group is not None else comm.world.default_group
        self.size = self.group.size
        self.index = self.group.rank_index(comm.rank)
        self.block_seconds = float(block_seconds)
        self.phase = phase
        self.pool = bool(pool)

    def region_keys(self, prefix: str) -> tuple[str | None, str | None]:
        """Pool keys for one ``f → … → g`` parallel region (or ``None``s)."""
        if not self.pool:
            return None, None
        return site_key(f"{prefix}.f"), site_key(f"{prefix}.g")

    def charge(self, seconds: float, phase: str = "forward") -> None:
        """Charge compute onto this rank's virtual timeline."""
        if seconds:
            self.comm.charge_compute(seconds, phase=phase)

    def scope(self):
        """Phase scope for this context's forward collectives (or a no-op)."""
        if self.phase is None:
            return contextlib.nullcontext()
        return self.comm.phase_scope(self.phase)

    def shard(self, n: int) -> slice:
        """This rank's contiguous slice of an axis of size *n*."""
        if n % self.size != 0:
            raise ValueError(f"axis size {n} not divisible by TP size {self.size}")
        step = n // self.size
        return slice(self.index * step, (self.index + 1) * step)


class ColumnParallelLinear(Module):
    """Linear with the *output* axis sharded: ``W → [in, out/tp]``.

    Input is replicated; output is this rank's column block.  ``f`` (grad
    AllReduce) is applied by the enclosing block at region entry, not here.
    """

    def __init__(
        self,
        ctx: TPContext,
        master_weight: np.ndarray,
        master_bias: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        self.ctx = ctx
        in_f, out_f = master_weight.shape
        sl = ctx.shard(out_f)
        self.linear = Linear(
            in_f,
            out_f // ctx.size,
            weight=np.ascontiguousarray(master_weight[:, sl]),
            bias=master_bias is not None,
            bias_value=np.ascontiguousarray(master_bias[sl]) if master_bias is not None else None,
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.linear(x)


class RowParallelLinear(Module):
    """Linear with the *input* axis sharded: ``W → [in/tp, out]``.

    Input is this rank's block of the activation; output is a partial sum
    that the caller completes with :func:`reduce_from_group` (``g``).  The
    bias is added once, after the reduction, by the owning block.
    """

    def __init__(self, ctx: TPContext, master_weight: np.ndarray) -> None:
        super().__init__()
        self.ctx = ctx
        in_f, out_f = master_weight.shape
        sl = ctx.shard(in_f)
        self.linear = Linear(
            in_f // ctx.size,
            out_f,
            weight=np.ascontiguousarray(master_weight[sl, :]),
            bias=False,
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.linear(x)


class TPSelfAttention(Module):
    """Head-sharded multi-head self-attention.

    qkv is column-parallel with the columns grouped per head so each rank
    computes attention for ``heads/tp`` heads locally; the output projection
    is row-parallel, completed by an AllReduce in the owning block.
    """

    def __init__(
        self,
        ctx: TPContext,
        dim: int,
        heads: int,
        master_qkv_w: np.ndarray,
        master_qkv_b: np.ndarray,
        master_proj_w: np.ndarray,
        master_proj_b: np.ndarray,
    ) -> None:
        super().__init__()
        if heads % ctx.size != 0:
            raise ValueError(f"heads {heads} not divisible by TP size {ctx.size}")
        self.ctx = ctx
        self.dim = dim
        self.heads = heads
        self.local_heads = heads // ctx.size
        hd = dim // heads
        h0 = ctx.index * self.local_heads
        cols = slice(h0 * hd, (h0 + self.local_heads) * hd)
        # Take matching q, k and v column blocks for this rank's heads.
        local_dim = self.local_heads * hd
        qkv_w = np.concatenate(
            [
                master_qkv_w[:, cols],
                master_qkv_w[:, dim + cols.start : dim + cols.stop],
                master_qkv_w[:, 2 * dim + cols.start : 2 * dim + cols.stop],
            ],
            axis=1,
        )
        qkv_b = np.concatenate(
            [
                master_qkv_b[cols],
                master_qkv_b[dim + cols.start : dim + cols.stop],
                master_qkv_b[2 * dim + cols.start : 2 * dim + cols.stop],
            ]
        )
        self.qkv = Linear(dim, 3 * local_dim, weight=qkv_w, bias_value=qkv_b)
        self.proj = RowParallelLinear(ctx, master_proj_w)
        self.proj_bias = Tensor(np.asarray(master_proj_b, dtype=np.float32), requires_grad=True)
        self.local_dim = local_dim

    def forward(self, x: Tensor) -> Tensor:
        """Replicated [B, N, D] -> partial [B, N, D] (pre-reduction, no bias)."""
        qkv = self.qkv(x)
        q, k, v = qkv.split(3, axis=-1)
        q, k, v = (_split_heads(t, self.local_heads) for t in (q, k, v))
        out = scaled_dot_product_attention(q, k, v)
        return self.proj(_merge_heads(out))


class TPMLP(Module):
    """Column-parallel fc1 → GELU → row-parallel fc2 (bias added post-reduce)."""

    def __init__(
        self,
        ctx: TPContext,
        master_fc1_w: np.ndarray,
        master_fc1_b: np.ndarray,
        master_fc2_w: np.ndarray,
        master_fc2_b: np.ndarray,
    ) -> None:
        super().__init__()
        self.fc1 = ColumnParallelLinear(ctx, master_fc1_w, master_fc1_b)
        self.fc2 = RowParallelLinear(ctx, master_fc2_w)
        self.fc2_bias = Tensor(np.asarray(master_fc2_b, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(F.gelu(self.fc1(x)))


class TPTransformerBlock(Module):
    """Pre-norm block with TP attention and TP MLP.

    LayerNorms and residuals are replicated; each parallel region is wrapped
    ``copy_to_group → … → reduce_from_group``.
    """

    def __init__(
        self,
        ctx: TPContext,
        dim: int,
        heads: int,
        masters: dict[str, np.ndarray],
    ) -> None:
        super().__init__()
        self.ctx = ctx
        self.norm1 = LayerNorm(dim)
        self.norm1.load_state_dict(
            {"weight": masters["norm1.weight"], "bias": masters["norm1.bias"]}
        )
        self.attn = TPSelfAttention(
            ctx,
            dim,
            heads,
            masters["attn.qkv.weight"],
            masters["attn.qkv.bias"],
            masters["attn.proj.weight"],
            masters["attn.proj.bias"],
        )
        self.norm2 = LayerNorm(dim)
        self.norm2.load_state_dict(
            {"weight": masters["norm2.weight"], "bias": masters["norm2.bias"]}
        )
        self.mlp = TPMLP(
            ctx,
            masters["mlp.fc1.weight"],
            masters["mlp.fc1.bias"],
            masters["mlp.fc2.weight"],
            masters["mlp.fc2.bias"],
        )
        self._attn_keys = ctx.region_keys("tp.block.attn")
        self._mlp_keys = ctx.region_keys("tp.block.mlp")

    def forward(self, x: Tensor) -> Tensor:
        ctx = self.ctx
        attn_f, attn_g = self._attn_keys
        mlp_f, mlp_g = self._mlp_keys
        with ctx.scope():
            h = copy_to_group(ctx.comm, self.norm1(x), ctx.group, pool_key=attn_f)
            attn = self.attn(h)
            ctx.charge(0.5 * ctx.block_seconds)
            h = (
                reduce_from_group(ctx.comm, attn, ctx.group, pool_key=attn_g)
                + self.attn.proj_bias
            )
            x = x + h
            h = copy_to_group(ctx.comm, self.norm2(x), ctx.group, pool_key=mlp_f)
            mlp = self.mlp(h)
            ctx.charge(0.5 * ctx.block_seconds)
            h = (
                reduce_from_group(ctx.comm, mlp, ctx.group, pool_key=mlp_g)
                + self.mlp.fc2_bias
            )
        return x + h


class TPViTEncoder(Module):
    """TP-sharded ViT encoder built from a serial encoder's state dict."""

    def __init__(
        self,
        ctx: TPContext,
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
            masters = {
                k[len(prefix):]: v for k, v in master_state.items() if k.startswith(prefix)
            }
            blocks.append(TPTransformerBlock(ctx, dim, heads, masters))
        self.blocks = ModuleList(blocks)
        self.norm = LayerNorm(dim)
        self.norm.load_state_dict(
            {"weight": master_state["norm.weight"], "bias": master_state["norm.bias"]}
        )

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return self.norm(x)


class TPChannelCrossAttention(Module):
    """Head-sharded channel cross-attention (paper applies TP to the channel
    aggregation module as well, §3.1 top diagram).

    Query tokens are replicated; q and kv projections are column-parallel by
    head; the output projection is row-parallel.  Input ``[B, C, N, D]`` must
    be replicated across the group; output ``[B, N, D]`` is replicated too.
    """

    def __init__(
        self,
        ctx: TPContext,
        dim: int,
        heads: int,
        master_query_tokens: np.ndarray,
        master_q_w: np.ndarray,
        master_q_b: np.ndarray,
        master_kv_w: np.ndarray,
        master_kv_b: np.ndarray,
        master_proj_w: np.ndarray,
        master_proj_b: np.ndarray,
        num_queries: int = 1,
    ) -> None:
        super().__init__()
        if heads % ctx.size != 0:
            raise ValueError(f"heads {heads} not divisible by TP size {ctx.size}")
        self.ctx = ctx
        self.dim = dim
        self.heads = heads
        self.num_queries = num_queries
        self.local_heads = heads // ctx.size
        hd = dim // heads
        h0 = ctx.index * self.local_heads
        cols = slice(h0 * hd, (h0 + self.local_heads) * hd)
        self.query_tokens = Tensor(
            np.asarray(master_query_tokens, dtype=np.float32), requires_grad=True
        )
        self.q_proj = Linear(
            dim,
            self.local_heads * hd,
            weight=np.ascontiguousarray(master_q_w[:, cols]),
            bias_value=np.ascontiguousarray(master_q_b[cols]),
        )
        kv_w = np.concatenate(
            [master_kv_w[:, cols], master_kv_w[:, dim + cols.start : dim + cols.stop]], axis=1
        )
        kv_b = np.concatenate(
            [master_kv_b[cols], master_kv_b[dim + cols.start : dim + cols.stop]]
        )
        self.kv_proj = Linear(dim, 2 * self.local_heads * hd, weight=kv_w, bias_value=kv_b)
        self.proj = RowParallelLinear(ctx, master_proj_w)
        self.proj_bias = Tensor(np.asarray(master_proj_b, dtype=np.float32), requires_grad=True)
        self._keys = ctx.region_keys("tp.chanxattn")

    def forward(self, x: Tensor) -> Tensor:
        """Replicated [B, C, N, D] -> replicated [B, N, D] (Q=1)."""
        ctx = self.ctx
        key_f, key_g = self._keys
        b, c, n, d = x.shape
        with ctx.scope():
            x = copy_to_group(ctx.comm, x, ctx.group, pool_key=key_f)
            out = channel_query_attention(
                x, self.query_tokens, self.q_proj, self.kv_proj, self.local_heads
            )
            out = self.proj(out)
            ctx.charge(ctx.block_seconds)
            out = reduce_from_group(ctx.comm, out, ctx.group, pool_key=key_g) + self.proj_bias
        out = out.reshape(b, n, self.num_queries, d).transpose(0, 2, 1, 3)
        if self.num_queries == 1:
            return out.squeeze(1)
        return out
