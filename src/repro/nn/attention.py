"""Attention layers: multi-head self-attention (the ViT block component) and
cross-attention (the channel-aggregation component of the paper's Fig. 1).

Shapes
------
Self-attention operates over the spatial token axis::

    [B, N, D] -> [B, N, D]

Channel cross-attention operates over the *channel* axis independently at
every spatial location — the key structural point of the paper.  With input
``[B, C, N, D]`` the spatial axis is folded into the batch, ``Q`` learned
query tokens attend over the C channels, and the result is ``[B, Q, N, D]``
(``Q = 1`` reduces the channels to a single representation).

Absorbed-query form
-------------------
The query is a learned parameter, not a function of the input, so
:func:`channel_query_attention` folds it into the key weights and pools the
raw channel tokens *before* the value projection (``h`` heads of width
``hd = D/h``, ``q = q_proj(query_tokens)`` computed once on ``[Q, D]``)::

    scores[bn, c, (h,q)] = tokens[bn, c, :] · (W_k,h q_h,q) + b_k,h · q_h,q
    pooled[bn, (h,q), :] = softmax_c(scores / √hd) @ tokens[bn]
    out_h[bn, q, :]      = pooled_h @ W_v,h + (Σ_c attn) · b_v,h

This is the explicit ``softmax(q kᵀ/√hd) v``, with ``k`` and ``v`` projected
from every channel token, re-associated — so it is exact, dropout on the
attention weights included (``Σ_c attn`` stays in the graph).  No
``[B·N, C, 2D]`` K/V tensor exists; the largest intermediates are the
``[B·N, C, h·Q]`` scores and the ``[B·N, h·Q, D]`` pooled tokens.  Forward
matmul FLOPs of the whole layer::

    B·N · (2·C·D·h·Q  +  2·h·Q·C·D  +  2·Q·D²  +  2·Q·D²)  +  4·Q·D² + 2·Q·D
           scores        pooling       values     proj        q_proj, W_k q, b_k·q

against ``B·N · (4·C·D² + 4·Q·C·D + 2·Q·D²)`` (plus a ``q_proj`` on ``B·N``
broadcast query copies) for the explicit form: the per-location attention
cost falls from ``2·(2·C·D² + 2·Q·C·D)`` to ``2·(2·C·D·h·Q + Q·D²)``.  The
score matrix is still ``[B·N, heads, Q, C]`` — quadratic in C when ``Q ~ C``
(the paper's memory argument) — and the absorbed form stops paying once
``h·Q ≳ D``; every construction site in this repo aggregates with ``Q = 1``.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, functional as F, init
from .layers import Dropout, Linear
from .module import Module

__all__ = [
    "MultiHeadSelfAttention",
    "ChannelCrossAttention",
    "LinearChannelMixer",
    "split_heads",
    "merge_heads",
    "scaled_dot_product_attention",
    "channel_query_attention",
]


def split_heads(x: Tensor, heads: int) -> Tensor:
    """[B, N, D] -> [B, h, N, D/h]"""
    b, n, d = x.shape
    return x.reshape(b, n, heads, d // heads).transpose(0, 2, 1, 3)


def merge_heads(x: Tensor) -> Tensor:
    """[B, h, N, D/h] -> [B, N, D]"""
    b, h, n, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * hd)


def scaled_dot_product_attention(
    q: Tensor, k: Tensor, v: Tensor, dropout: Module | None = None
) -> Tensor:
    """softmax(q kᵀ / √d) v over the last two axes (batched)."""
    scale = 1.0 / float(np.sqrt(q.shape[-1]))
    scores = (q @ k.swapaxes(-1, -2)) * scale
    attn = F.softmax(scores, axis=-1)
    if dropout is not None:
        attn = dropout(attn)
    return attn @ v


def channel_query_attention(
    x: Tensor,
    query_tokens: Tensor,
    q_proj: Linear,
    kv_proj: Linear,
    heads: int,
    dropout: Module | None = None,
) -> Tensor:
    """Learned-query attention over the channel axis, query absorbed into the
    key weights (module docstring): ``[B, C, N, D] -> [B*N, Q, heads*hd]``,
    heads merged, ready for the output projection.

    ``q_proj`` (``D -> heads*hd``) and ``kv_proj`` (``D -> 2*heads*hd``, keys
    then values) may be the full layers or a tensor-parallel rank's column
    shards with ``heads`` the local head count.
    """
    b, c, n, d = x.shape
    if d != q_proj.in_features:
        raise ValueError(f"expected dim {q_proj.in_features}, got {d}")
    nq = query_tokens.shape[0]
    hd = q_proj.out_features // heads
    # Fold spatial into batch: channels become the attention sequence.
    tokens = x.transpose(0, 2, 1, 3).reshape(b * n, c, d)         # [B*N, C, D]

    # Weight side, independent of the input: a handful of [D, D]-sized nodes.
    q = q_proj(query_tokens) * (1.0 / float(np.sqrt(hd)))         # [Q, h*hd]
    q = q.reshape(nq, heads, hd).transpose(1, 2, 0)               # [h, hd, Q]
    w_kv = kv_proj.weight.reshape(d, 2, heads, hd).transpose(1, 2, 0, 3)  # [2, h, D, hd]
    b_kv = kv_proj.bias.reshape(2, heads, 1, hd)
    w_score = (w_kv[0] @ q).transpose(1, 0, 2).reshape(d, heads * nq)  # [D, h*Q]
    b_score = (b_kv[0] @ q).reshape(heads * nq)

    scores = tokens @ w_score + b_score                           # [B*N, C, h*Q]
    attn = F.softmax(scores.swapaxes(-1, -2), axis=-1)            # [B*N, h*Q, C]
    if dropout is not None:
        attn = dropout(attn)
    pooled = attn @ tokens                                        # [B*N, h*Q, D]

    def by_head(t: Tensor) -> Tensor:                             # [B*N, h*Q, k] -> [h, B*N*Q, k]
        return t.reshape(b * n, heads, nq, -1).transpose(1, 0, 2, 3).reshape(heads, b * n * nq, -1)

    # batched x batched on purpose: [B*N, h, Q, D] @ [h, D, hd] would broadcast
    # W_v and rebuild a [B*N, h, D, hd] temporary in its dW backward.
    out = by_head(pooled) @ w_kv[1] + by_head(attn.sum(axis=-1, keepdims=True)) * b_kv[1]
    return out.reshape(heads, b * n, nq, hd).transpose(1, 2, 0, 3).reshape(b * n, nq, heads * hd)


class MultiHeadSelfAttention(Module):
    """Standard ViT self-attention over the token axis.

    :func:`~repro.parallel.tensor_parallel` shards its linears and heads in
    place; :func:`~repro.parallel.sequence_parallel` wraps :meth:`attend`.
    """

    def __init__(
        self,
        dim: int,
        heads: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.qkv = Linear(dim, 3 * dim, rng)
        self.proj = Linear(dim, dim, rng)
        self.attn_drop = Dropout(dropout, rng) if dropout > 0 else None

    def attend(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        """The attention kernel on split heads, ``[B, h, N, hd]`` each."""
        return scaled_dot_product_attention(q, k, v, self.attn_drop)

    def forward(self, x: Tensor) -> Tensor:
        qkv = self.qkv(x)  # [B, N, 3D]
        q, k, v = qkv.split(3, axis=-1)
        q, k, v = (split_heads(t, self.heads) for t in (q, k, v))
        return self.proj(merge_heads(self.attend(q, k, v)))


class ChannelCrossAttention(Module):
    """Cross-attention that aggregates the channel axis (paper §2.1).

    ``Q`` learned query tokens attend over the C input channels at every
    spatial location; ``Q = 1`` (the default) reduces C channels to one
    aggregated representation — the paper's channel-aggregation layer.
    """

    def __init__(
        self,
        dim: int,
        heads: int,
        rng: np.random.Generator,
        num_queries: int = 1,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.num_queries = num_queries
        self.query_tokens = init.trunc_normal((num_queries, dim), rng, std=0.02)
        self.q_proj = Linear(dim, dim, rng)
        self.kv_proj = Linear(dim, 2 * dim, rng)
        self.proj = Linear(dim, dim, rng)
        self.attn_drop = Dropout(dropout, rng) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        """[B, C, N, D] -> [B, N, D] (Q=1) or [B, Q, N, D] (Q>1)."""
        b, c, n, d = x.shape
        out = channel_query_attention(
            x, self.query_tokens, self.q_proj, self.kv_proj, self.heads, self.attn_drop
        )
        out = self.proj(out)                                      # [B*N, Q, D]
        out = out.reshape(b, n, self.num_queries, d).transpose(0, 2, 1, 3)  # [B, Q, N, D]
        if self.num_queries == 1:
            return out.squeeze(1)
        return out


class LinearChannelMixer(Module):
    """Lightweight linear substitute for an aggregation layer (the ``-L``
    variants): a learned linear map over the channel axis,
    ``[B, C_in, N, D] -> [B, C_out, N, D]`` (squeezed when ``C_out = 1``).

    Parameter count is ``C_in * C_out + C_out`` versus the cross-attention
    layer's ``~4 D² + Q D`` — the memory trade-off §3.3 discusses.
    """

    def __init__(
        self,
        c_in: int,
        c_out: int = 1,
        rng: np.random.Generator | None = None,
        weight: np.ndarray | None = None,
        bias_value: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        self.c_in = c_in
        self.c_out = c_out
        if weight is not None:
            self.weight = Tensor(np.asarray(weight, dtype=np.float32), requires_grad=True)
        else:
            if rng is None:
                raise ValueError("LinearChannelMixer needs rng or explicit weight")
            # Initialise near uniform averaging so early training is stable.
            w = np.full((c_out, c_in), 1.0 / c_in, dtype=np.float32)
            w += (rng.standard_normal((c_out, c_in)) * 0.02).astype(np.float32)
            self.weight = Tensor(w, requires_grad=True)
        if bias_value is not None:
            self.bias = Tensor(np.asarray(bias_value, dtype=np.float32), requires_grad=True)
        else:
            self.bias = init.zeros((c_out,))

    def forward(self, x: Tensor) -> Tensor:
        b, c, n, d = x.shape
        if c != self.c_in:
            raise ValueError(f"expected {self.c_in} channels, got {c}")
        folded = x.reshape(b, c, n * d)                      # [B, C, N*D]
        mixed = self.weight @ folded                          # [B, C_out, N*D] (broadcast batch)
        mixed = mixed.reshape(b, self.c_out, n, d)
        out = mixed + self.bias.reshape(1, self.c_out, 1, 1)
        if self.c_out == 1:
            return out.squeeze(1)
        return out
