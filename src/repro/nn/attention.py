"""Attention layers: multi-head self-attention (the ViT block component) and
cross-attention (the channel-aggregation component of the paper's Fig. 1).

Shapes
------
Self-attention operates over the spatial token axis::

    [B, N, D] -> [B, N, D]

as seven autograd nodes: the qkv :class:`~repro.nn.layers.Linear` (one node),
three :func:`split_heads` views of its output (q, k, v, whose backwards fill
one qkv grad buffer), the :func:`scaled_dot_product_attention` kernel (scores,
scale, mask, softmax, dropout and pooling in one node with a hand-written
backward), :func:`merge_heads` and the output projection.

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
attention weights included (``Σ_c attn`` carries the dropped weights).  The
weight side (``q``, ``W_k q``, ``b_k·q``, the ``W_v`` / ``b_v`` views) stays
ordinary graph nodes, so tensor-parallel shards of ``q_proj`` / ``kv_proj``
work unchanged; the token side — scores, softmax, dropout, pooling,
``Σ_c attn · b_v`` and the value projection — is one autograd node,
:func:`pool_channels`, with a hand-written backward.  It reads the
``[B·N, C, D]`` tokens in place when ``x`` is the output of
:func:`~repro.nn.patch_embed.tokenize_channels` (any other ``x`` costs one
copy).  No ``[B·N, C, 2D]`` K/V tensor exists; the largest arrays the node
keeps are the ``[B·N, h·Q, C]`` attention weights (and dropout mask) and the
``[h, B·N·Q, D]`` pooled tokens, and its backward's largest temporaries are
the two ``[B·N, C, D]`` token-gradient terms.  Forward matmul FLOPs of the
whole layer::

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

from ..tensor import Tensor, add_flops, current_tracker, init, is_grad_enabled
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
    "pool_channels",
]


def split_heads(x: Tensor, heads: int, part: int = 0, parts: int = 1) -> Tensor:
    """``[B, N, parts*D]`` -> part *part*'s heads ``[B, h, N, D/h]``, one
    view node.  Its backward adds into ``x``'s grad in place, so the q, k
    and v views of one qkv output share a single gradient buffer."""
    b, n, width = x.shape
    d = width // parts
    lo = part * d

    def backward(grad: np.ndarray) -> None:
        x._scatter_add((Ellipsis, slice(lo, lo + d)), grad.transpose(0, 2, 1, 3).reshape(b, n, d))

    view = x.data.reshape(b, n, parts, heads, d // heads)[:, :, part].transpose(0, 2, 1, 3)
    return x._make(view, (x,), backward, "split_heads")


def merge_heads(x: Tensor) -> Tensor:
    """``[B, h, N, D/h]`` -> ``[B, N, D]``, one node."""
    b, h, n, hd = x.shape

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad.reshape(b, n, h, hd).transpose(0, 2, 1, 3))

    merged = x.data.transpose(0, 2, 1, 3).reshape(b, n, h * hd)
    return x._make(merged, (x,), backward, "merge_heads")


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    dropout: Dropout | None = None,
    mask: np.ndarray | None = None,
) -> Tensor:
    """``softmax(q kᵀ / √hd + mask) v`` over the last two axes of batched
    ``[..., N, hd]`` operands, one autograd node.

    *mask* is an additive constant broadcast onto the scores (in their
    dtype).  A mask with as many axes as the scores ``[L, ...]`` and a
    leading axis ``G`` dividing ``L`` is broadcast onto the scores viewed as
    ``[L/G, G, ...]``, so it repeats every ``G`` batch rows (Swin's
    ``[nW, 1, T, T]`` window mask over ``B·nW`` windows).  *dropout* acts
    on the attention weights (its ``p``, ``rng`` — one ``random`` draw —
    and ``training`` flag).  The node keeps the
    attention weights (and the dropout mask); its hand-written backward
    replays the composite chain's numpy calls (matmul, scale, softmax,
    dropout, matmul), so values, gradients and FLOP books are bitwise the
    composite's.
    """
    qd, kd, vd = q.data, k.data, v.data
    attn = qd @ np.swapaxes(kd, -1, -2)                            # scores
    add_flops(2 * attn.size * qd.shape[-1], "matmul")
    scale = np.asarray(1.0 / float(np.sqrt(qd.shape[-1])), dtype=attn.dtype)
    attn *= scale
    if mask is not None:
        grouped = attn if mask.ndim < attn.ndim else attn.reshape(-1, mask.shape[0], *attn.shape[1:])
        grouped += mask                                            # a view: adds into attn
    attn -= attn.max(axis=-1, keepdims=True)                      # softmax, in place
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    add_flops(5 * attn.size, "softmax")
    drop = None
    if dropout is not None and dropout.training and dropout.p > 0.0:
        keep = 1.0 - dropout.p
        drop = (dropout.rng.random(attn.shape) < keep).astype(attn.dtype) / keep
    attn_d = attn if drop is None else attn * drop
    out = attn_d @ vd
    add_flops(2 * out.size * attn_d.shape[-1], "matmul")
    tracker = current_tracker()
    if tracker is not None:
        for a in [attn] if drop is None else [attn, drop, attn_d]:
            tracker.register(a, a.nbytes)

    def backward(grad: np.ndarray) -> None:
        if v.requires_grad:
            g_v = np.swapaxes(attn_d, -1, -2) @ grad
            add_flops(2 * g_v.size * attn_d.shape[-2], "matmul_bwd")
            v._accumulate(g_v, True)
        if not (q.requires_grad or k.requires_grad):
            return
        g = grad @ np.swapaxes(vd, -1, -2)                        # d attn_d
        add_flops(2 * g.size * grad.shape[-1], "matmul_bwd")
        if drop is not None:
            g *= drop
        inner = (g * attn).sum(axis=-1, keepdims=True)            # softmax backward
        g -= inner
        g *= attn
        g *= scale
        if q.requires_grad:
            g_q = g @ kd
            add_flops(2 * g_q.size * g.shape[-1], "matmul_bwd")
            q._accumulate(g_q, True)
        if k.requires_grad:
            g_kt = np.swapaxes(qd, -1, -2) @ g
            add_flops(2 * g_kt.size * qd.shape[-2], "matmul_bwd")
            k._accumulate(np.swapaxes(g_kt, -1, -2), True)

    return q._make(out, (q, k, v), backward, "attention")


def channel_query_attention(
    x: Tensor,
    query_tokens: Tensor,
    q_proj: Linear,
    kv_proj: Linear,
    heads: int,
    dropout: Dropout | None = None,
) -> Tensor:
    """Learned-query attention over the channel axis, query absorbed into the
    key weights (module docstring): ``[B, C, N, D] -> [B*N, Q, heads*hd]``,
    heads merged, ready for the output projection.

    ``q_proj`` (``D -> heads*hd``) and ``kv_proj`` (``D -> 2*heads*hd``, keys
    then values) may be the full layers or a tensor-parallel rank's column
    shards with ``heads`` the local head count.  *dropout* acts on the
    attention weights (its ``p``, ``rng`` and ``training`` flag).
    """
    d = x.shape[-1]
    if d != q_proj.in_features:
        raise ValueError(f"expected dim {q_proj.in_features}, got {d}")
    nq = query_tokens.shape[0]
    hd = q_proj.out_features // heads

    # Weight side, independent of the input: a handful of [D, D]-sized nodes.
    q = q_proj(query_tokens) * (1.0 / float(np.sqrt(hd)))         # [Q, h*hd]
    q = q.reshape(nq, heads, hd).transpose(1, 2, 0)               # [h, hd, Q]
    w_kv = kv_proj.weight.reshape(d, 2, heads, hd).transpose(1, 2, 0, 3)  # [2, h, D, hd]
    b_kv = kv_proj.bias.reshape(2, heads, 1, hd)
    w_score = (w_kv[0] @ q).transpose(1, 0, 2).reshape(d, heads * nq)  # [D, h*Q]
    b_score = (b_kv[0] @ q).reshape(heads * nq)
    return pool_channels(x, w_score, b_score, w_kv[1], b_kv[1], nq, dropout)


def pool_channels(
    x: Tensor,
    w_score: Tensor,
    b_score: Tensor,
    w_v: Tensor,
    b_v: Tensor,
    num_queries: int,
    dropout: Dropout | None = None,
) -> Tensor:
    """The token side of :func:`channel_query_attention` as one autograd
    node: ``x`` ``[B, C, N, D]``, ``w_score`` ``[D, h*Q]``, ``b_score``
    ``[h*Q]``, ``w_v`` ``[h, D, hd]``, ``b_v`` ``[h, 1, hd]`` →
    ``[B*N, Q, h*hd]``.

    Scores, softmax over channels, dropout, pooling, ``Σ_c attn · b_v`` and
    the value projection run as plain numpy on arrays the node keeps; the
    backward is written by hand and runs the composite chain's numpy calls
    in its order and layouts, so values and gradients are bitwise the
    composite's.  The ``[B*N, C, D]`` tokens are a view of ``x`` when ``x``
    comes from :func:`~repro.nn.patch_embed.tokenize_channels`.
    """
    b, c, n, d = x.shape
    heads, hd = w_v.shape[0], w_v.shape[-1]
    bn, nq, hq = b * n, num_queries, w_score.shape[-1]

    def by_head(a: np.ndarray) -> np.ndarray:                     # [B*N, h*Q, k] -> [h, B*N*Q, k]
        return a.reshape(bn, heads, nq, -1).transpose(1, 0, 2, 3).reshape(heads, bn * nq, -1)

    def by_location(a: np.ndarray) -> np.ndarray:                 # the inverse of by_head
        return a.reshape(heads, bn, nq, -1).transpose(1, 0, 2, 3).reshape(bn, hq, -1)

    tokens = x.data.transpose(0, 2, 1, 3).reshape(bn, c, d)       # [B*N, C, D]
    scores = (tokens.reshape(-1, d) @ w_score.data).reshape(bn, c, hq) + b_score.data
    add_flops(2 * scores.size * d, "matmul")
    s = scores.swapaxes(-1, -2)                                   # [B*N, h*Q, C]
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    add_flops(5 * attn.size, "softmax")
    mask = None
    if dropout is not None and dropout.training and dropout.p > 0.0:
        keep = 1.0 - dropout.p
        mask = (dropout.rng.random(attn.shape) < keep).astype(attn.dtype) / keep
    attn_d = attn if mask is None else attn * mask
    pooled = by_head(attn_d @ tokens)                             # [h, B*N*Q, D]
    add_flops(2 * pooled.size * c, "matmul")
    mass = by_head(attn_d.sum(axis=-1, keepdims=True))            # [h, B*N*Q, 1]: Σ_c attn
    # batched x batched on purpose: [B*N, h, Q, D] @ [h, D, hd] would broadcast
    # W_v and rebuild a [B*N, h, D, hd] temporary in its dW backward.
    out = np.empty((bn, nq, heads, hd), dtype=np.result_type(pooled, w_v.data, mass, b_v.data))
    out_h = out.reshape(bn * nq, heads, hd).transpose(1, 0, 2)    # [h, B*N*Q, hd] view
    np.matmul(pooled, w_v.data, out=out_h)
    add_flops(2 * out_h.size * d, "matmul")
    out_h += mass * b_v.data
    tracker = current_tracker()
    if tracker is not None:
        kept = [attn, pooled, mass, out]
        if mask is not None:
            kept += [mask, attn_d]
        if not np.may_share_memory(tokens, x.data):
            kept.append(tokens)
        for a in kept:
            tracker.register(a, a.nbytes)

    attn_needs_grad = x.requires_grad or w_score.requires_grad or b_score.requires_grad

    def backward(grad: np.ndarray) -> None:
        g_out = np.ascontiguousarray(grad.reshape(bn * nq, heads, hd).transpose(1, 0, 2))
        if b_v.requires_grad:
            b_v._accumulate((g_out * mass).sum(axis=1, keepdims=True), True)
        if w_v.requires_grad:
            g_wv = np.swapaxes(pooled, -1, -2) @ g_out
            add_flops(2 * g_wv.size * pooled.shape[-2], "matmul_bwd")
            w_v._accumulate(g_wv, True)
        if not attn_needs_grad:
            return
        g_pooled = g_out @ np.swapaxes(w_v.data, -1, -2)
        add_flops(2 * g_pooled.size * hd, "matmul_bwd")
        g_pooled = by_location(g_pooled)                          # [B*N, h*Q, D]
        g_attn = g_pooled @ np.swapaxes(tokens, -1, -2)           # [B*N, h*Q, C]
        add_flops(2 * g_attn.size * d, "matmul_bwd")
        g_attn += by_location((g_out * b_v.data).sum(axis=2, keepdims=True))
        if mask is not None:
            g_attn = g_attn * mask
        inner = (g_attn * attn).sum(axis=-1, keepdims=True)       # softmax backward
        g_scores = np.ascontiguousarray(np.swapaxes(attn * (g_attn - inner), -1, -2))
        if b_score.requires_grad:
            b_score._accumulate(g_scores.sum(axis=(0, 1)), True)
        g_flat = g_scores.reshape(-1, hq)                         # [B*N*C, h*Q]
        if w_score.requires_grad:
            g_ws = np.swapaxes(tokens.reshape(-1, d), -1, -2) @ g_flat
            add_flops(2 * g_ws.size * g_flat.shape[0], "matmul_bwd")
            w_score._accumulate(g_ws, True)
        if x.requires_grad:
            g_tok = (g_flat @ np.swapaxes(w_score.data, -1, -2)).reshape(bn, c, d)
            add_flops(2 * g_tok.size * hq, "matmul_bwd")
            g_pool_tok = np.swapaxes(attn_d, -1, -2) @ g_pooled
            add_flops(2 * g_pool_tok.size * hq, "matmul_bwd")
            g_tok += g_pool_tok
            x._accumulate(g_tok.reshape(b, n, c, d).transpose(0, 2, 1, 3), True)

    parents = (x, w_score, b_score, w_v, b_v)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    return Tensor(
        out.reshape(bn, nq, heads * hd),
        requires_grad=requires,
        _parents=parents if requires else (),
        _backward=backward if requires else None,
        op="channel_pool",
    )


class MultiHeadSelfAttention(Module):
    """Standard ViT self-attention over the token axis: q, k and v are head
    views of one qkv output, attended by one kernel node.

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
        """The attention kernel on split heads, ``[B, h, N, hd]`` each; the
        hook sequence parallelism wraps in its all-to-alls."""
        return scaled_dot_product_attention(q, k, v, self.attn_drop)

    def forward(self, x: Tensor) -> Tensor:
        qkv = self.qkv(x)  # [B, N, 3D]
        q, k, v = (split_heads(qkv, self.heads, i, 3) for i in range(3))
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
