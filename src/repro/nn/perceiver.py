"""Perceiver-style channel fusion (paper §3.5).

Aurora — "one of the latest and most advanced FMs for weather prediction,
employs the Perceiver architecture as the fusion module".  The paper argues
D-CHAG helps such a module even more, because iterative cross-attention is
more compute-intensive than the single cross-attention layer benchmarked in
the main experiments.

:class:`PerceiverChannelFusion` is a drop-in alternative for
:class:`~repro.nn.attention.ChannelCrossAttention`: a small latent array
iteratively cross-attends to the channel tokens (with latent self-attention
in between), and the latents are finally pooled to the single aggregated
representation.  It plugs into :class:`~repro.models.SerialChannelFrontend`
and into D-CHAG partial/final layers alike (``[B, C, N, D] -> [B, N, D]``).
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, init
from .attention import merge_heads, scaled_dot_product_attention, split_heads
from .layers import LayerNorm, Linear, MLP
from .module import Module, ModuleList

__all__ = ["PerceiverChannelFusion"]


class _LatentCrossAttend(Module):
    """latents ← cross-attention over channel tokens (pre-norm, residual)."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.heads = heads
        self.norm_q = LayerNorm(dim)
        self.norm_kv = LayerNorm(dim)
        self.q_proj = Linear(dim, dim, rng)
        self.kv_proj = Linear(dim, 2 * dim, rng)
        self.out_proj = Linear(dim, dim, rng)

    def forward(self, latents: Tensor, tokens: Tensor) -> Tensor:
        q = split_heads(self.q_proj(self.norm_q(latents)), self.heads)
        kv = self.kv_proj(self.norm_kv(tokens))
        k, v = (split_heads(kv, self.heads, i, 2) for i in range(2))
        out = self.out_proj(merge_heads(scaled_dot_product_attention(q, k, v)))
        return latents + out


class _LatentSelfAttend(Module):
    """latent transformer block (pre-norm MHSA + MLP)."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.heads = heads
        self.norm1 = LayerNorm(dim)
        self.qkv = Linear(dim, 3 * dim, rng)
        self.proj = Linear(dim, dim, rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = MLP(dim, 2 * dim, rng)

    def forward(self, latents: Tensor) -> Tensor:
        h = self.norm1(latents)
        qkv = self.qkv(h)
        q, k, v = (split_heads(qkv, self.heads, i, 3) for i in range(3))
        latents = latents + self.proj(merge_heads(scaled_dot_product_attention(q, k, v)))
        return latents + self.mlp(self.norm2(latents))


class PerceiverChannelFusion(Module):
    """Iterative latent cross-attention over the channel axis.

    ``[B, C, N, D] -> [B, N, D]``: at every spatial location, ``num_latents``
    learned latents cross-attend to the C channel tokens ``iterations``
    times (latent self-attention in between), then mean-pool to one vector.
    """

    def __init__(
        self,
        dim: int,
        heads: int,
        rng: np.random.Generator,
        num_latents: int = 4,
        iterations: int = 2,
        weight_tied: bool = True,
    ) -> None:
        super().__init__()
        if num_latents < 1 or iterations < 1:
            raise ValueError("num_latents and iterations must be >= 1")
        self.dim = dim
        self.num_latents = num_latents
        self.iterations = iterations
        self.weight_tied = weight_tied
        self.latents = init.trunc_normal((num_latents, dim), rng, std=0.02)
        n_layers = 1 if weight_tied else iterations
        self.cross = ModuleList([_LatentCrossAttend(dim, heads, rng) for _ in range(n_layers)])
        self.process = ModuleList([_LatentSelfAttend(dim, heads, rng) for _ in range(n_layers)])
        self.out_norm = LayerNorm(dim)

    def forward(self, x: Tensor) -> Tensor:
        b, c, n, d = x.shape
        if d != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {d}")
        tokens = x.transpose(0, 2, 1, 3).reshape(b * n, c, d)        # [B·N, C, D]
        lat = self.latents.expand_dims(0).broadcast_to((b * n, self.num_latents, d))
        for i in range(self.iterations):
            idx = 0 if self.weight_tied else i
            lat = self.cross[idx](lat, tokens)
            lat = self.process[idx](lat)
        pooled = self.out_norm(lat.mean(axis=1))                      # [B·N, D]
        return pooled.reshape(b, n, d)
