"""Swin-style hierarchical windowed self-attention (paper §3.5).

The paper points out that Aurora replaces the plain ViT with a Swin
Transformer, whose windowed attention supports longer token sequences —
which *increases* the tokenization/aggregation share of the workload and
therefore the benefit of D-CHAG.  This module provides that encoder variant:

* :func:`window_partition` / :func:`window_reverse` — grid ↔ window views;
* :class:`WindowAttention` — MHSA within windows, optional additive mask;
* :class:`SwinBlock` — W-MSA / SW-MSA with cyclic shift and the standard
  shifted-window attention mask;
* :class:`SwinEncoder` — a drop-in replacement for
  :class:`~repro.nn.transformer.ViTEncoder` over ``[B, N, D]`` tokens on a
  known (gh, gw) grid (no patch merging, so token count is preserved and the
  MAE decoder / forecasting head need no change — matching §3.5's claim that
  D-CHAG is agnostic to the ViT architecture).
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from .attention import merge_heads, scaled_dot_product_attention, split_heads
from .layers import LayerNorm, Linear, MLP
from .module import Module, ModuleList

__all__ = [
    "window_partition",
    "window_reverse",
    "WindowAttention",
    "SwinBlock",
    "SwinEncoder",
    "PatchMerging",
    "HierarchicalSwinEncoder",
]


def window_partition(x: Tensor, window: int) -> Tensor:
    """[B, gh, gw, D] -> [B·nW, window², D] (row-major window order)."""
    b, gh, gw, d = x.shape
    if gh % window or gw % window:
        raise ValueError(f"grid {gh}x{gw} not divisible by window {window}")
    x = x.reshape(b, gh // window, window, gw // window, window, d)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(b * (gh // window) * (gw // window), window * window, d)


def window_reverse(x: Tensor, window: int, gh: int, gw: int) -> Tensor:
    """Inverse of :func:`window_partition`."""
    nw = (gh // window) * (gw // window)
    b = x.shape[0] // nw
    x = x.reshape(b, gh // window, gw // window, window, window, x.shape[-1])
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(b, gh, gw, x.shape[-1])


def _roll2d(x: Tensor, shift: int) -> Tensor:
    """Cyclic shift of a [B, gh, gw, D] grid by (-shift, -shift) (or back
    for positive), built from differentiable slicing + concat."""
    if shift == 0:
        return x
    s = shift % x.shape[1]
    x = Tensor.concat([x[:, s:], x[:, :s]], axis=1)
    s = shift % x.shape[2]
    return Tensor.concat([x[:, :, s:], x[:, :, :s]], axis=2)


def shifted_window_mask(gh: int, gw: int, window: int, shift: int) -> np.ndarray:
    """Additive attention mask ``[nW, window², window²]`` preventing tokens
    that were non-adjacent before the cyclic shift from attending to each
    other (the standard Swin construction)."""
    img = np.zeros((1, gh, gw, 1), dtype=np.float32)
    cnt = 0
    slices = (slice(0, -window), slice(-window, -shift), slice(-shift, None))
    for hs in slices:
        for ws in slices:
            img[:, hs, ws, :] = cnt
            cnt += 1
    windows = window_partition(Tensor(img), window).data.reshape(-1, window * window)
    diff = windows[:, None, :] - windows[:, :, None]
    return np.where(diff != 0, -1e9, 0.0).astype(np.float32)


class WindowAttention(Module):
    """Multi-head self-attention within windows, with an optional additive
    per-window mask (for the shifted configuration)."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.qkv = Linear(dim, 3 * dim, rng)
        self.proj = Linear(dim, dim, rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """*x*: [B·nW, T, D]; *mask*: [nW, T, T] additive, or None."""
        qkv = self.qkv(x)
        q, k, v = (split_heads(qkv, self.heads, i, 3) for i in range(3))
        if mask is not None:                     # [nW, 1, T, T]: repeats every nW windows
            mask = mask[:, None]
        return self.proj(merge_heads(scaled_dot_product_attention(q, k, v, mask=mask)))


class SwinBlock(Module):
    """One Swin block: (shifted-)window attention + MLP, pre-norm."""

    def __init__(
        self,
        dim: int,
        heads: int,
        grid: tuple[int, int],
        window: int,
        shift: int,
        rng: np.random.Generator,
        mlp_ratio: float = 4.0,
    ) -> None:
        super().__init__()
        gh, gw = grid
        if shift and (shift >= window):
            raise ValueError("shift must be < window")
        self.grid = grid
        self.window = window
        self.shift = shift
        self.norm1 = LayerNorm(dim)
        self.attn = WindowAttention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = MLP(dim, int(dim * mlp_ratio), rng)
        self._mask = shifted_window_mask(gh, gw, window, shift) if shift else None

    def forward(self, x: Tensor) -> Tensor:
        """[B, N, D] with N = gh·gw."""
        b, n, d = x.shape
        gh, gw = self.grid
        if n != gh * gw:
            raise ValueError(f"{n} tokens but grid is {gh}x{gw}")
        h = self.norm1(x).reshape(b, gh, gw, d)
        if self.shift:
            h = _roll2d(h, self.shift)                       # shift by (-s, -s)
        wins = window_partition(h, self.window)
        wins = self.attn(wins, mask=self._mask)
        h = window_reverse(wins, self.window, gh, gw)
        if self.shift:
            h = _roll2d(h, -self.shift)                      # roll back
        x = x + h.reshape(b, n, d)
        return x + self.mlp(self.norm2(x))


class SwinEncoder(Module):
    """A stack of alternating W-MSA / SW-MSA blocks + final norm.

    Drop-in for :class:`~repro.nn.transformer.ViTEncoder` when the token
    grid is known: ``[B, N, D] -> [B, N, D]``.
    """

    def __init__(
        self,
        dim: int,
        depth: int,
        heads: int,
        grid: tuple[int, int],
        window: int,
        rng: np.random.Generator,
        mlp_ratio: float = 4.0,
    ) -> None:
        super().__init__()
        gh, gw = grid
        if gh % window or gw % window:
            raise ValueError(f"grid {grid} not divisible by window {window}")
        shift = window // 2 if min(gh, gw) > window else 0
        self.dim = dim
        self.depth = depth
        self.grid = grid
        self.window = window
        self.blocks = ModuleList(
            [
                SwinBlock(dim, heads, grid, window, shift if i % 2 else 0, rng, mlp_ratio)
                for i in range(depth)
            ]
        )
        self.norm = LayerNorm(dim)

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return self.norm(x)


class PatchMerging(Module):
    """Swin's downsampling layer: 2×2 neighbourhoods concatenate to ``4D``
    and project to ``2D`` — halves the grid, doubles the width."""

    def __init__(self, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.dim = dim
        self.norm = LayerNorm(4 * dim)
        self.reduction = Linear(4 * dim, 2 * dim, rng, bias=False)

    def forward(self, x: Tensor, grid: tuple[int, int]) -> tuple[Tensor, tuple[int, int]]:
        """[B, gh·gw, D] -> ([B, gh/2·gw/2, 2D], (gh/2, gw/2))."""
        gh, gw = grid
        if gh % 2 or gw % 2:
            raise ValueError(f"grid {grid} must be even for merging")
        b, n, d = x.shape
        if n != gh * gw or d != self.dim:
            raise ValueError(f"tokens {x.shape} inconsistent with grid {grid} / dim {self.dim}")
        g = x.reshape(b, gh // 2, 2, gw // 2, 2, d)
        g = g.transpose(0, 1, 3, 2, 4, 5).reshape(b, (gh // 2) * (gw // 2), 4 * d)
        return self.reduction(self.norm(g)), (gh // 2, gw // 2)


class HierarchicalSwinEncoder(Module):
    """Multi-stage Swin: blocks at each resolution with PatchMerging between.

    ``depths`` gives blocks per stage; width doubles and the grid halves at
    every merge (the "hierarchical approach to self-attention" §3.5 cites as
    increasing the tokenization/aggregation share of the workload).  Output:
    ``[B, N / 4^(S-1), D · 2^(S-1)]``.
    """

    def __init__(
        self,
        dim: int,
        depths: tuple[int, ...],
        heads: int,
        grid: tuple[int, int],
        window: int,
        rng: np.random.Generator,
        mlp_ratio: float = 4.0,
    ) -> None:
        super().__init__()
        if not depths:
            raise ValueError("need at least one stage")
        self.grid = grid
        self.stages = ModuleList()
        self.merges = ModuleList()
        g = grid
        d = dim
        for si, depth in enumerate(depths):
            if g[0] % window or g[1] % window:
                raise ValueError(f"stage {si} grid {g} not divisible by window {window}")
            shift = window // 2 if min(g) > window else 0
            self.stages.append(
                ModuleList(
                    [
                        SwinBlock(d, heads, g, window, shift if i % 2 else 0, rng, mlp_ratio)
                        for i in range(depth)
                    ]
                )
            )
            if si < len(depths) - 1:
                self.merges.append(PatchMerging(d, rng))
                g = (g[0] // 2, g[1] // 2)
                d *= 2
        self.out_dim = d
        self.out_grid = g
        self.norm = LayerNorm(d)

    def forward(self, x: Tensor) -> Tensor:
        g = self.grid
        for si, stage in enumerate(self.stages):
            for block in stage:
                x = block(x)
            if si < len(self.merges):
                x, g = self.merges[si](x, g)
        return self.norm(x)
