"""Special tokens of the paper's architecture (§2.1): channel-ID embeddings,
2-D sinusoidal/learned positional embeddings, and the metadata token (time /
geolocation / lead-time context).
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, init
from .layers import Linear
from .module import Module

__all__ = ["ChannelIDEmbedding", "PositionalEmbedding", "MetadataEmbedding", "sincos_positions"]


def sincos_positions(n: int, dim: int) -> np.ndarray:
    """Fixed 1-D sine/cosine table ``[n, dim]`` (ViT/MAE style)."""
    if dim % 2 != 0:
        raise ValueError("sincos embedding needs an even dim")
    pos = np.arange(n, dtype=np.float64)[:, None]
    omega = 1.0 / (10000 ** (np.arange(dim // 2, dtype=np.float64) / (dim // 2)))
    angles = pos * omega[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1).astype(np.float32)


class ChannelIDEmbedding(Module):
    """A learned ID vector per channel, added before channel aggregation.

    A D-CHAG rank holding channels ``[lo, hi)`` slices the same master table
    (``offset=lo``), so the distributed model matches the serial one.
    """

    def __init__(
        self,
        channels: int,
        dim: int,
        rng: np.random.Generator | None = None,
        table: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        self.channels = channels
        self.dim = dim
        if table is not None:
            if table.shape != (channels, dim):
                raise ValueError(f"table shape {table.shape} != {(channels, dim)}")
            self.table = Tensor(np.asarray(table, dtype=np.float32), requires_grad=True)
        else:
            if rng is None:
                raise ValueError("ChannelIDEmbedding needs rng or explicit table")
            self.table = init.trunc_normal((channels, dim), rng, std=0.02)

    def forward(self, tokens: Tensor) -> Tensor:
        """[B, C, N, D] + id[C, D] (broadcast over batch and space)."""
        b, c, n, d = tokens.shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        return tokens + self.table.reshape(1, c, 1, d)


class PositionalEmbedding(Module):
    """Learned (default) or fixed sin-cos positional embedding over tokens."""

    def __init__(
        self,
        num_tokens: int,
        dim: int,
        rng: np.random.Generator | None = None,
        learned: bool = True,
        table: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        self.num_tokens = num_tokens
        self.dim = dim
        if table is None:
            if learned:
                if rng is None:
                    raise ValueError("learned PositionalEmbedding needs rng")
                self.table = init.trunc_normal((num_tokens, dim), rng, std=0.02)
            else:
                self.table = Tensor(sincos_positions(num_tokens, dim))
        else:
            self.table = Tensor(np.asarray(table, dtype=np.float32), requires_grad=learned)

    def forward(self, tokens: Tensor) -> Tensor:
        """[B, N, D] + pos[N, D] (supports N <= num_tokens, e.g. after masking)."""
        n = tokens.shape[-2]
        if n > self.num_tokens:
            raise ValueError(f"sequence {n} longer than table {self.num_tokens}")
        return tokens + self.table[:n]


class MetadataEmbedding(Module):
    """Embed scalar metadata (time stamp, lead time, geolocation) into a token.

    A two-layer MLP maps ``[B, n_fields] -> [B, 1, D]``, concatenated to the
    spatial tokens before the ViT (paper §2.1).
    """

    def __init__(self, n_fields: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.n_fields = n_fields
        self.fc1 = Linear(n_fields, dim, rng)
        self.fc2 = Linear(dim, dim, rng)

    def forward(self, metadata: Tensor | np.ndarray) -> Tensor:
        x = metadata if isinstance(metadata, Tensor) else Tensor(np.asarray(metadata, dtype=np.float32))
        if x.ndim != 2 or x.shape[1] != self.n_fields:
            raise ValueError(f"metadata must be [B, {self.n_fields}]")
        h = self.fc1(x).tanh()
        out = self.fc2(h)
        return out.expand_dims(1)  # [B, 1, D]
