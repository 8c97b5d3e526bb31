"""The generic multi-channel foundation model of paper Fig. 1.

Composition-first design: the **channel front-end** (tokenization + channel
aggregation) and the **ViT encoder** are injected, so the same model class
runs serially, under TP, or with D-CHAG:

* serial:      ``SerialChannelFrontend`` + ``ViTEncoder``
* TP baseline: the serial modules rewritten by ``repro.parallel.tensor_parallel``
* D-CHAG:      ``repro.core.DCHAG`` + either encoder

Any front-end is a module mapping ``[B, C, H, W] -> [B, N, D]``.
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    ChannelCrossAttention,
    ChannelIDEmbedding,
    LinearChannelMixer,
    MetadataEmbedding,
    Module,
    PatchTokenizer,
    PositionalEmbedding,
    ViTEncoder,
)
from ..tensor import Tensor

__all__ = ["SerialChannelFrontend", "ChannelViT", "unpatchify_tokens"]


class SerialChannelFrontend(Module):
    """Single-device channel stage: tokenize → +channel IDs → aggregate.

    ``agg`` selects the aggregation layer: ``"cross"`` (the paper's
    baseline single cross-attention) or ``"linear"`` (ablation).
    """

    def __init__(
        self,
        channels: int,
        patch: int,
        dim: int,
        heads: int,
        rng: np.random.Generator,
        agg: str = "cross",
    ) -> None:
        super().__init__()
        self.channels = channels
        self.tokenizer = PatchTokenizer(channels, patch, dim, rng)
        self.channel_ids = ChannelIDEmbedding(channels, dim, rng)
        if agg == "cross":
            self.aggregator: Module = ChannelCrossAttention(dim, heads, rng, num_queries=1)
        elif agg == "linear":
            self.aggregator = LinearChannelMixer(channels, 1, rng)
        else:
            raise ValueError(f"agg must be 'cross' or 'linear', got {agg!r}")

    def forward(self, images: np.ndarray) -> Tensor:
        tokens = self.channel_ids(self.tokenizer(images))
        return self.aggregator(tokens)


class ChannelViT(Module):
    """Front-end + positional embedding + optional metadata token + ViT.

    ``forward`` returns the encoded spatial tokens ``[B, N, D]`` (the
    metadata token, when present, is consumed inside and stripped), ready
    for a task head (MAE decoder, forecasting head, …).
    """

    def __init__(
        self,
        frontend: Module,
        encoder: Module,
        num_tokens: int,
        dim: int,
        rng: np.random.Generator,
        meta_fields: int = 0,
    ) -> None:
        super().__init__()
        self.frontend = frontend
        self.encoder = encoder
        self.pos = PositionalEmbedding(num_tokens, dim, rng)
        self.meta = MetadataEmbedding(meta_fields, dim, rng) if meta_fields else None
        self.num_tokens = num_tokens

    def forward(self, images: np.ndarray, metadata: np.ndarray | None = None) -> Tensor:
        tokens = self.pos(self.frontend(images))            # [B, N, D]
        if self.meta is not None:
            if metadata is None:
                raise ValueError("model was built with meta_fields but got no metadata")
            tokens = Tensor.concat([tokens, self.meta(metadata)], axis=1)  # [B, N+1, D]
        encoded = self.encoder(tokens)
        if self.meta is not None:
            encoded = encoded[:, : self.num_tokens]
        return encoded


def unpatchify_tokens(tokens: Tensor, patch: int, grid_h: int, grid_w: int, channels: int) -> Tensor:
    """Differentiable inverse tokenization:
    ``[B, N, p²·C] -> [B, C, gh·p, gw·p]`` with ``N = gh·gw``."""
    b, n, _ = tokens.shape
    if n != grid_h * grid_w:
        raise ValueError(f"{n} tokens but grid is {grid_h}x{grid_w}")
    x = tokens.reshape(b, grid_h, grid_w, patch, patch, channels)
    x = x.transpose(0, 5, 1, 3, 2, 4)  # [B, C, gh, p, gw, p]
    return x.reshape(b, channels, grid_h * patch, grid_w * patch)
