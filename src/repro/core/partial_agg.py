"""The partial-channel aggregation module (paper §3.3, Fig. 4).

One per D-CHAG rank: reduces the rank's channel subset to a single channel
through the hierarchical tree of :mod:`repro.core.tree`.  Units are either
cross-attention (``kind="cross"`` → the D-CHAG-C variant), lightweight
linear channel mixers (``kind="linear"`` → D-CHAG-L, the paper's best
performer), or Perceiver fusion blocks (``kind="perceiver"`` — the
Aurora-style module §3.5 predicts benefits from the most).  The *final*
aggregation layer shared across ranks always stays cross-attention (§3.3) —
that layer lives in :class:`repro.core.dchag.DCHAG`, not here.
"""

from __future__ import annotations

import numpy as np

from ..nn import ChannelCrossAttention, LinearChannelMixer, Module, ModuleList
from ..nn.perceiver import PerceiverChannelFusion
from ..tensor import Tensor
from .tree import TreeSpec, build_tree

__all__ = ["PartialChannelAggregator", "AGGREGATOR_KINDS"]

AGGREGATOR_KINDS = ("linear", "cross", "perceiver")


class _Reduce1(Module):
    """Adapter: a ``[B,C,N,D] -> [B,N,D]`` fusion module used as a tree unit."""

    def __init__(self, inner: Module) -> None:
        super().__init__()
        self.inner = inner

    def forward(self, x: Tensor) -> Tensor:
        return self.inner(x)


class PartialChannelAggregator(Module):
    """Hierarchically reduce ``[B, local_C, N, D] -> [B, 1, N, D]``."""

    def __init__(
        self,
        local_channels: int,
        dim: int,
        heads: int,
        rng: np.random.Generator,
        fanout: int = 0,
        kind: str = "linear",
    ) -> None:
        super().__init__()
        if kind not in AGGREGATOR_KINDS:
            raise ValueError(f"kind must be one of {AGGREGATOR_KINDS}, got {kind!r}")
        self.kind = kind
        self.dim = dim
        self.heads = heads
        self.spec: TreeSpec = build_tree(local_channels, fanout)

        def make_unit(c_in: int) -> Module:
            if kind == "cross":
                return ChannelCrossAttention(dim, heads, rng, num_queries=1)
            if kind == "perceiver":
                return _Reduce1(PerceiverChannelFusion(dim, heads, rng, num_latents=2, iterations=1))
            return LinearChannelMixer(c_in, 1, rng)

        self.units = ModuleList([make_unit(c) for c in self.spec.group_sizes])
        self.root = make_unit(len(self.spec.group_sizes)) if self.spec.has_root else None

    def forward(self, tokens: Tensor) -> Tensor:
        """*tokens*: ``[B, local_C, N, D]`` → ``[B, 1, N, D]``."""
        b, c, n, d = tokens.shape
        if c != self.spec.local_channels:
            raise ValueError(f"expected {self.spec.local_channels} channels, got {c}")
        outputs: list[Tensor] = []
        offset = 0
        for unit, size in zip(self.units, self.spec.group_sizes):
            chunk = tokens[:, offset : offset + size]        # [B, size, N, D]
            out = unit(chunk)                                 # [B, N, D]
            outputs.append(out.expand_dims(1))                # [B, 1, N, D]
            offset += size
        if self.root is None:
            return outputs[0]
        mid = Tensor.concat(outputs, axis=1)                  # [B, fanout, N, D]
        return self.root(mid).expand_dims(1)                  # [B, 1, N, D]
