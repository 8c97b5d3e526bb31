"""Primitive layers: Linear, LayerNorm, MLP, Dropout.

A :class:`Linear` can be constructed either from a fresh RNG or from
explicit weight arrays — the latter is how
:func:`repro.parallel.tensor_parallel` builds a rank's shards from the
serial layer's weights.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, functional as F, init
from .module import Module

__all__ = ["Linear", "LayerNorm", "MLP", "Dropout", "Identity"]


class Linear(Module):
    """Affine map ``y = x @ W + b`` with ``W`` of shape ``[in, out]``, one
    autograd node (:func:`~repro.tensor.functional.linear`)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        bias: bool = True,
        weight: np.ndarray | None = None,
        bias_value: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        if weight is not None:
            if weight.shape != (in_features, out_features):
                raise ValueError(f"weight shape {weight.shape} != {(in_features, out_features)}")
            self.weight = Tensor(np.asarray(weight, dtype=np.float32), requires_grad=True)
        else:
            if rng is None:
                raise ValueError("Linear needs either rng or an explicit weight")
            self.weight = init.trunc_normal((in_features, out_features), rng, std=0.02)
        self.has_bias = bias
        if bias:
            if bias_value is not None:
                self.bias = Tensor(np.asarray(bias_value, dtype=np.float32), requires_grad=True)
            else:
                self.bias = init.zeros((out_features,))

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias if self.has_bias else None)


class LayerNorm(Module):
    """Layer normalisation over the last axis with learned affine."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = init.ones((dim,))
        self.bias = init.zeros((dim,))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Dropout(Module):
    """Inverted dropout; seeded per-module for reproducibility."""

    def __init__(self, p: float, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class MLP(Module):
    """Transformer feed-forward: Linear → GELU → Linear (+dropout)."""

    def __init__(
        self,
        dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.fc1 = Linear(dim, hidden_dim, rng)
        self.fc2 = Linear(hidden_dim, dim, rng)
        self.drop = Dropout(dropout, rng) if dropout > 0 else Identity()

    def forward(self, x: Tensor) -> Tensor:
        return self.drop(self.fc2(F.gelu(self.fc1(x))))
