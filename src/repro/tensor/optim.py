"""Optimizers over lists of parameter tensors (SGD, AdamW).

AdamW matches the PyTorch semantics used by the paper's training runs
(decoupled weight decay, bias-corrected moments).  Optimizer state arrays are
registered with the active memory tracker so the measured footprint includes
the "optimizer states" component that FSDP shards in the paper.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .memory import current_tracker
from .tensor import Tensor

__all__ = [
    "Optimizer",
    "SGD",
    "AdamW",
    "clip_grad_norm",
    "grad_squared_sum",
    "apply_clip_scale",
]


class Optimizer:
    """Base class: holds parameters, provides ``zero_grad``."""

    def __init__(self, params: Iterable[Tensor]) -> None:
        self.params: list[Tensor] = [p for p in params]
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Plain SGD with optional momentum and decoupled weight decay."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: list[np.ndarray | None] = [None] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            if self.momentum:
                if self._velocity[i] is None:
                    buf = np.zeros_like(p.data)
                    tracker = current_tracker()
                    if tracker is not None:
                        tracker.register(buf, buf.nbytes)
                    self._velocity[i] = buf
                v = self._velocity[i]
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g


class AdamW(Optimizer):
    """AdamW (decoupled weight decay), the optimizer used throughout the paper."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m: list[np.ndarray | None] = [None] * len(self.params)
        self._v: list[np.ndarray | None] = [None] * len(self.params)
        # Two reusable work arrays per dtype, sized for the largest parameter;
        # step() writes every intermediate into views of them.
        self._scratch: dict[np.dtype, np.ndarray] = {}

    def _scratch_for(self, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        buf = self._scratch.get(like.dtype)
        if buf is None:
            buf = np.empty((2, max(p.data.size for p in self.params)), dtype=like.dtype)
            self._scratch[like.dtype] = buf
        return buf[0, : like.size].reshape(like.shape), buf[1, : like.size].reshape(like.shape)

    def _state_for(self, i: int, p: Tensor) -> tuple[np.ndarray, np.ndarray]:
        if self._m[i] is None:
            m = np.zeros_like(p.data, dtype=np.float32)
            v = np.zeros_like(p.data, dtype=np.float32)
            tracker = current_tracker()
            if tracker is not None:
                tracker.register(m, m.nbytes)
                tracker.register(v, v.nbytes)
            self._m[i], self._v[i] = m, v
        return self._m[i], self._v[i]  # type: ignore[return-value]

    def step(self) -> None:
        self._step += 1
        t = self._step
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            m, v = self._state_for(i, p)
            # Same operations in the same order as the textbook form
            #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            #   p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
            # (bitwise identical), with no per-parameter temporaries.
            s1, s2 = self._scratch_for(m)
            sg = s1 if g.dtype == m.dtype else self._scratch_for(g)[0]
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=sg)
            v *= self.beta2
            np.multiply(g, g, out=sg)
            sg *= 1.0 - self.beta2
            v += sg
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            np.divide(m, bc1, out=s1)
            s1 *= self.lr
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 /= s2
            p.data -= s1

    def state_dict(self) -> dict:
        """Snapshot the moment estimates and step count for checkpointing.

        Uninitialized slots (parameters never stepped) are stored as zeros so
        the snapshot is always dense — loading them back reproduces the same
        update trajectory because fresh state is zero-initialized anyway.
        """
        return {
            "step": self._step,
            "m": [
                (m.copy() if m is not None else np.zeros_like(p.data, dtype=np.float32))
                for m, p in zip(self._m, self.params)
            ],
            "v": [
                (v.copy() if v is not None else np.zeros_like(p.data, dtype=np.float32))
                for v, p in zip(self._v, self.params)
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (shapes must match params)."""
        ms, vs = state["m"], state["v"]
        if len(ms) != len(self.params) or len(vs) != len(self.params):
            raise ValueError(
                f"optimizer state for {len(ms)} params cannot load into {len(self.params)}"
            )
        for i, p in enumerate(self.params):
            m = np.asarray(ms[i], dtype=np.float32)
            v = np.asarray(vs[i], dtype=np.float32)
            if m.shape != p.data.shape or v.shape != p.data.shape:
                raise ValueError(
                    f"optimizer state shape {m.shape}/{v.shape} does not match "
                    f"parameter shape {p.data.shape}"
                )
            self._m[i] = m.copy()
            self._v[i] = v.copy()
        self._step = int(state["step"])

    def state_bytes(self) -> int:
        """Bytes held by optimizer state (for memory accounting tests)."""
        total = 0
        for m in self._m:
            if m is not None:
                total += m.nbytes
        for v in self._v:
            if v is not None:
                total += v.nbytes
        return total


def grad_squared_sum(params: Sequence[Tensor]) -> float:
    """Sum of squared gradient entries over *params* (float64 accumulate).

    The local half of global-norm clipping — distributed variants AllReduce
    this before applying :func:`apply_clip_scale`.
    """
    sq = 0.0
    for p in params:
        if p.grad is not None:
            sq += float((p.grad.astype(np.float64) ** 2).sum())
    return sq


def apply_clip_scale(params: Sequence[Tensor], norm: float, max_norm: float) -> None:
    """Scale every gradient by ``max_norm / norm`` when *norm* exceeds it."""
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale


def clip_grad_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Global-norm gradient clipping; returns the pre-clip norm."""
    norm = float(np.sqrt(grad_squared_sum(params)))
    apply_clip_scale(params, norm, max_norm)
    return norm
