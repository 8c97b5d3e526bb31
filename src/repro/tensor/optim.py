"""Optimizers over lists of parameter tensors (SGD, AdamW).

AdamW matches the PyTorch semantics used by the paper's training runs
(decoupled weight decay, bias-corrected moments).  Optimizer state arrays are
registered with the active memory tracker so the measured footprint includes
the "optimizer states" component that FSDP shards in the paper.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .arena import ParamArena, arena_span
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
    """Base class: holds parameters in one :class:`ParamArena` per dtype,
    provides ``zero_grad``."""

    def __init__(self, params: Iterable[Tensor]) -> None:
        self.params: list[Tensor] = [p for p in params]
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        by_dtype: dict[np.dtype, list[Tensor]] = {}
        for p in self.params:
            by_dtype.setdefault(p.data.dtype, []).append(p)
        self._groups = [(ParamArena(ps), ps) for ps in by_dtype.values()]
        dtypes = list(by_dtype)  # (arena index, index in it) per parameter:
        self._slots = [(dtypes.index(p.data.dtype), p._arena[1]) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _live_runs(self):
        """``(arena index, arena, elements)`` per run of params with a grad."""
        for i, (arena, ps) in enumerate(self._groups):
            for run in arena.runs(arena.adopt_grads(ps)):
                yield i, arena, run

    def _views(self, flats: list[np.ndarray]) -> list[np.ndarray]:
        """Per-parameter views of per-arena flat buffers, in ``self.params`` order."""
        return [self._groups[g][0].view(flats[g], k) for g, k in self._slots]

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
        self._velocity = [a.zeros(a.dtype) for a, _ in self._groups] if momentum else []

    def step(self) -> None:
        for i, arena, run in self._live_runs():
            data, g = arena.data[run], arena.grad[run]
            if self.weight_decay:
                data *= 1.0 - self.lr * self.weight_decay
            if self.momentum:
                v = self._velocity[i][run]
                v *= self.momentum
                v += g
                g = v
            data -= self.lr * g


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
        self._m = [a.zeros(np.float32) for a, _ in self._groups]  # flat, per arena
        self._v = [a.zeros(np.float32) for a, _ in self._groups]
        # Two work arrays per dtype, sized for the largest block; step()
        # writes every intermediate into views of them.
        size = max(a.offsets[j] - a.offsets[i] for a, _ in self._groups for i, j in a.blocks)
        dtypes = {np.dtype(np.float32)} | {a.dtype for a, _ in self._groups}
        self._scratch = {dt: np.empty((2, size), dtype=dt) for dt in dtypes}

    def step(self) -> None:
        self._step += 1
        t = self._step
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for i, arena, run in self._live_runs():
            g, data, m, v = arena.grad[run], arena.data[run], self._m[i][run], self._v[i][run]
            # Same operations in the same order as the textbook form
            #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            #   p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
            # (bitwise identical, elementwise), with no temporaries.
            s1, s2 = self._scratch[m.dtype][:, : m.size]
            sg = s1 if g.dtype == m.dtype else self._scratch[g.dtype][0, : g.size]
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=sg)
            v *= self.beta2
            np.multiply(g, g, out=sg)
            sg *= 1.0 - self.beta2
            v += sg
            if self.weight_decay:
                data *= 1.0 - self.lr * self.weight_decay
            np.divide(m, bc1, out=s1)
            s1 *= self.lr
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 /= s2
            data -= s1

    def state_dict(self) -> dict:
        """Snapshot the per-parameter moments and step count for
        checkpointing (zeros for never-stepped parameters)."""
        return {
            "step": self._step,
            "m": [m.copy() for m in self._views(self._m)],
            "v": [v.copy() for v in self._views(self._v)],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (shapes must match params),
        copying it into the arenas."""
        ms, vs = state["m"], state["v"]
        if len(ms) != len(self.params) or len(vs) != len(self.params):
            raise ValueError(
                f"optimizer state for {len(ms)} params cannot load into {len(self.params)}"
            )
        for i, (m_home, v_home) in enumerate(zip(self._views(self._m), self._views(self._v))):
            m = np.asarray(ms[i], dtype=np.float32)
            v = np.asarray(vs[i], dtype=np.float32)
            if m.shape != m_home.shape or v.shape != m_home.shape:
                raise ValueError(
                    f"optimizer state shape {m.shape}/{v.shape} does not match "
                    f"parameter shape {m_home.shape}"
                )
            m_home[...] = m
            v_home[...] = v
        self._step = int(state["step"])

    def state_bytes(self) -> int:
        """Bytes held by optimizer state (for memory accounting tests)."""
        return sum(m.nbytes for m in self._m) + sum(v.nbytes for v in self._v)


def grad_squared_sum(params: Sequence[Tensor]) -> float:
    """Sum of squared gradient entries over *params* (float64 accumulate).

    The local half of global-norm clipping — distributed variants AllReduce
    this before applying :func:`apply_clip_scale`.  Per-parameter sums are
    added in parameter order (over an arena, squared block by block).
    """
    span = arena_span(params)
    if span is not None:
        arena, lo = span
        sums = arena.squared_sums(arena.adopt_grads(params, lo), lo)
    else:
        sums = (float((p.grad.astype(np.float64) ** 2).sum()) for p in params if p.grad is not None)
    sq = 0.0
    for s in sums:  # sequential: sum() compensates on newer CPython
        sq += s
    return sq


def apply_clip_scale(params: Sequence[Tensor], norm: float, max_norm: float) -> None:
    """Scale every gradient by ``max_norm / norm`` when *norm* exceeds it."""
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        span = arena_span(params)
        if span is not None:  # one pass; a None grad's stale home is never read
            arena, lo = span
            arena.adopt_grads(params, lo)
            arena.grad[arena.offsets[lo] : arena.offsets[lo + len(params)]] *= scale
            return
        for p in params:
            if p.grad is not None:
                p.grad *= scale


def clip_grad_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Global-norm gradient clipping; returns the pre-clip norm."""
    norm = float(np.sqrt(grad_squared_sum(params)))
    apply_clip_scale(params, norm, max_norm)
    return norm
