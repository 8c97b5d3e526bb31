"""One flat parameter arena per dtype (the flat-buffer layout of FSDP/ZeRO).

An optimizer moves its parameters into a :class:`ParamArena`: each ``p.data``
becomes a view of one contiguous buffer, each grad gets a persistent *home*
in a same-size buffer and optimizer state is flat, so elementwise passes run
once per *block* of whole parameters (at most :data:`BLOCK` elements, a
cache-sized working set), bitwise equal to per-parameter ops.  Parameters
stay in their arena: assign ``p.data[...] = value``.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from typing import Iterable, Iterator, Sequence

import numpy as np

from .memory import current_tracker

__all__ = ["BLOCK", "ParamArena", "arena_span", "flat_offsets"]

BLOCK = 1 << 16  # elements per block; a larger parameter is a block alone


def flat_offsets(sizes: Iterable[int]) -> list[int]:
    """Start of each of *sizes* in their flat concatenation, then the total."""
    return list(accumulate((int(n) for n in sizes), initial=0))


class ParamArena:
    """Contiguous data, grads and state for same-dtype parameters; each
    parameter's ``_arena`` is ``(arena, index)``, the arena holds none."""

    def __init__(self, params: Sequence) -> None:
        if len({id(p) for p in params}) != len(params):
            raise ValueError("a parameter is listed twice")
        self.offsets = off = flat_offsets(p.data.size for p in params)
        self.dtype = params[0].data.dtype
        starts = [0]  # each block is a range of whole parameters
        for k in range(1, len(params)):
            if off[k + 1] - off[starts[-1]] > BLOCK:
                starts.append(k)
        self.blocks = list(zip(starts, starts[1:] + [len(params)]))
        self.data, self.grad = self.zeros(self.dtype), self.zeros(self.dtype)
        self.views, self.homes = [], []  # per-parameter data views, grad homes
        for k, p in enumerate(params):
            self.views.append(self.data[off[k] : off[k + 1]].reshape(p.data.shape))
            self.homes.append(self.view(self.grad, k))
            self.views[k][...] = p.data
            p.data, p._arena = self.views[k], (self, k)
        self._squares = np.empty(0)  # clip scratch, grown to the largest block

    def zeros(self, dtype) -> np.ndarray:
        """A tracker-registered flat zero buffer of the arena's size."""
        buf = np.zeros(self.offsets[-1], dtype=dtype)
        tracker = current_tracker()
        if tracker is not None:
            tracker.register(buf, buf.nbytes)
        return buf

    def view(self, flat: np.ndarray, k: int) -> np.ndarray:
        """Parameter *k*'s part of an arena-sized flat buffer."""
        return flat[self.offsets[k] : self.offsets[k + 1]].reshape(self.views[k].shape)

    def adopt_grads(self, params: Sequence, lo: int = 0, zero_missing: bool = False) -> list[bool]:
        """Point each grad of *params* (parameters ``lo, lo + 1, ...``) at
        its home, copying one assigned from outside; returns which have a
        grad.  With *zero_missing* a ``None`` grad becomes a zeroed home.
        Raises if a parameter's ``data`` was rebound off the arena."""
        live = []
        for p, view, home in zip(params, self.views[lo:], self.homes[lo:]):
            if p.data is not view:
                raise RuntimeError(
                    f"a {p.data.shape} parameter was rebound off its optimizer's arena; "
                    "assign in place with p.data[...] = value"
                )
            if p.grad is not home:
                if p.grad is not None:
                    home[...] = p.grad
                elif zero_missing:
                    home.fill(0)
                else:
                    live.append(False)
                    continue
                p.grad = home
            live.append(True)
        return live

    def runs(self, live: Sequence[bool]) -> Iterator[slice]:
        """Element ranges of the runs of parameters with a grad, per block."""
        for i, j in self.blocks:
            for has, ks in groupby(range(i, j), key=live.__getitem__):
                if has:
                    ks = list(ks)
                    yield slice(self.offsets[ks[0]], self.offsets[ks[-1] + 1])

    def squared_sums(self, live: Sequence[bool], lo: int) -> Iterator[float]:
        """Each live parameter's (``lo, lo + 1, ...``) float64 sum of squared
        grads, bitwise ``(g.astype(float64) ** 2).sum()``: numpy sums that as
        ``0 + pairwise(squares)`` while ``np.add.reduceat`` starts a segment
        from its first element, so each segment starts at a zero slot."""
        hi, off = lo + len(live), self.offsets
        for i, j in ((max(i, lo), min(j, hi)) for i, j in self.blocks if i < hi and j > lo):
            slots = [off[k] - off[i] + k - i for k in range(i, j + 1)]
            if self._squares.size < slots[-1]:
                self._squares = np.empty(slots[-1], dtype=np.float64)
            sq = self._squares[: slots[-1]]
            for k, t, end in zip(range(i, j), slots, slots[1:]):
                sq[t] = 0.0
                sq[t + 1 : end] = self.grad[off[k] : off[k + 1]]
            np.multiply(sq, sq, out=sq)
            for k, s in zip(range(i, j), np.add.reduceat(sq, slots[:-1]).tolist()):
                if live[k - lo]:
                    yield s


def arena_span(params: Sequence) -> tuple[ParamArena, int] | None:
    """``(arena, lo)`` if *params* are the arena's parameters ``lo, lo + 1,
    ...`` in order, else ``None``."""
    if not params or params[0]._arena is None:
        return None
    arena, lo = params[0]._arena
    return (arena, lo) if all(p._arena == (arena, lo + k) for k, p in enumerate(params)) else None
