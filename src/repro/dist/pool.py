"""Site-keyed collective buffer pools — FSDP's unit gather allocates nothing.

The runtime's collectives accept ``out=`` so callers can reuse result
buffers; :class:`BufferPool` makes reuse systematic.  Each call *site* owns a
stable string key; the pool hands the same array back every time the site
runs, reallocating only when the requested shape or dtype changes.

**Which sites may be pooled.**  A pooled buffer is overwritten each time its
site runs, so a site may be pooled only when nothing that still reads the
old contents can see a new value.  FSDP's per-unit parameter gather
(pooled :func:`~repro.dist.all_gather_autograd`) is the one site that meets
the rule: its bytes depend only on the parameter shards, which do not change
between a forward and its backward, and its ``/bwd`` ReduceScatter result is
copied out by :meth:`repro.tensor.Tensor._accumulate`.  Every other
collective allocates.  SP's all-to-alls, for instance, break the rule:
attention saves its q/k/v inputs for backward, so a second forward through
the same site would overwrite what the first backward still reads.

A gather site lays out its parts (:meth:`BufferPool.take_views`) from the
*expected* per-rank shapes; a peer whose part differs fails the runtime's
``out=`` validation with :class:`~repro.dist.runtime.SpmdError` rather than
corrupting.  Keys are rank-local: each rank's
:class:`~repro.dist.runtime.Communicator` owns its own pool.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["BufferPool", "site_key"]

_SITE_COUNTER = itertools.count()


def site_key(prefix: str) -> str:
    """A process-unique pool key for one call site (``"prefix#N"``).

    Constructors call this once per site (per FSDP unit) so two models over
    the same communicator can never share — and silently clobber — each
    other's buffers.
    """
    return f"{prefix}#{next(_SITE_COUNTER)}"


class BufferPool:
    """One rank's site-keyed buffer cache (lifetime: the world's).

    ``hits``/``misses`` count steady-state reuse vs (re)allocation — the
    property tests pin that a converged training step takes zero misses.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._views: dict[str, tuple] = {}
        self.hits = 0
        self.misses = 0

    def take(self, key: str, shape, dtype) -> np.ndarray:
        """The site's buffer, reused when shape/dtype match, fresh otherwise."""
        shape = (shape,) if isinstance(shape, int) else tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        buf = self._buffers.get(key)
        if buf is not None and buf.shape == shape and buf.dtype == dtype:
            self.hits += 1
            return buf
        self.misses += 1
        buf = np.empty(shape, dtype=dtype)
        self._buffers[key] = buf
        return buf

    def take_views(self, key: str, shapes, dtype):
        """One contiguous axis-0 buffer plus per-part views into it.

        *shapes* lists each part's shape; all must share trailing dims.  The
        flat buffer's axis 0 is the parts' axis-0 sizes summed, so gathering
        into the views **is** the concatenation — no copy afterwards.
        Returns ``(flat, views)``.
        """
        shapes = [tuple(int(x) for x in s) for s in shapes]
        dtype = np.dtype(dtype)
        entry = self._views.get(key)
        if entry is not None and entry[2] == shapes and entry[3] == dtype:
            self.hits += 1
            return entry[0], entry[1]
        trail = {s[1:] for s in shapes}
        if len(trail) > 1:
            raise ValueError(f"take_views parts disagree on trailing dims: {sorted(trail)}")
        self.misses += 1
        total = sum(s[0] for s in shapes)
        flat = np.empty((total, *shapes[0][1:]), dtype=dtype)
        views, lo = [], 0
        for s in shapes:
            views.append(flat[lo : lo + s[0]])
            lo += s[0]
        self._views[key] = (flat, views, shapes, dtype)
        return flat, views
