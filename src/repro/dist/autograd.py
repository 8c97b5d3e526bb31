"""Autograd-aware collectives over :class:`repro.tensor.Tensor`.

These are the communication primitives the paper's parallel strategies are
assembled from.  Each forward collective installs a backward closure on the
autograd graph; backward-pass collectives stamp their traffic records with
``phase="backward"`` so the D-CHAG tests can assert the paper's headline
"zero backward collectives" property mechanically.

=====================================  ==========================================
primitive                              forward / backward communication
=====================================  ==========================================
:func:`all_gather_autograd`            AllGather / ReduceScatter  (§3.1 dist-tok)
:func:`all_gather_forward_only`        AllGather / local slice — **no** comm (§3.3)
:func:`copy_to_group`                  identity / AllReduce   (Megatron ``f``)
:func:`reduce_from_group`              AllReduce / identity   (Megatron ``g``)
:func:`average_gradients`              — / AllReduce(mean) on grads (DP)
:func:`broadcast_parameters`           Broadcast of parameter values (DP init)
=====================================  ==========================================
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor.arena import arena_span, flat_offsets
from ..tensor.optim import apply_clip_scale, grad_squared_sum
from .runtime import Communicator, ProcessGroup, SpmdError

__all__ = [
    "all_gather_autograd",
    "all_gather_forward_only",
    "copy_to_group",
    "reduce_from_group",
    "average_gradients",
    "broadcast_parameters",
    "clip_grad_norm_sharded",
]


def _backward_phase(comm: Communicator):
    """Stamp collectives issued inside with ``phase="backward"``."""
    return comm.phase_scope("backward")


def _resolve(comm: Communicator, group: ProcessGroup | None) -> ProcessGroup:
    return group if group is not None else comm.world.default_group


def all_gather_autograd(
    comm: Communicator,
    x: Tensor,
    group: ProcessGroup | None = None,
    axis: int = 0,
    reduce_op: str = "sum",
    pool_key: str | None = None,
) -> Tensor:
    """AllGather *x* along *axis*; backward pays a ReduceScatter.

    The gradient of a gathered tensor is contributed by **every** rank, so
    backward reduces (``reduce_op``: "sum", or "mean" for the FSDP/DDP
    convention) and scatters each rank its own slice — the §3.1 distributed
    tokenization cost that D-CHAG removes.

    With *pool_key* (and ``axis == 0``) the gather lands in per-part views
    of one pooled contiguous buffer, so the concatenation is free and
    steady-state calls allocate nothing.  The parts are sized from this
    rank's shard: FSDP's shards are equal-sized by construction, and a peer
    whose shard differs fails the runtime's ``out=`` check with
    :class:`SpmdError`.  See :mod:`repro.dist.pool` for which sites may be
    pooled.
    """
    group = _resolve(comm, group)
    pooled = pool_key is not None and axis == 0
    if pooled:
        flat, views = comm.pool.take_views(
            pool_key, [x.data.shape] * group.size, x.data.dtype
        )
        parts = comm.all_gather(x.data, group=group, out=views)
    else:
        parts = comm.all_gather(x.data, group=group)
    other_dims = {p.shape[:axis] + p.shape[axis + 1 :] for p in parts}
    if len(other_dims) > 1:
        raise SpmdError(
            "all_gather_autograd requires matching non-axis dimensions on "
            f"every rank, got {sorted(other_dims)}"
        )
    # Shards may be unequal along *axis* (remainder sharding): the backward
    # ReduceScatter is told the exact per-rank sizes so each rank gets back
    # the gradient of precisely its own contribution (a padded collective).
    sizes = tuple(p.shape[axis] for p in parts)
    out_data = flat if pooled else np.concatenate(parts, axis=axis)

    def backward(grad: np.ndarray) -> None:
        out = (
            comm.pool.take(f"{pool_key}/bwd", x.data.shape, x.data.dtype)
            if pooled
            else None
        )
        with _backward_phase(comm):
            shard = comm.reduce_scatter(
                grad, op=reduce_op, group=group, axis=axis, sizes=sizes, out=out
            )
        x._accumulate(shard)

    return x._make(out_data, (x,), backward, "all_gather_autograd")


def all_gather_forward_only(
    comm: Communicator,
    x: Tensor,
    group: ProcessGroup | None = None,
    axis: int = 0,
) -> Tensor:
    """AllGather whose backward is a **local slice** — zero collectives.

    Valid only when everything downstream of the gather is replicated across
    the group (identical weights, identical math): then every rank's upstream
    gradient is identical, and this rank's slice of its own copy *is* the
    full gradient of its contribution.  This is D-CHAG's §3.3 trick.

    Every rank contributes the same shape (D-CHAG's one channel per rank,
    SP's equal token shards): the parts land straight in their views of one
    output array along *axis*, one copy each; a peer whose shape differs
    fails the runtime's ``out=`` check with :class:`SpmdError`.
    """
    group = _resolve(comm, group)
    shape = list(x.data.shape)
    width = shape[axis]
    shape[axis] *= group.size
    out_data = np.empty(shape, dtype=x.data.dtype)
    comm.all_gather(x.data, group=group, out=np.split(out_data, group.size, axis=axis))
    lo = group.rank_index(comm.rank) * width

    def backward(grad: np.ndarray) -> None:
        idx = [slice(None)] * grad.ndim
        idx[axis] = slice(lo, lo + width)
        x._accumulate(grad[tuple(idx)])

    return x._make(out_data, (x,), backward, "all_gather_forward_only")


def copy_to_group(
    comm: Communicator,
    x: Tensor,
    group: ProcessGroup | None = None,
) -> Tensor:
    """Megatron's ``f``: identity forward, AllReduce(sum) of grads backward.

    Placed at the *entry* of a tensor-parallel region: the replicated input
    feeds every rank's shard, so its gradient is the sum of all shards'
    contributions.
    """
    group = _resolve(comm, group)

    def backward(grad: np.ndarray) -> None:
        with _backward_phase(comm):
            x._accumulate(comm.all_reduce(grad, group=group))

    return x._make(x.data, (x,), backward, "copy_to_group")


def reduce_from_group(
    comm: Communicator,
    x: Tensor,
    group: ProcessGroup | None = None,
) -> Tensor:
    """Megatron's ``g``: AllReduce(sum) forward, identity backward.

    Placed at the *exit* of a tensor-parallel region to complete the partial
    sums of a row-parallel matmul.
    """
    group = _resolve(comm, group)
    out_data = comm.all_reduce(x.data, group=group)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad)

    return x._make(out_data, (x,), backward, "reduce_from_group")


def average_gradients(
    comm: Communicator,
    params: list[Tensor],
    group: ProcessGroup | None = None,
    bucket_bytes: int = 1 << 24,
) -> None:
    """AllReduce(mean) every parameter gradient across the group (DDP sync).

    Gradients are flattened into buckets of at most *bucket_bytes* so large
    models issue a few big collectives instead of one per parameter; a new
    bucket also starts wherever the dtype changes, so every gradient is
    averaged and stored in its own precision.  ``None`` gradients
    contribute zeros (a rank that never touched a parameter still
    participates in its reduction).  Over consecutive parameters of one
    optimizer arena a bucket is a slice of its grad buffer, reduced in place.
    """
    group = _resolve(comm, group)
    params = [p for p in params if p.requires_grad]
    if not params:
        return

    bounds = [0]  # bucket k holds params[bounds[k] : bounds[k + 1]]
    used = 0
    for k, p in enumerate(params):
        if k > bounds[-1] and (
            used + p.nbytes > bucket_bytes or p.data.dtype != params[k - 1].data.dtype
        ):
            bounds.append(k)
            used = 0
        used += p.nbytes
    bounds.append(len(params))

    span = arena_span(params)
    if span is not None:
        arena, lo = span
        arena.adopt_grads(params, lo, zero_missing=True)
        for a, b in zip(bounds, bounds[1:]):
            flat = arena.grad[arena.offsets[lo + a] : arena.offsets[lo + b]]
            comm.all_reduce(flat, op="mean", group=group, out=flat)
        return

    for a, b in zip(bounds, bounds[1:]):
        bucket = params[a:b]
        flat = np.concatenate(
            [
                (p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
                for p in bucket
            ]
        )
        # Reduce back into the flat bucket buffer (out= may alias the
        # input): no second full-size allocation per bucket.
        avg = comm.all_reduce(flat, op="mean", group=group, out=flat)
        offsets = flat_offsets(p.data.size for p in bucket)
        for p, lo, hi in zip(bucket, offsets, offsets[1:]):
            p.grad = avg[lo:hi].reshape(p.data.shape).copy()


def clip_grad_norm_sharded(
    comm: Communicator,
    params: list[Tensor],
    max_norm: float,
    group: ProcessGroup | None = None,
) -> float:
    """Global-norm gradient clipping over *sharded* parameters (FSDP).

    Each rank holds a disjoint shard, so the clip norm is the norm of the
    union: AllReduce the local sum of squares, then scale local grads by the
    shared factor — every rank applies the identical scale the serial
    :func:`~repro.tensor.clip_grad_norm` would.  Returns the pre-clip global
    norm.
    """
    group = _resolve(comm, group)
    local = grad_squared_sum(params)
    total = float(comm.all_reduce(np.array([local], dtype=np.float64), group=group)[0])
    norm = float(np.sqrt(total))
    apply_clip_scale(params, norm, max_norm)
    return norm


def broadcast_parameters(
    comm: Communicator,
    params: list[Tensor],
    root: int | None = None,
    group: ProcessGroup | None = None,
) -> None:
    """Overwrite every parameter in place with the *root* rank's values.

    Used at DDP construction so all replicas start identical; in-place so
    optimizers already holding references keep working.  *root* defaults to
    the group's first rank.
    """
    group = _resolve(comm, group)
    root = group.ranks[0] if root is None else root
    for p in params:
        # out= writes the payload straight into the live parameter buffer.
        # On the root, out is its own contribution, so its consume copies
        # nothing and the peers copy the root's values from that buffer.
        comm.broadcast(p.data, root=root, group=group, out=p.data)
