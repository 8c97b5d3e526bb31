"""``repro.dist`` — the simulated multi-rank runtime (RCCL/MPI substitute).

One Python thread per rank (taking turns on a per-world run token),
deterministic in-process collectives, and a traffic log in place of real
wire counters.  Every communication pattern the paper builds on maps onto
one primitive here:

Paper section → primitive
-------------------------
* **§3.1 distributed tokenization** — :func:`all_gather_autograd`: each TP
  rank tokenizes ``C/tp`` channels, the full token tensor is AllGathered
  forward, and backward pays the conjugate ReduceScatter (the overhead
  Fig. 8 measures).
* **§3.3 D-CHAG forward-only gather** — :func:`all_gather_forward_only`:
  one channel per rank gathered forward, backward is a local slice — zero
  backward collectives, the paper's headline property.  Its validity rests
  on the replicated-layer invariant: deterministic, rank-ordered reductions
  (``Communicator.all_reduce``) keep replicated modules bitwise identical.
* **§3.4 / §4.3 tensor parallelism (Megatron f/g)** — :func:`copy_to_group`
  (identity fwd / AllReduce bwd) and :func:`reduce_from_group` (AllReduce
  fwd / identity bwd) wrap each TP region.
* **§3.4 FSDP** — :func:`all_gather_autograd` with ``reduce_op="mean"``
  materializes flat parameter shards forward and ReduceScatters gradients
  onto them backward.
* **§3.4 data parallelism (outermost axis)** — :func:`average_gradients`
  (bucketed AllReduce-mean) and :func:`broadcast_parameters` (replica init).
* **§3.5 sequence parallelism** — ``Communicator.all_to_all`` switches the
  sharded axis between tokens and heads (Ulysses pattern).
* **§4.1 α–β cost model** — :func:`repro.dist.stats.ring_wire_bytes` prices
  each collective's ring wire volume; the per-world
  :class:`~repro.dist.stats.TrafficLog` records what actually moved.

Entry points: :func:`run_spmd` / :func:`run_spmd_world` spawn a fresh,
isolated world per call; failures on any rank abort the world and surface
as :class:`SpmdError` instead of deadlocking.
"""

from .autograd import (
    all_gather_autograd,
    all_gather_forward_only,
    average_gradients,
    broadcast_parameters,
    clip_grad_norm_sharded,
    copy_to_group,
    reduce_from_group,
)
from .pool import BufferPool, site_key
from .runtime import (
    Communicator,
    ProcessGroup,
    SpmdError,
    World,
    run_spmd,
    run_spmd_world,
    split_sizes,
)
from .stats import TrafficLog, TrafficRecord, TrafficTotals, ring_wire_bytes

__all__ = [
    "BufferPool",
    "site_key",
    "Communicator",
    "ProcessGroup",
    "SpmdError",
    "World",
    "run_spmd",
    "run_spmd_world",
    "split_sizes",
    "TrafficLog",
    "TrafficRecord",
    "TrafficTotals",
    "ring_wire_bytes",
    "all_gather_autograd",
    "all_gather_forward_only",
    "average_gradients",
    "broadcast_parameters",
    "clip_grad_norm_sharded",
    "copy_to_group",
    "reduce_from_group",
]
