"""The D-CHAG module (paper §3.3, Fig. 4): distributed tokenization + local
hierarchical aggregation + forward-only AllGather + shared final
cross-attention.

Data flow on each TP/D-CHAG rank::

    images [B, C, H, W]
      → tokenize OWN channel shard           [B, C/tp, N, D]   (rank-local weights)
      → + channel-ID embeddings (shard of the master table)
      → partial-channel aggregation tree     [B, 1, N, D]      (rank-local weights)
      → AllGather (forward only)             [B, tp, N, D]     (replicated)
      → final cross-attention (shared)       [B, N, D]         (replicated or TP-sharded)

Communication: exactly one AllGather of **one channel per rank** in the
forward pass; the backward of that gather slices the local gradient — zero
backward collectives.  This requires the final layer (and everything after
it) to be replicated across the group, which holds because its parameters
are initialised identically on every rank and receive bitwise-identical
gradients (deterministic reductions in :mod:`repro.dist`); asserted by
``tests/test_dchag_sync.py``.
"""

from __future__ import annotations

import numpy as np

from ..dist import Communicator, ProcessGroup, all_gather_forward_only
from ..nn import ChannelCrossAttention, ChannelIDEmbedding, Module, PatchTokenizer
from ..parallel import ParallelContext, channel_shard, tensor_parallel
from ..tensor import Tensor
from .config import DCHAGConfig
from .partial_agg import PartialChannelAggregator

__all__ = ["DCHAG"]


class DCHAG(Module):
    """Distributed Cross-Channel Hierarchical Aggregation.

    Replaces the serial ``PatchTokenizer → ChannelCrossAttention`` front-end
    of a ChannelViT with the distributed scheme above.  Construct SPMD-style
    on every rank of the TP group.

    Parameters
    ----------
    comm, group:
        The rank's communicator and its TP/D-CHAG process group (identical
        groups by design, §3.4).
    config:
        :class:`~repro.core.config.DCHAGConfig`.
    rng_seed:
        Base seed; rank-local modules (tokenizer shard init when no master is
        given, partial aggregators) draw from ``seed + 1000 * rank`` while
        shared modules (final cross-attention) draw from ``seed`` so they are
        identical on every rank.
    master_tok_weight / master_tok_bias / master_channel_ids:
        Optional master arrays (``[C, p², D]`` / ``[C, D]`` / ``[C, D]``) to
        slice shards from — used by equivalence tests and by checkpoints.
    """

    def __init__(
        self,
        comm: Communicator,
        group: ProcessGroup | None,
        config: DCHAGConfig,
        rng_seed: int = 0,
        master_tok_weight: np.ndarray | None = None,
        master_tok_bias: np.ndarray | None = None,
        master_channel_ids: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        group = group if group is not None else comm.world.default_group
        self.comm = comm
        self.group = group
        self.config = config
        c, p, d, h = config.channels, config.patch, config.dim, config.heads

        self.shard = channel_shard(c, group, comm.rank)
        local_c = self.shard.stop - self.shard.start
        self.local_channels = local_c

        rank_rng = np.random.default_rng(rng_seed + 1000 * group.rank_index(comm.rank))
        shared_rng = np.random.default_rng(rng_seed)

        if master_tok_weight is not None:
            self.tokenizer = PatchTokenizer(
                local_c,
                p,
                d,
                weight=np.ascontiguousarray(master_tok_weight[self.shard]),
                bias_value=(
                    np.ascontiguousarray(master_tok_bias[self.shard])
                    if master_tok_bias is not None
                    else None
                ),
            )
        else:
            self.tokenizer = PatchTokenizer(local_c, p, d, rank_rng)

        if master_channel_ids is not None:
            self.channel_ids = ChannelIDEmbedding(
                local_c, d, table=np.ascontiguousarray(master_channel_ids[self.shard])
            )
        else:
            self.channel_ids = ChannelIDEmbedding(local_c, d, rank_rng)

        self.partial = PartialChannelAggregator(
            local_c, d, h, rank_rng, fanout=config.fanout, kind=config.kind
        )

        # Final shared cross-attention: identical init on every rank.
        self.final = ChannelCrossAttention(d, h, shared_rng, num_queries=1)
        if config.tp_shard_final and group.size > 1:
            tensor_parallel(ParallelContext(comm, group), self.final)

    # ------------------------------------------------------------------
    def local_tokens(self, images: np.ndarray) -> Tensor:
        """Tokenize this rank's channel shard: ``[B, C/tp, N, D]``."""
        return self.tokenizer(images[:, self.shard], self.channel_ids)

    def forward(self, images: np.ndarray) -> Tensor:
        """``[B, C, H, W]`` (full, replicated) → ``[B, N, D]`` (replicated)."""
        tokens = self.local_tokens(images)                       # [B, C/tp, N, D]
        local_agg = self.partial(tokens)                         # [B, 1, N, D]
        gathered = all_gather_forward_only(
            self.comm, local_agg, self.group, axis=1
        )                                                        # [B, tp, N, D]
        return self.final(gathered)                              # [B, N, D]

    # ------------------------------------------------------------------
    def rank_local_parameters(self) -> list[Tensor]:
        """Parameters unique to this rank (tokenizer shard, channel IDs,
        partial aggregators) — excluded from DP sync across the TP group."""
        return (
            self.tokenizer.parameters()
            + self.channel_ids.parameters()
            + self.partial.parameters()
        )

    def shared_parameters(self) -> list[Tensor]:
        """Parameters replicated (or TP-sharded) across the group."""
        return self.final.parameters()
