"""Distributed channel tokenization (paper §3.1, Fig. 2 bottom).

Each TP rank tokenizes only ``C / tp`` channels (owning just those channels'
embedding weights), then an **autograd AllGather across both the channel and
spatial dimensions** reconstructs the full ``[B, C, N, D]`` token tensor on
every rank so the (TP-sharded but channel-complete) aggregation module can
run.  The gather is :func:`~repro.dist.all_gather_autograd`, so the backward
pass pays a ReduceScatter — the communication overhead that §4.4 shows
negates the tokenization savings, and that D-CHAG then eliminates.
"""

from __future__ import annotations

import numpy as np

from ..dist import Communicator, ProcessGroup, all_gather_autograd, split_sizes
from ..nn import ChannelIDEmbedding, Module, PatchTokenizer
from ..tensor import Tensor

__all__ = ["channel_shard", "DistributedTokenizer"]


def channel_shard(channels: int, group: ProcessGroup, world_rank: int) -> slice:
    """The contiguous channel block owned by *world_rank* within *group*.

    Channel counts need not divide the group size (the paper's 10-channel
    example): remainder channels go to the lowest group ranks, one each
    (:func:`~repro.dist.split_sizes`), and the gathers downstream run as
    padded collectives whose pad is stripped before results are returned.
    """
    n = group.size
    if channels < n:
        raise ValueError(
            f"cannot shard {channels} channels over {n} ranks: every rank needs at least one"
        )
    sizes = split_sizes(channels, n)
    idx = group.rank_index(world_rank)
    start = int(sum(sizes[:idx]))
    return slice(start, start + sizes[idx])


class DistributedTokenizer(Module):
    """Tokenize a channel shard locally, AllGather to the full token tensor.

    Built from master tokenizer weights (``[C, p², D]``) so the result is
    bitwise-identical to the serial :class:`~repro.nn.PatchTokenizer` on the
    same inputs; the channel-ID embedding is sliced from the same master
    table and added *before* the gather.
    """

    def __init__(
        self,
        comm: Communicator,
        group: ProcessGroup | None,
        channels: int,
        patch: int,
        dim: int,
        master_weight: np.ndarray,
        master_bias: np.ndarray | None = None,
        master_channel_ids: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        group = group if group is not None else comm.world.default_group
        self.comm = comm
        self.group = group
        self.channels = channels
        self.shard = channel_shard(channels, group, comm.rank)
        local_c = self.shard.stop - self.shard.start
        bias = master_bias[self.shard] if master_bias is not None else None
        self.tokenizer = PatchTokenizer(
            local_c,
            patch,
            dim,
            weight=np.ascontiguousarray(master_weight[self.shard]),
            bias_value=np.ascontiguousarray(bias) if bias is not None else None,
        )
        self.channel_ids = (
            ChannelIDEmbedding(
                local_c, dim, table=np.ascontiguousarray(master_channel_ids[self.shard])
            )
            if master_channel_ids is not None
            else None
        )

    def local_tokens(self, images: np.ndarray) -> Tensor:
        """Tokenize this rank's channel shard: [B, C/tp, N, D]."""
        return self.tokenizer(images[:, self.shard], self.channel_ids)

    def forward(self, images: np.ndarray) -> Tensor:
        """[B, C, H, W] -> replicated [B, C, N, D] via autograd AllGather."""
        tokens = self.local_tokens(images)
        # Gather on the channel axis; payload spans channel *and* spatial dims.
        return all_gather_autograd(self.comm, tokens, self.group, axis=1)
