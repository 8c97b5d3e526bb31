"""Parallelism strategies: TP (baseline), distributed tokenization, FSDP, DP,
and the hybrid device mesh (paper §§3.1, 3.4, 4.3)."""

from .dist_token import DistributedTokenizer, channel_shard
from .dp import DataParallel, shard_batch
from .fsdp import FlatParamShard, FSDPModel, FSDPUnit
from .mesh import DeviceMesh
from .sp import (
    SPContext,
    SPSelfAttention,
    SPTransformerBlock,
    SPViTEncoder,
    all_to_all_heads_to_tokens,
    all_to_all_tokens_to_heads,
    gather_sequence,
    scatter_sequence,
)
from .tp import (
    ColumnParallelLinear,
    RowParallelLinear,
    TPChannelCrossAttention,
    TPContext,
    TPMLP,
    TPSelfAttention,
    TPTransformerBlock,
    TPViTEncoder,
)

__all__ = [
    "TPContext",
    "ColumnParallelLinear",
    "RowParallelLinear",
    "TPSelfAttention",
    "TPMLP",
    "TPTransformerBlock",
    "TPViTEncoder",
    "TPChannelCrossAttention",
    "DistributedTokenizer",
    "channel_shard",
    "FSDPModel",
    "FSDPUnit",
    "FlatParamShard",
    "DataParallel",
    "shard_batch",
    "DeviceMesh",
    "SPContext",
    "SPSelfAttention",
    "SPTransformerBlock",
    "SPViTEncoder",
    "scatter_sequence",
    "gather_sequence",
    "all_to_all_tokens_to_heads",
    "all_to_all_heads_to_tokens",
]
