"""Parallelism strategies: TP (baseline), SP, distributed tokenization,
FSDP, DP, and the hybrid device mesh (paper §§3.1, 3.4, 3.5, 4.3)."""

from .dist_token import DistributedTokenizer, channel_shard
from .dp import DataParallel, shard_batch
from .fsdp import FlatParamShard, FSDPModel, FSDPUnit
from .mesh import DeviceMesh, ParallelContext
from .sp import (
    all_to_all_heads_to_tokens,
    all_to_all_tokens_to_heads,
    gather_sequence,
    scatter_sequence,
    sequence_parallel,
)
from .tp import ColumnParallelLinear, RowParallelLinear, tensor_parallel

__all__ = [
    "ParallelContext",
    "tensor_parallel",
    "ColumnParallelLinear",
    "RowParallelLinear",
    "sequence_parallel",
    "scatter_sequence",
    "gather_sequence",
    "all_to_all_tokens_to_heads",
    "all_to_all_heads_to_tokens",
    "DistributedTokenizer",
    "channel_shard",
    "FSDPModel",
    "FSDPUnit",
    "FlatParamShard",
    "DataParallel",
    "shard_batch",
    "DeviceMesh",
]
