"""Neural-network module library for the D-CHAG reproduction."""

from .attention import (
    ChannelCrossAttention,
    LinearChannelMixer,
    MultiHeadSelfAttention,
    scaled_dot_product_attention,
)
from .embeddings import (
    ChannelIDEmbedding,
    MetadataEmbedding,
    PositionalEmbedding,
    sincos_positions,
)
from .layers import MLP, Dropout, Identity, LayerNorm, Linear
from .mae import MAEDecoder, random_masking
from .module import Module, ModuleList, Parameter
from .patch_embed import PatchTokenizer, patchify, unpatchify
from .perceiver import PerceiverChannelFusion
from .serialization import (
    checkpoint_equal,
    load_checkpoint,
    resolve_checkpoint_path,
    save_checkpoint,
)
from .swin import SwinBlock, SwinEncoder, WindowAttention, shifted_window_mask, window_partition, window_reverse
from .transformer import TransformerBlock, ViTEncoder

__all__ = [
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "LayerNorm",
    "MLP",
    "Dropout",
    "Identity",
    "MultiHeadSelfAttention",
    "ChannelCrossAttention",
    "LinearChannelMixer",
    "scaled_dot_product_attention",
    "PatchTokenizer",
    "patchify",
    "unpatchify",
    "ChannelIDEmbedding",
    "PositionalEmbedding",
    "MetadataEmbedding",
    "sincos_positions",
    "TransformerBlock",
    "ViTEncoder",
    "MAEDecoder",
    "PerceiverChannelFusion",
    "SwinEncoder",
    "SwinBlock",
    "WindowAttention",
    "window_partition",
    "window_reverse",
    "shifted_window_mask",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_equal",
    "resolve_checkpoint_path",
    "random_masking",
]
