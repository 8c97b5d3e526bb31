"""Per-channel patch tokenization (paper Fig. 1, "tokenization").

Each channel of the ``[B, C, H, W]`` input is split into non-overlapping
``p × p`` patches, and *each channel has its own* embedding weights
(a stride-``p`` conv ≡ a linear map on flattened patches).  Per-channel
weights are what make tokenization memory grow linearly with the channel
count — the bottleneck D-CHAG distributes.

:func:`tokenize_channels` is the whole channel stage's input side as one
autograd node: tokenize, per-channel bias and (optionally) the channel-ID
table, written into one ``[B·N, C, D]`` buffer — the layout the channel
pooling of :func:`~repro.nn.attention.channel_query_attention` reads — and
returned as its ``[B, C, N, D]`` view.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, add_flops, current_tracker, init, is_grad_enabled
from .embeddings import ChannelIDEmbedding
from .module import Module

__all__ = ["PatchTokenizer", "tokenize_channels", "patchify", "unpatchify"]


def patchify(x: np.ndarray, patch: int) -> np.ndarray:
    """[B, C, H, W] -> [B, C, N, patch*patch] with N = (H/p)*(W/p)."""
    b, c, h, w = x.shape
    if h % patch or w % patch:
        raise ValueError(f"image {h}x{w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    x = x.reshape(b, c, gh, patch, gw, patch)
    x = x.transpose(0, 1, 2, 4, 3, 5)  # [B, C, gh, gw, p, p]
    return x.reshape(b, c, gh * gw, patch * patch)


def unpatchify(tokens: np.ndarray, patch: int, height: int, width: int) -> np.ndarray:
    """Inverse of :func:`patchify`: [B, C, N, p*p] -> [B, C, H, W]."""
    b, c, n, pp = tokens.shape
    gh, gw = height // patch, width // patch
    if n != gh * gw or pp != patch * patch:
        raise ValueError("token shape inconsistent with image geometry")
    x = tokens.reshape(b, c, gh, gw, patch, patch)
    x = x.transpose(0, 1, 2, 4, 3, 5)
    return x.reshape(b, c, height, width)


def tokenize_channels(
    images: np.ndarray,
    patch: int,
    weight: Tensor,
    bias: Tensor,
    channel_ids: Tensor | None = None,
) -> Tensor:
    """``[B, C, H, W]`` → ``[B, C, N, D]``: ``patches[c] @ weight[c] + bias[c]``
    (``+ channel_ids[c]``), one autograd node.

    The batched GEMM writes straight into a contiguous ``[B·N, C, D]``
    buffer, the adds run in place, and the node returns the buffer's
    ``[B, C, N, D]`` view.  Its values are bitwise the composite
    ``patchify → matmul → + bias → + ids`` chain's, and so are the gradients:
    the backward runs the same reductions (``sum`` over axes ``(0, 2)``) and
    the same weight GEMM.
    """
    b, c, h, w = images.shape
    if h % patch or w % patch:
        raise ValueError(f"image {h}x{w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    n, d = gh * gw, weight.shape[-1]
    # Patchify channel-major in one copy: [C, B·N, p²].
    x = images.reshape(b, c, gh, patch, gw, patch).transpose(1, 0, 2, 4, 3, 5)
    x = x.reshape(c, b * n, patch * patch)
    params = (weight, bias) if channel_ids is None else (weight, bias, channel_ids)
    buf = np.empty((b * n, c, d), dtype=np.result_type(x, *(p.data for p in params)))
    np.matmul(x, weight.data, out=buf.transpose(1, 0, 2))
    add_flops(2 * buf.size * x.shape[-1], "matmul")
    for p in params[1:]:
        buf += p.data
    tracker = current_tracker()
    if tracker is not None:
        if not np.may_share_memory(x, images):
            tracker.register(x, x.nbytes)
        tracker.register(buf, buf.nbytes)

    def backward(grad: np.ndarray) -> None:
        if bias.requires_grad or (channel_ids is not None and channel_ids.requires_grad):
            g_bias = grad.sum(axis=(0, 2))
            if channel_ids is not None:
                channel_ids._accumulate(g_bias)
            bias._accumulate(g_bias, True)
        if weight.requires_grad:
            g_w = np.swapaxes(x, -1, -2) @ grad.transpose(1, 0, 2, 3).reshape(c, b * n, d)
            add_flops(2 * g_w.size * (b * n), "matmul_bwd")
            weight._accumulate(g_w, True)

    requires = is_grad_enabled() and any(p.requires_grad for p in params)
    return Tensor(
        buf.reshape(b, n, c, d).transpose(0, 2, 1, 3),
        requires_grad=requires,
        _parents=params if requires else (),
        _backward=backward if requires else None,
        op="tokenize",
    )


class PatchTokenizer(Module):
    """Tokenize each channel independently with channel-specific weights.

    ``weight``: ``[C, p*p, D]``, ``bias``: ``[C, D]``.  The forward is a
    batched matmul over the channel axis,
    ``[B, C, N, p*p] @ [C, p*p, D] -> [B, C, N, D]``, run by
    :func:`tokenize_channels`.  A D-CHAG rank owning a channel subset passes
    its slice of the master weights through ``weight=`` / ``bias_value=``, so
    its shard keeps the serial model's per-channel initialisation.
    """

    def __init__(
        self,
        channels: int,
        patch: int,
        dim: int,
        rng: np.random.Generator | None = None,
        weight: np.ndarray | None = None,
        bias_value: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        self.channels = channels
        self.patch = patch
        self.dim = dim
        pp = patch * patch
        if weight is not None:
            if weight.shape != (channels, pp, dim):
                raise ValueError(f"weight shape {weight.shape} != {(channels, pp, dim)}")
            self.weight = Tensor(np.asarray(weight, dtype=np.float32), requires_grad=True)
        else:
            if rng is None:
                raise ValueError("PatchTokenizer needs rng or explicit weight")
            self.weight = init.trunc_normal((channels, pp, dim), rng, std=0.02)
        if bias_value is not None:
            self.bias = Tensor(np.asarray(bias_value, dtype=np.float32), requires_grad=True)
        else:
            self.bias = init.zeros((channels, dim))

    def forward(
        self, images: Tensor | np.ndarray, channel_ids: ChannelIDEmbedding | None = None
    ) -> Tensor:
        """[B, C, H, W] -> [B, C, N, D], plus *channel_ids*' table in the
        same node when given."""
        data = images.data if isinstance(images, Tensor) else np.asarray(images, dtype=np.float32)
        c = data.shape[1]
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        if channel_ids is not None and channel_ids.channels != c:
            raise ValueError(f"expected {channel_ids.channels} channels, got {c}")
        table = channel_ids.table if channel_ids is not None else None
        return tokenize_channels(data, self.patch, self.weight, self.bias, table)
