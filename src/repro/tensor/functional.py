"""Neural-network functional primitives on :class:`~repro.tensor.Tensor`.

These cover everything the paper's architecture needs: softmax for the
attention layers, GELU for the MLPs, layer normalisation, dropout, and the
losses used by the two evaluation applications (masked MSE for the MAE and
plain / latitude-weighted MSE for weather forecasting).
"""

from __future__ import annotations

import numpy as np

from .flops import add_flops
from .memory import current_tracker
from .tensor import Tensor, _unbroadcast

__all__ = [
    "linear",
    "softmax",
    "log_softmax",
    "gelu",
    "relu",
    "layer_norm",
    "dropout",
    "mse_loss",
    "masked_mse_loss",
    "weighted_mse_loss",
    "cross_entropy",
]


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight + bias`` as one node: ``x`` ``[..., in]``, ``weight``
    ``[in, out]``, ``bias`` ``[out]`` or ``None``.

    One GEMM over the flattened leading axes, forward and backward, with the
    FLOP books of :meth:`Tensor.__matmul__`; the bias is added in place, in
    the GEMM's dtype.  Values and gradients are bitwise those of
    ``x @ weight + bias``.
    """
    a, w = x.data, weight.data
    inner = a.shape[-1]
    a2 = a.reshape(-1, inner)
    y = a2 @ w
    add_flops(2 * y.size * inner, "matmul")
    if bias is not None:
        y += bias.data
    tracker = current_tracker()
    if tracker is not None:
        tracker.register(y, y.nbytes)

    def backward(grad: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.shape))
        # A biased grad reaches the GEMM in C order, as in ``x @ weight + bias``.
        g = (grad if bias is None else np.ascontiguousarray(grad)).reshape(-1, grad.shape[-1])
        if x.requires_grad:
            ga = g @ w.T
            add_flops(2 * ga.size * g.shape[-1], "matmul_bwd")
            x._accumulate(ga.reshape(a.shape), True)
        if weight.requires_grad:
            gw = a2.T @ g
            add_flops(2 * gw.size * a2.shape[-2], "matmul_bwd")
            weight._accumulate(gw, True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return x._make(y.reshape(a.shape[:-1] + w.shape[1:]), parents, backward, "linear")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along *axis*."""
    shifted_data = x.data - x.data.max(axis=axis, keepdims=True)
    exp_data = np.exp(shifted_data)
    out_data = exp_data / exp_data.sum(axis=axis, keepdims=True)
    add_flops(5 * x.size, "softmax")

    def backward(grad: np.ndarray) -> None:
        # d softmax = s * (g - sum(g * s))
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - inner), True)

    return x._make(out_data, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True), True)

    return x._make(out_data, (x,), backward, "log_softmax")


_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
# Python floats, not np.float64 scalars: under NumPy >= 2 dividing a float32
# array by an np.float64 scalar promotes the whole closure to float64.
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
# scipy.special.erf, bound by the first exact GELU rather than at import:
# loading scipy takes 0.4-0.7 s, and planner, replay and calibration
# processes never run a GELU.
_erf = None


def gelu(x: Tensor, approximate: bool = False) -> Tensor:
    """Gaussian Error Linear Unit (exact erf form by default)."""
    add_flops(8 * x.size, "gelu")
    if approximate:
        inner = _SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)
        return 0.5 * x * (1.0 + inner.tanh())

    global _erf
    if _erf is None:
        from scipy.special import erf as _erf
    cdf = 0.5 * (1.0 + _erf(x.data * _INV_SQRT2))
    out_data = x.data * cdf

    def backward(grad: np.ndarray) -> None:
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        x._accumulate(grad * (cdf + x.data * pdf), True)

    return x._make(out_data.astype(x.dtype, copy=False), (x,), backward, "gelu")


def relu(x: Tensor) -> Tensor:
    return x.relu()


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis with affine parameters."""
    # sum / n, not ndarray.mean: bitwise equal (a float64 quotient of two
    # float32 values rounds to the float32 quotient) without mean's wrapper.
    n = x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / n
    centered = x.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    out_data = x_hat * weight.data + bias.data
    add_flops(8 * x.size, "layer_norm")

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            axes = tuple(range(grad.ndim - 1))
            weight._accumulate((grad * x_hat).sum(axis=axes), True)
        if bias.requires_grad:
            axes = tuple(range(grad.ndim - 1))
            bias._accumulate(grad.sum(axis=axes), True)
        if x.requires_grad:
            g = grad * weight.data
            mean_g = g.sum(axis=-1, keepdims=True) / n
            mean_gx = (g * x_hat).sum(axis=-1, keepdims=True) / n
            x._accumulate(inv_std * (g - mean_g - x_hat * mean_gx), True)

    requires = x.requires_grad or weight.requires_grad or bias.requires_grad
    return Tensor(
        out_data.astype(x.dtype),
        requires_grad=requires,
        _parents=(x, weight, bias) if requires else (),
        _backward=backward if requires else None,
        op="layer_norm",
    )


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask, True)

    return x._make(x.data * mask, (x,), backward, "dropout")


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    diff = pred - target
    return (diff * diff).mean()


def masked_mse_loss(pred: Tensor, target: Tensor, mask: np.ndarray) -> Tensor:
    """MSE computed only on masked patches — the MAE reconstruction loss.

    *mask* has 1 where a patch was masked (and therefore must be predicted),
    broadcastable against ``pred``.
    """
    mask_arr = np.asarray(mask, dtype=pred.dtype)
    diff = pred - target
    num = (diff * diff * Tensor(mask_arr)).sum()
    denom = float(np.broadcast_to(mask_arr, pred.shape).sum())
    if denom == 0:
        raise ValueError("masked_mse_loss: mask selects no elements")
    return num * (1.0 / denom)


def weighted_mse_loss(pred: Tensor, target: Tensor, weights: np.ndarray) -> Tensor:
    """Latitude-weighted MSE used in weather forecasting evaluation.

    *weights* broadcast against ``pred`` and are normalised to mean 1.
    """
    w = np.asarray(weights, dtype=pred.dtype)
    w = w / w.mean()
    diff = pred - target
    return (diff * diff * Tensor(np.broadcast_to(w, pred.shape).copy())).mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy for integer *labels* over the last axis."""
    logp = log_softmax(logits, axis=-1)
    flat = logp.reshape(-1, logits.shape[-1])
    idx = np.asarray(labels).reshape(-1)
    picked = flat[np.arange(idx.shape[0]), idx]
    return -picked.mean()
