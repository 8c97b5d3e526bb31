"""A NumPy reverse-mode autograd engine.

This is the PyTorch substitute for the D-CHAG reproduction: a :class:`Tensor`
wraps a ``numpy.ndarray`` and records enough of the computation graph to run
backpropagation.  The engine is deliberately small but complete enough to
train the paper's foundation-model architecture (per-channel tokenization,
cross-attention channel aggregation, ViT blocks, MAE decoder) end to end.

Design notes
------------
* Gradients are plain ``numpy`` arrays stored on the leaf tensors.  A gradient
  array has exactly one owner: a closure that has just created a buffer hands
  it over with ``_accumulate(buf, True)`` and must not touch it again; every
  other array (views of the incoming grad, pass-through grads, anything from
  outside this package) is copied on first touch.  An interior node's grad is
  dropped as soon as its closure has run.  Because the owner is unique, a
  basic-index ``__getitem__`` scatters straight into an existing grad
  (``grad[idx] += g``), so carving a tensor into P slices costs one
  parent-sized buffer, not P; array indices keep a private buffer and
  ``np.add.at``, since adding repeats into the grad would reorder its sums.
* Broadcasting follows NumPy semantics; backward passes un-broadcast by
  summing over the broadcast axes.
* ``matmul`` reports FLOPs to :mod:`repro.tensor.flops` so that small real
  runs can validate the analytic FLOP model used for the paper's figures.
* Newly-owned arrays register their byte size with the memory tracker from
  :mod:`repro.tensor.memory`, giving the high-water-mark measurements that
  stand in for ``torch.cuda.max_memory_allocated``.
"""

from __future__ import annotations

import contextvars
from typing import Callable, Sequence

import numpy as np

from .flops import add_flops
from .memory import current_tracker

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_grad_enabled: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_grad_enabled", default=True
)


def is_grad_enabled() -> bool:
    """Whether operations record the autograd graph in this context."""
    return _grad_enabled.get()


class no_grad:
    """Context manager disabling graph recording (like ``torch.no_grad``)."""

    def __enter__(self) -> None:
        self._token = _grad_enabled.set(False)

    def __exit__(self, *exc: object) -> None:
        _grad_enabled.reset(self._token)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce *grad* back to *shape* by summing the broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_BASIC_INDEX = (slice, int, np.integer, type(None), type(Ellipsis))


def _is_basic_index(idx) -> bool:
    """True for NumPy basic indexing (slices, ints, ``None``, ``Ellipsis``)."""
    if isinstance(idx, tuple):
        return all(isinstance(i, _BASIC_INDEX) for i in idx)
    return isinstance(idx, _BASIC_INDEX)


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected array-like, got Tensor")
    if isinstance(value, np.generic):
        # NumPy scalar (e.g. the result of a 0-d reduction): keep its dtype —
        # downcasting here would silently truncate float64 loss chains.
        arr = np.asarray(value)
        if dtype is not None and arr.dtype != dtype:
            arr = arr.astype(dtype)
        return arr
    arr = np.asarray(value)
    if dtype is not None and arr.dtype != dtype:
        arr = arr.astype(dtype)
    elif arr.dtype == np.float64 and dtype is None:
        # Default to float32, matching the training precision used on Frontier.
        arr = arr.astype(np.float32)
    elif arr.dtype.kind != "f" and dtype is None:
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """An array with an optional autograd history."""

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents", "op", "_arena", "__weakref__"
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        *,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        op: str = "",
        dtype=None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if not isinstance(data, np.ndarray):
            data = _as_array(data, dtype)
        elif dtype is not None and data.dtype != dtype:
            data = data.astype(dtype)
        elif data.dtype.kind != "f":
            # Tensors are floating-point; integer inputs become float32
            # (index arrays stay plain numpy and never enter Tensors).
            data = data.astype(np.float32)
        self.data: np.ndarray = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents = _parents if self.requires_grad or _backward is not None else ()
        self._backward = _backward
        self.op = op
        self._arena = None  # (ParamArena, index) once an optimizer owns it
        tracker = current_tracker()
        if tracker is not None and data.base is None:
            tracker.register(data, data.nbytes)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(shape: Sequence[int] | int, dtype=np.float32, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(shape: Sequence[int] | int, dtype=np.float32, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def full(shape: Sequence[int] | int, value: float, dtype=np.float32) -> "Tensor":
        return Tensor(np.full(shape, value, dtype=dtype))

    @staticmethod
    def arange(*args, dtype=np.float32) -> "Tensor":
        return Tensor(np.arange(*args, dtype=dtype))

    @staticmethod
    def randn(
        shape: Sequence[int] | int,
        rng: np.random.Generator | None = None,
        std: float = 1.0,
        dtype=np.float32,
        requires_grad: bool = False,
    ) -> "Tensor":
        rng = rng if rng is not None else np.random.default_rng()
        return Tensor(
            (rng.standard_normal(shape) * std).astype(dtype), requires_grad=requires_grad
        )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def astype(self, dtype) -> "Tensor":
        out_data = self.data.astype(dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.astype(self.data.dtype), True)

        return self._make(out_data, (self,), backward, "astype")

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag}, op={self.op!r})"

    # ------------------------------------------------------------------
    # autograd plumbing
    # ------------------------------------------------------------------
    def _make(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        return Tensor(
            data,
            requires_grad=requires,
            _parents=parents if requires else (),
            _backward=backward if requires else None,
            op=op,
        )

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add *grad* into ``self.grad``.  ``owned=True`` (callers inside
        ``repro.tensor`` only) gives away a buffer the caller has just created
        and holds no other reference to; anything else is copied, and so is
        every first grad of a leaf an optimizer's arena holds."""
        if not self.requires_grad:
            return
        if self.grad is None:
            if self._arena is not None:  # copy into the persistent home
                self.grad = self._arena[0].homes[self._arena[1]]
                self.grad[...] = grad
                return
            buf = np.asarray(grad, dtype=self.data.dtype)
            if not owned and (buf.base is not None or buf is grad):
                buf = buf.copy()
            self.grad = buf
            tracker = current_tracker()
            if tracker is not None:
                tracker.register(buf, buf.nbytes)
        else:
            self.grad += grad

    def _scatter_add(self, idx, grad: np.ndarray) -> None:
        """Add *grad* into ``self.grad[idx]``: a view's backward.  A basic
        index adds into an existing (owned) grad in place, O(slice), not
        O(parent); a first grad is a fresh zero buffer the parent then owns.
        Array indices may repeat, so they sum in a private buffer first:
        adding repeats one by one into an existing grad would reorder its
        float sums."""
        basic = _is_basic_index(idx)
        if basic and self.grad is not None:
            self.grad[idx] += grad.astype(self.grad.dtype, copy=False)
            return
        full = np.zeros_like(self.data)
        if basic:
            full[idx] = grad  # no element is selected twice
        else:
            np.add.at(full, idx, grad)
        self._accumulate(full, True)

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if gradient is None:
            if self.size != 1:
                raise RuntimeError("gradient must be provided for non-scalar outputs")
            gradient = np.ones_like(self.data)
        gradient = np.asarray(gradient, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(gradient)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None  # interior grads are dead once consumed

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(_as_array(other, self.data.dtype))

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape), True)

        return self._make(out_data, (self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape), True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape), True)

        return self._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape), True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data * other.data), other.shape), True
                )

        return self._make(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, True)

        return self._make(-self.data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), True)

        return self._make(out_data, (self,), backward, "pow")

    # comparisons produce detached float masks (useful for relu-style ops)
    def __gt__(self, other) -> "Tensor":
        other = other.data if isinstance(other, Tensor) else other
        return Tensor((self.data > other).astype(self.data.dtype))

    def __lt__(self, other) -> "Tensor":
        other = other.data if isinstance(other, Tensor) else other
        return Tensor((self.data < other).astype(self.data.dtype))

    # ------------------------------------------------------------------
    # matmul
    # ------------------------------------------------------------------
    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        if a.ndim == 1 or b.ndim == 1:
            # np.matmul's rule: a 1-D operand is a row / column matrix.
            out = (self.expand_dims(0) if a.ndim == 1 else self) @ (
                other.expand_dims(1) if b.ndim == 1 else other
            )
            out = out.squeeze(-2) if a.ndim == 1 else out
            return out.squeeze(-1) if b.ndim == 1 else out
        inner = a.shape[-1]
        # N-D @ 2-D (every Linear) is one GEMM over the flattened leading axes,
        # forward and backward: no [batch, K, N] temporary, no sum over batch.
        flat = b.ndim == 2 and a.ndim >= 3
        if flat:
            out_data = (a.reshape(-1, inner) @ b).reshape(a.shape[:-1] + b.shape[1:])
        else:
            out_data = a @ b
        # FLOPs: 2 * (product of output shape) * inner dim.
        add_flops(2 * out_data.size * inner, "matmul")

        def backward(grad: np.ndarray) -> None:
            a2, g = (a.reshape(-1, inner), grad.reshape(-1, grad.shape[-1])) if flat else (a, grad)
            if self.requires_grad:
                ga = g @ np.swapaxes(b, -1, -2)
                add_flops(2 * ga.size * g.shape[-1], "matmul_bwd")
                self._accumulate(_unbroadcast(ga, a2.shape).reshape(a.shape), True)
            if other.requires_grad:
                gb = np.swapaxes(a2, -1, -2) @ g
                add_flops(2 * gb.size * a2.shape[-2], "matmul_bwd")
                other._accumulate(_unbroadcast(gb, b.shape), True)

        return self._make(out_data, (self, other), backward, "matmul")

    def matmul(self, other: "Tensor") -> "Tensor":
        return self @ other

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).astype(self.data.dtype), True)

        return self._make(np.asarray(out_data), (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            denom = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            denom = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            o = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                o = np.expand_dims(o, axis)
            mask = (self.data == o).astype(self.data.dtype)
            # Split gradient between ties, matching numerical gradcheck.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / counts, True)

        return self._make(np.asarray(out_data), (self,), backward, "max")

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data, True)

        return self._make(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, True)

        return self._make(np.log(self.data), (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data, True)

        return self._make(out_data, (self,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data * out_data), True)

        return self._make(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data), True)

        return self._make(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(self.data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, True)

        return self._make(self.data * mask, (self,), backward, "relu")

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign, True)

        return self._make(np.abs(self.data), (self,), backward, "abs")

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        """Elementwise select (condition is a non-differentiable mask)."""
        cond = np.asarray(condition, dtype=bool)
        mask = cond.astype(a.data.dtype)
        return a * Tensor(mask) + b * Tensor(1.0 - mask)

    def clip(self, lo: float, hi: float) -> "Tensor":
        out_data = np.clip(self.data, lo, hi)
        mask = ((self.data >= lo) & (self.data <= hi)).astype(self.data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, True)

        return self._make(out_data, (self,), backward, "clip")

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        return self._make(out_data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(*axes)  # validates the axes
        ndim = self.ndim
        inv = [0] * ndim
        for i, a in enumerate(axes or reversed(range(ndim))):
            inv[a % ndim] = i

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inv))

        return self._make(out_data, (self,), backward, "transpose")

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.swapaxes(grad, a, b))

        return self._make(np.swapaxes(self.data, a, b), (self,), backward, "swapaxes")

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._scatter_add(idx, grad)

        return self._make(out_data, (self,), backward, "getitem")

    def expand_dims(self, axis: int) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.squeeze(grad, axis=axis))

        return self._make(np.expand_dims(self.data, axis), (self,), backward, "expand_dims")

    def squeeze(self, axis: int) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.expand_dims(grad, axis=axis))

        return self._make(np.squeeze(self.data, axis=axis), (self,), backward, "squeeze")

    def broadcast_to(self, shape: Sequence[int]) -> "Tensor":
        shape = tuple(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))

        return self._make(
            np.broadcast_to(self.data, shape).copy(), (self,), backward, "broadcast_to"
        )

    def pad(self, pad_width: Sequence[tuple[int, int]]) -> "Tensor":
        pad_width = tuple(tuple(p) for p in pad_width)
        out_data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(lo, lo + dim) for (lo, _hi), dim in zip(pad_width, self.shape)
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[slices])

        return self._make(out_data, (self,), backward, "pad")

    # ------------------------------------------------------------------
    # concatenation / stacking (static helpers)
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        datas = [t.data for t in tensors]
        out_data = np.concatenate(datas, axis=axis)
        sizes = [d.shape[axis] for d in datas]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                idx = [slice(None)] * grad.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(idx)])

        requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
        return Tensor(
            out_data,
            requires_grad=requires,
            _parents=tuple(tensors) if requires else (),
            _backward=backward if requires else None,
            op="concat",
        )

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        return Tensor.concat([t.expand_dims(axis) for t in tensors], axis=axis)

    def split(self, sections: int, axis: int = 0) -> list["Tensor"]:
        """Split into equal chunks along *axis* (differentiable)."""
        n = self.shape[axis]
        if n % sections != 0:
            raise ValueError(f"cannot split axis of size {n} into {sections} equal parts")
        step = n // sections
        out = []
        for i in range(sections):
            idx = [slice(None)] * self.ndim
            idx[axis] = slice(i * step, (i + 1) * step)
            out.append(self[tuple(idx)])
        return out

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def flatten(self, start: int = 0) -> "Tensor":
        shape = self.shape[:start] + (-1,)
        return self.reshape(shape)
