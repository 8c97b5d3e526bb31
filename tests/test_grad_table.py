"""One float64 gradient check per autograd op, keyed by the op's name.

``GRAD_CASES`` holds a central-difference check for every op that
``repro.tensor`` and ``repro.nn`` record on the graph.  Two companion tests
keep the table complete: every op name in those packages' source has an
entry, and so does every op one forward through each ``repro.nn`` module
records.  A new op without a gradient check fails here.
"""

import inspect
import pathlib
import re

import numpy as np
import pytest

import repro.nn as nn
import repro.tensor as tensor_pkg
from repro.nn import Dropout, Module
from repro.nn.attention import merge_heads, pool_channels, scaled_dot_product_attention, split_heads
from repro.nn.patch_embed import tokenize_channels
from repro.parallel.fsdp import unflatten
from repro.tensor import Tensor, check_gradients, checkpoint, functional as F

RNG = np.random.default_rng(2024)


def r(*shape):
    return RNG.standard_normal(shape)


def positive(*shape):
    return np.abs(r(*shape)) + 0.5


IMAGES = r(2, 3, 4, 4)  # a constant input of the tokenize case: [B, C, H, W], patch 2


def drop(p=0.3):
    """A fresh, identically seeded dropout for every evaluation: the same mask."""
    return Dropout(p, np.random.default_rng(5))

def unflattened(a, u=Tensor(r(2, 3)), w=Tensor(r(4))):
    """A padded flat unit carved into a [2, 3] and a [4] parameter, the
    first used twice so its grad accumulates in its home."""
    p, q = unflatten(a, [(2, 3), (4,)], [0, 6, 10])
    return (p * u).sum() + (p * p).sum() + (q * w).sum()



# op name -> list of (fn, inputs); fn takes one float64 Tensor per input.
GRAD_CASES = {
    "add": [(lambda a, b: a + b, [r(3, 4), r(4)])],
    "sub": [(lambda a, b: a - b, [r(3, 4), r(1, 4)])],
    "mul": [(lambda a, b: a * b, [r(3, 4), r(3, 1)])],
    "div": [(lambda a, b: a / b, [r(3, 4), positive(4)])],
    "neg": [(lambda a: -a, [r(5)])],
    "pow": [(lambda a: a**3, [r(3, 4)])],
    "matmul": [
        (lambda a, b: a @ b, [r(2, 3, 4), r(4, 5)]),
        (lambda a, b: a @ b, [r(2, 3, 4), r(2, 4, 5)]),
    ],
    "sum": [(lambda a: a.sum(axis=1) * a.sum(axis=(0, 1), keepdims=True), [r(2, 3, 4)])],
    "max": [(lambda a: a.max(axis=-1), [r(3, 5)])],
    "exp": [(lambda a: a.exp(), [r(3, 4)])],
    "log": [(lambda a: a.log(), [positive(3, 4)])],
    "sqrt": [(lambda a: a.sqrt(), [positive(3, 4)])],
    "tanh": [(lambda a: a.tanh(), [r(3, 4)])],
    "sigmoid": [(lambda a: a.sigmoid(), [r(3, 4)])],
    "relu": [(lambda a: a.relu(), [r(3, 4)])],
    "abs": [(lambda a: a.abs(), [r(3, 4)])],
    "clip": [(lambda a: a.clip(-0.5, 0.5), [r(3, 4)])],
    "astype": [(lambda a: a.astype(np.float64), [r(3, 4)])],
    "reshape": [(lambda a, u=Tensor(r(4, 3)): a.reshape(4, 3) * u, [r(3, 4)])],
    "transpose": [(lambda a, u=Tensor(r(4, 2, 3)): a.transpose(2, 0, 1) * u, [r(2, 3, 4)])],
    "swapaxes": [(lambda a, u=Tensor(r(4, 3, 2)): a.swapaxes(0, 2) * u, [r(2, 3, 4)])],
    "getitem": [(lambda a: a[1:, ::2].sum() * a[[0, 0, 2], 1:3], [r(3, 4)])],
    "expand_dims": [(lambda a, u=Tensor(r(3, 2, 4)): a.expand_dims(1) * u, [r(3, 4)])],
    "squeeze": [(lambda a, u=Tensor(r(3, 4)): a.squeeze(1) * u, [r(3, 1, 4)])],
    "broadcast_to": [(lambda a, u=Tensor(r(2, 3, 4)): a.broadcast_to((2, 3, 4)) * u, [r(3, 1)])],
    "pad": [(lambda a, u=Tensor(r(4, 6)): a.pad([(1, 0), (0, 2)]) * u, [r(3, 4)])],
    "concat": [(
        lambda a, b, u=Tensor(r(2, 5)): Tensor.concat([a, b], axis=1) * u, [r(2, 2), r(2, 3)],
    )],
    "softmax": [(lambda a, u=Tensor(r(3, 5)): F.softmax(a, axis=-1) * u, [r(3, 5)])],
    "log_softmax": [(lambda a, u=Tensor(r(3, 5)): F.log_softmax(a, axis=-1) * u, [r(3, 5)])],
    "gelu": [(lambda a: F.gelu(a), [r(3, 4)])],
    "layer_norm": [(
        lambda a, w, b, u=Tensor(r(2, 3, 5)): F.layer_norm(a, w, b) * u,
        [r(2, 3, 5), r(5), r(5)],
    )],
    "dropout": [(lambda a: F.dropout(a, 0.3, np.random.default_rng(5)), [r(4, 5)])],
    "checkpoint": [(lambda a, w: checkpoint(lambda t: (t @ w).tanh(), a), [r(3, 4), r(4, 2)])],
    # tokenize + bias + channel IDs: C=3, patch 2, D=5
    "tokenize": [(
        lambda w, b, ids, u=Tensor(r(2, 3, 4, 5)): tokenize_channels(IMAGES, 2, w, b, ids) * u,
        [r(3, 4, 5), r(3, 5), r(3, 5)],
    )],
    "linear": [
        (lambda x, w, b: F.linear(x, w, b), [r(2, 3, 4), r(4, 5), r(5)]),
        (lambda x, w: F.linear(x, w), [r(3, 4), r(4, 5)]),
    ],
    # [B=2, N=3, 3*D] with D=4, 2 heads: one view, and two sharing a grad
    "split_heads": [
        (lambda a, u=Tensor(r(2, 2, 3, 2)): split_heads(a, 2, 1, 3) * u, [r(2, 3, 12)]),
        (
            lambda a, u=Tensor(r(2, 2, 3, 2)), w=Tensor(r(2, 2, 3, 2)):
            split_heads(a, 2, 0, 3) * u + split_heads(a, 2, 2, 3) * w,
            [r(2, 3, 12)],
        ),
    ],
    "merge_heads": [(lambda a, u=Tensor(r(2, 3, 4)): merge_heads(a) * u, [r(2, 2, 3, 2)])],
    # q [B=2, h=2, N=3, hd=4] over 5 keys; plain, then masked with dropout 0.3
    "attention": [
        (
            lambda q, k, v, u=Tensor(r(2, 2, 3, 4)): scaled_dot_product_attention(q, k, v) * u,
            [r(2, 2, 3, 4), r(2, 2, 5, 4), r(2, 2, 5, 4)],
        ),
        (
            lambda q, k, v, u=Tensor(r(2, 2, 3, 4)), m=r(2, 1, 3, 5):
            scaled_dot_product_attention(q, k, v, drop(), m) * u,
            [r(2, 2, 3, 4), r(2, 2, 5, 4), r(2, 2, 5, 4)],
        ),
    ],
    "unflatten": [(unflattened, [r(12)])],
    # channel pooling: C=1 and C=3, Q=3, heads 4 (hd 2, D=8), dropout 0.3
    "channel_pool": [
        (
            lambda x, ws, bs, wv, bv, u=Tensor(r(2, 3, 8)):
            pool_channels(x, ws, bs, wv, bv, 3, drop()) * u,
            [r(1, c, 2, 8), r(8, 12), r(12), r(4, 8, 2), r(4, 1, 2)],
        )
        for c in (1, 3)
    ],
}



CASES = [(op, i) for op, cases in GRAD_CASES.items() for i in range(len(cases))]


@pytest.mark.parametrize("op,index", CASES, ids=[f"{op}-{i}" for op, i in CASES])
def test_gradient(op, index):
    fn, inputs = GRAD_CASES[op][index]
    check_gradients(fn, inputs)


def _recorded_ops(root: Tensor) -> set[str]:
    ops, seen, stack = set(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.add(node.op)
            stack.extend(node._parents)
    return ops - {""}  # leaves


def test_every_op_in_the_source_has_an_entry():
    """The op names ``repro.tensor`` and ``repro.nn`` pass to the graph."""
    names = set()
    for pkg in (tensor_pkg, nn):
        for path in pathlib.Path(pkg.__file__).parent.glob("*.py"):
            text = path.read_text()
            names |= set(re.findall(r'backward, "(\w+)"', text))
            names |= set(re.findall(r'\bop="(\w+)"', text))
    assert len(names) > 30
    assert names - GRAD_CASES.keys() == set()


def _x(*shape):
    return Tensor(r(*shape).astype(np.float32), requires_grad=True)


# Every repro.nn module, built small, and the inputs of one forward.
MODULE_RUNS = {
    "Linear": lambda g: (nn.Linear(8, 4, g), [_x(2, 3, 8)]),
    "LayerNorm": lambda g: (nn.LayerNorm(8), [_x(2, 3, 8)]),
    "MLP": lambda g: (nn.MLP(8, 16, g, dropout=0.3), [_x(2, 3, 8)]),
    "Dropout": lambda g: (nn.Dropout(0.3, g), [_x(2, 3, 8)]),
    "Identity": lambda g: (nn.Identity(), [_x(2, 3, 8)]),
    "MultiHeadSelfAttention": lambda g: (
        nn.MultiHeadSelfAttention(8, 2, g, dropout=0.3), [_x(2, 3, 8)]),
    "ChannelCrossAttention": lambda g: (
        nn.ChannelCrossAttention(8, 2, g, num_queries=3, dropout=0.3), [_x(2, 3, 4, 8)]),
    "LinearChannelMixer": lambda g: (nn.LinearChannelMixer(3, 1, g), [_x(2, 3, 4, 8)]),
    "PatchTokenizer": lambda g: (
        nn.PatchTokenizer(3, 2, 8, g), [IMAGES.astype(np.float32), nn.ChannelIDEmbedding(3, 8, g)]),
    "ChannelIDEmbedding": lambda g: (nn.ChannelIDEmbedding(3, 8, g), [_x(2, 3, 4, 8)]),
    "PositionalEmbedding": lambda g: (nn.PositionalEmbedding(5, 8, g), [_x(2, 5, 8)]),
    "MetadataEmbedding": lambda g: (nn.MetadataEmbedding(3, 8, g), [_x(2, 3)]),
    "TransformerBlock": lambda g: (nn.TransformerBlock(8, 2, g, dropout=0.3), [_x(2, 3, 8)]),
    "ViTEncoder": lambda g: (nn.ViTEncoder(8, 1, 2, g), [_x(2, 3, 8)]),
    "MAEDecoder": lambda g: (
        nn.MAEDecoder(8, 8, 1, 2, num_tokens=4, patch=2, out_channels=3, rng=g),
        [_x(2, 2, 8), np.array([0, 2])]),
    "PerceiverChannelFusion": lambda g: (
        nn.PerceiverChannelFusion(8, 2, g, num_latents=2, iterations=1), [_x(2, 3, 4, 8)]),
    "SwinEncoder": lambda g: (nn.SwinEncoder(8, 2, 2, (4, 4), 2, g), [_x(2, 16, 8)]),
    "SwinBlock": lambda g: (nn.SwinBlock(8, 2, (4, 4), 2, 1, g), [_x(2, 16, 8)]),
    "WindowAttention": lambda g: (nn.WindowAttention(8, 2, g), [_x(4, 4, 8)]),
}
CONTAINERS = {"Module", "ModuleList"}  # no forward of their own


def test_module_runs_cover_every_module():
    exported = {
        name for name in nn.__all__
        if inspect.isclass(getattr(nn, name)) and issubclass(getattr(nn, name), Module)
    }
    assert exported - CONTAINERS == MODULE_RUNS.keys()


def test_every_op_a_module_records_has_an_entry():
    seen = set()
    for name, build in MODULE_RUNS.items():
        module, inputs = build(np.random.default_rng(0))
        out = module(*inputs)
        ops = _recorded_ops(out)
        assert name == "Identity" or ops, name
        missing = ops - GRAD_CASES.keys()
        assert not missing, f"{name} records ops without a gradient case: {sorted(missing)}"
        seen |= ops
    assert {
        "tokenize", "channel_pool", "dropout", "layer_norm",
        "linear", "attention", "split_heads", "merge_heads",
    } <= seen
