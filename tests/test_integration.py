"""Full-stack integration tests: complete models under composed strategies.

These exercise paths no unit test covers end-to-end: TP front-end + TP
encoder trained together, FSDP with activation checkpointing, D-CHAG + FSDP
via the device mesh, and checkpoint interchange between a distributed and a
serial model.
"""

import numpy as np
import pytest

from repro.core import DCHAG, DCHAGConfig
from repro.dist import average_gradients, broadcast_parameters, run_spmd, run_spmd_world
from repro.models import MAEModel, build_serial_mae
from repro.nn import (
    ChannelCrossAttention,
    PatchTokenizer,
    ViTEncoder,
    load_checkpoint,
    save_checkpoint,
)
from repro.parallel import (
    DeviceMesh,
    DistributedTokenizer,
    FSDPModel,
    ParallelContext,
    shard_batch,
    tensor_parallel,
)
from repro.tensor import AdamW, Tensor, checkpoint_sequential
from repro.train import TrainConfig, Trainer

RNG = np.random.default_rng(111)
C, IMG, P, D, HEADS, DEPTH = 8, 16, 4, 32, 4, 2


class TestFullTPStack:
    """The paper's baseline: TP applied to tokenizer-redundant front-end AND
    the ViT — trained for several steps, equivalent to serial throughout."""

    def test_tp_training_tracks_serial(self):
        imgs = RNG.standard_normal((2, C, IMG, IMG)).astype(np.float32)

        # Serial reference.
        rng = np.random.default_rng(5)
        tok = PatchTokenizer(C, P, D, rng)
        agg = ChannelCrossAttention(D, HEADS, rng)
        enc = ViTEncoder(D, DEPTH, HEADS, rng)
        params = tok.parameters() + agg.parameters() + enc.parameters()
        opt = AdamW(params, lr=1e-3, weight_decay=0.0)
        serial_losses = []
        for _ in range(3):
            for p in params:
                p.grad = None
            out = enc(agg(tok(imgs)))
            loss = (out * out).mean()
            loss.backward()
            opt.step()
            serial_losses.append(loss.item())

        def fn(comm):
            rng = np.random.default_rng(5)
            tok = PatchTokenizer(C, P, D, rng)          # replicated (same seed)
            ctx = ParallelContext(comm)
            agg = tensor_parallel(ctx, ChannelCrossAttention(D, HEADS, rng))
            enc = tensor_parallel(ctx, ViTEncoder(D, DEPTH, HEADS, rng))
            params = tok.parameters() + agg.parameters() + enc.parameters()
            opt = AdamW(params, lr=1e-3, weight_decay=0.0)
            losses = []
            for _ in range(3):
                for p in params:
                    p.grad = None
                out = enc(agg(tok(imgs)))
                loss = (out * out).mean()
                loss.backward()
                opt.step()
                losses.append(loss.item())
            return losses

        for losses in run_spmd(fn, 2):
            np.testing.assert_allclose(losses, serial_losses, rtol=5e-3)


class TestFSDPWithCheckpointing:
    def test_combined_strategies_match_serial_step(self):
        """FSDP sharding + per-block activation checkpointing in one step."""
        x = RNG.standard_normal((2, 5, D)).astype(np.float32)

        serial = ViTEncoder(D, DEPTH, HEADS, np.random.default_rng(0))
        (serial(Tensor(x)) ** 2).mean().backward()
        opt = AdamW(serial.parameters(), lr=1e-2, weight_decay=0.0)
        opt.step()
        expect = serial(Tensor(x)).data

        def fn(comm):
            enc = ViTEncoder(D, DEPTH, HEADS, np.random.default_rng(0))
            model = FSDPModel(comm, None, enc, units=[b for b in enc.blocks])

            def fwd():
                # materialize + checkpointed block execution + final norm
                for u in model.units:
                    u.materialize()
                h = checkpoint_sequential(list(enc.blocks), Tensor(x))
                return enc.norm(h)

            (fwd() ** 2).mean().backward()
            opt = AdamW(model.shard_parameters(), lr=1e-2, weight_decay=0.0)
            opt.step()
            return fwd().data.copy()

        for out in run_spmd(fn, 2):
            np.testing.assert_allclose(out, expect, rtol=2e-4, atol=2e-5)


class TestDCHAGWithFSDPMesh:
    def test_hybrid_mesh_training_converges_and_syncs(self):
        """D-CHAG(tp=2) × DP(2) with FSDP-wrapped encoder inside each
        replica: mesh axes compose, losses drop, DP replicas stay in sync."""
        ds_imgs = RNG.standard_normal((8, C, IMG, IMG)).astype(np.float32)

        def fn(comm):
            mesh = DeviceMesh(comm, tp=2, dp=2)
            cfg = DCHAGConfig(channels=C, patch=P, dim=D, heads=HEADS, kind="linear")
            frontend = DCHAG(comm, mesh.dchag_group, cfg, rng_seed=1)
            shared = np.random.default_rng(0)
            model = MAEModel(
                frontend, ViTEncoder(D, DEPTH, HEADS, shared),
                num_tokens=(IMG // P) ** 2, dim=D, patch=P, out_channels=C,
                rng=shared, mask_ratio=0.5, decoder_depth=1,
            )
            broadcast_parameters(comm, model.parameters(), group=mesh.dp_group)
            local = shard_batch(ds_imgs, comm, mesh.dp_group)

            tr = Trainer(
                model, TrainConfig(lr=3e-3, total_steps=5, warmup_steps=1),
                grad_hook=lambda: average_gradients(comm, model.parameters(), group=mesh.dp_group),
            )
            losses = [tr.step(local, np.random.default_rng(70 + i)) for i in range(5)]
            probe = model.frontend.final.query_tokens.data.copy()
            return losses, probe

        res = run_spmd(fn, 4)
        # TP peers (ranks 0/1 and 2/3) share batches → identical losses.
        np.testing.assert_allclose(res[0][0], res[1][0], rtol=1e-5)
        np.testing.assert_allclose(res[2][0], res[3][0], rtol=1e-5)
        # Convergence on every replica.
        for losses, _ in res:
            assert losses[-1] < losses[0]
        # Replicated final layer identical across ALL ranks after training
        # (synced across DP by AllReduce, across TP by construction).
        for _, probe in res[1:]:
            np.testing.assert_allclose(probe, res[0][1], rtol=1e-5, atol=1e-6)


class TestCheckpointInterchange:
    def test_serial_checkpoint_restores_into_fresh_model(self, tmp_path):
        model = build_serial_mae(C, IMG, P, D, DEPTH, HEADS, np.random.default_rng(1))
        imgs = RNG.standard_normal((2, C, IMG, IMG)).astype(np.float32)
        tr = Trainer(model, TrainConfig(lr=3e-3, total_steps=3, warmup_steps=1))
        for i in range(3):
            tr.step(imgs, np.random.default_rng(i))
        path = save_checkpoint(model, tmp_path / "trained")

        fresh = build_serial_mae(C, IMG, P, D, DEPTH, HEADS, np.random.default_rng(99))
        load_checkpoint(fresh, path)
        a = model.loss(imgs, np.random.default_rng(7)).item()
        b = fresh.loss(imgs, np.random.default_rng(7)).item()
        assert a == pytest.approx(b, rel=1e-6)

    def test_distributed_tokenizer_reconstructs_serial_weights(self):
        """Gathering D-CHAG tokenizer shards reproduces the master tensor —
        the mechanism for converting a distributed checkpoint to serial."""
        master = PatchTokenizer(C, P, D, np.random.default_rng(4))

        def fn(comm):
            tok = DistributedTokenizer(
                comm, None, C, P, D, master.weight.data, master.bias.data
            )
            gathered = np.concatenate(comm.all_gather(tok.tokenizer.weight.data), axis=0)
            return gathered

        for gathered in run_spmd(fn, 4):
            np.testing.assert_array_equal(gathered, master.weight.data)
