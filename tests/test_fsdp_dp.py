"""FSDP and DP correctness: sharded training ≡ serial training (§3.4)."""

import numpy as np
import pytest

from repro.dist import average_gradients, broadcast_parameters, run_spmd, run_spmd_world
from repro.nn import MLP, ViTEncoder
from repro.parallel import DeviceMesh, FSDPModel, shard_batch
from repro.tensor import AdamW, Tensor

RNG = np.random.default_rng(31)
DIM = 16


def make_serial(seed=0):
    return ViTEncoder(DIM, 2, 4, np.random.default_rng(seed))


class TestFSDP:
    def test_forward_matches_serial(self):
        serial = make_serial()
        x = RNG.standard_normal((2, 5, DIM)).astype(np.float32)
        expect = serial(Tensor(x)).data

        def fn(comm):
            enc = make_serial()
            model = FSDPModel(comm, None, enc, units=[b for b in enc.blocks])
            return model(Tensor(x)).data.copy()

        for out in run_spmd(fn, 2):
            np.testing.assert_allclose(out, expect, rtol=1e-5, atol=1e-6)

    def test_gradients_match_serial(self):
        serial = make_serial()
        x = RNG.standard_normal((2, 5, DIM)).astype(np.float32)
        (serial(Tensor(x)) ** 2).mean().backward()
        serial_flat = np.concatenate([p.grad.ravel() for p in serial.parameters()])

        def fn(comm):
            enc = make_serial()
            model = FSDPModel(comm, None, enc, units=[b for b in enc.blocks])
            (model(Tensor(x)) ** 2).mean().backward()
            # Reassemble full gradient from shards.
            grads = []
            for unit in model.units:
                parts = comm.all_gather(unit.flat.shard.grad)
                grads.append(np.concatenate(parts)[: unit.flat.total])
            return np.concatenate(grads)

        for flat in run_spmd(fn, 2):
            # FSDP unit order: blocks then residual (norm); match by sorting names.
            assert flat.shape == serial_flat.shape
            np.testing.assert_allclose(np.sort(flat), np.sort(serial_flat), rtol=1e-4, atol=1e-5)

    def test_training_step_matches_serial(self):
        """One AdamW step on FSDP shards reproduces serial weights."""
        x = RNG.standard_normal((2, 5, DIM)).astype(np.float32)

        serial = make_serial()
        opt = AdamW(serial.parameters(), lr=1e-2, weight_decay=0.0)
        (serial(Tensor(x)) ** 2).mean().backward()
        opt.step()
        expect = serial(Tensor(x)).data

        def fn(comm):
            enc = make_serial()
            model = FSDPModel(comm, None, enc, units=[b for b in enc.blocks])
            opt = AdamW(model.shard_parameters(), lr=1e-2, weight_decay=0.0)
            (model(Tensor(x)) ** 2).mean().backward()
            opt.step()
            return model(Tensor(x)).data.copy()

        for out in run_spmd(fn, 2):
            np.testing.assert_allclose(out, expect, rtol=1e-4, atol=1e-5)

    def test_shard_bytes_scale_inversely(self):
        def fn(comm):
            enc = make_serial()
            model = FSDPModel(comm, None, enc, units=[b for b in enc.blocks])
            return model.shard_bytes()

        two = run_spmd(fn, 2)[0]
        four = run_spmd(fn, 4)[0]
        assert abs(four - two / 2) / two < 0.1  # halves (modulo padding)

    def test_fsdp_traffic_pattern(self):
        def fn(comm):
            enc = make_serial()
            model = FSDPModel(comm, None, enc, units=[b for b in enc.blocks])
            x = RNG.standard_normal((1, 4, DIM)).astype(np.float32)
            (model(Tensor(x)) ** 2).mean().backward()
            return None

        _, world = run_spmd_world(fn, 2)
        hist = world.traffic.ops_histogram()
        # 3 units (2 blocks + residual norm): AllGather fwd each, ReduceScatter bwd each.
        assert hist["all_gather"] >= 3 * 2
        assert hist["reduce_scatter"] == 3 * 2


class TestDataParallel:
    def test_dp_equals_full_batch_serial(self):
        """Mean-reduced DP gradients == gradients of the full-batch loss."""
        x = RNG.standard_normal((4, 5, DIM)).astype(np.float32)

        serial = make_serial()
        (serial(Tensor(x)) ** 2).mean().backward()
        expect = [p.grad.copy() for p in serial.parameters()]

        def fn(comm):
            model = make_serial(seed=comm.rank)
            broadcast_parameters(comm, model.parameters())  # init synced by broadcast
            xi = shard_batch(x, comm)
            (model(Tensor(xi)) ** 2).mean().backward()
            average_gradients(comm, model.parameters())
            return [p.grad.copy() for p in model.parameters()]

        for grads in run_spmd(fn, 2):
            for g, e in zip(grads, expect):
                np.testing.assert_allclose(g, e, rtol=2e-4, atol=2e-5)

    def test_broadcast_synchronises_initialisation(self):
        def fn(comm):
            model = MLP(4, 8, np.random.default_rng(comm.rank))
            broadcast_parameters(comm, model.parameters())
            return model.fc1.weight.data.copy()

        res = run_spmd(fn, 3)
        for w in res[1:]:
            np.testing.assert_array_equal(w, res[0])

    def test_shard_batch(self):
        x = np.arange(8, dtype=np.float32).reshape(8, 1)

        def fn(comm):
            return shard_batch(x, comm)[:, 0].tolist()

        res = run_spmd(fn, 4)
        assert res[0] == [0.0, 1.0] and res[3] == [6.0, 7.0]

    def test_shard_batch_uneven_raises(self):
        def fn(comm):
            shard_batch(np.zeros((5, 1)), comm)

        from repro.dist import SpmdError

        with pytest.raises(SpmdError):
            run_spmd(fn, 2)


class TestDeviceMesh:
    def test_axes_partition_world(self):
        def fn(comm):
            mesh = DeviceMesh(comm, tp=2, fsdp=2, dp=2)
            return mesh.coords, mesh.tp_group.ranks, mesh.fsdp_group.ranks, mesh.dp_group.ranks

        res = run_spmd(fn, 8)
        # rank 5 = dp1, fsdp0, tp1
        coords, tpg, fsg, dpg = res[5]
        assert (coords.dp, coords.fsdp, coords.tp) == (1, 0, 1)
        assert tpg == (4, 5)
        assert fsg == (5, 7)
        assert dpg == (1, 5)

    def test_tp_groups_are_contiguous(self):
        def fn(comm):
            mesh = DeviceMesh(comm, tp=4)
            return mesh.tp_group.ranks

        res = run_spmd(fn, 8)
        assert res[0] == (0, 1, 2, 3) and res[7] == (4, 5, 6, 7)

    def test_dchag_group_is_tp_group(self):
        def fn(comm):
            mesh = DeviceMesh(comm, tp=2, dp=2)
            return mesh.dchag_group is mesh.tp_group

        assert all(run_spmd(fn, 4))

    def test_bad_factorisation_raises(self):
        def fn(comm):
            DeviceMesh(comm, tp=3)

        from repro.dist import SpmdError

        with pytest.raises(SpmdError):
            run_spmd(fn, 4)
