"""Sharded checkpoints: save/load round-trips, resharding, consolidation.

Locks the elastic subsystem's core guarantee: a checkpoint saved at world
size N consolidates — and, after resharding, loads — **bitwise identically**
at any world size M, optimizer moments included.
"""

import gc
import json
import struct
import threading
import warnings
import zipfile

import numpy as np
import pytest

from repro.dist import run_spmd, run_spmd_world
from repro.elastic import (
    checkpoint_dir,
    checkpoint_nbytes,
    consolidate,
    drain_writers,
    latest_checkpoint,
    load_manifest,
    load_sharded,
    prune_checkpoints,
    reshard,
    save_sharded,
    writer_for,
)
from repro.elastic.checkpoint import _WRITER_REGISTRY, _close_writer
from repro.nn import MLP, load_checkpoint, save_checkpoint
from repro.parallel import DeviceMesh, FSDPModel
from repro.tensor import AdamW, Tensor

DIM, HID = 6, 10  # deliberately not divisible by 4: exercises flat-param padding


def make_module(seed=7):
    return MLP(DIM, HID, np.random.default_rng(seed))


def make_batch(seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((4, DIM)).astype(np.float32)


def train_and_save(comm, root, steps=2):
    """A few AdamW steps on an FSDP model, then a sharded save; returns the
    consolidated state dict for comparison."""
    module = make_module()
    model = FSDPModel(comm, None, module)
    opt = AdamW(model.shard_parameters(), lr=1e-2)
    x = make_batch()
    for _ in range(steps):
        model.zero_grad()
        (model(Tensor(x)) ** 2).mean().backward()
        opt.step()
    save_sharded(root, model, opt, step=steps)
    return model.consolidated_state_dict()


class TestSaveLoadRoundtrip:
    def test_load_restores_bitwise_and_optimizer(self, tmp_path):
        def fn(comm):
            expect = train_and_save(comm, tmp_path)
            fresh = FSDPModel(comm, None, make_module(seed=99))
            opt = AdamW(fresh.shard_parameters(), lr=1e-2)
            manifest = load_sharded(checkpoint_dir(tmp_path, 2), fresh, opt)
            got = fresh.consolidated_state_dict()
            same = all(np.array_equal(got[k], expect[k]) for k in expect)
            return same, manifest["step"], opt.state_dict()["step"]

        for same, step, adam_step in run_spmd(fn, 4):
            assert same
            assert step == 2
            assert adam_step == 2  # moments resumed mid-trajectory

    def test_consolidate_matches_model_consolidated_state_dict(self, tmp_path):
        def fn(comm):
            return train_and_save(comm, tmp_path)

        expect = run_spmd(fn, 4)[0]
        got = consolidate(checkpoint_dir(tmp_path, 2))
        assert got.keys() == expect.keys()
        for k in expect:
            np.testing.assert_array_equal(got[k], expect[k])

    def test_world_size_mismatch_requires_reshard(self, tmp_path):
        def save(comm):
            train_and_save(comm, tmp_path)

        run_spmd(save, 4)

        def load_wrong(comm):
            model = FSDPModel(comm, None, make_module())
            load_sharded(checkpoint_dir(tmp_path, 2), model)

        from repro.dist import SpmdError

        with pytest.raises(SpmdError, match="reshard"):
            run_spmd(load_wrong, 2)


class TestReshard:
    @pytest.mark.parametrize("new_world", [1, 2])
    def test_reshard_consolidates_bitwise(self, tmp_path, new_world):
        """The acceptance criterion: a world-size-4 checkpoint loads
        bitwise-identically at world sizes 1 and 2."""

        def save(comm):
            return train_and_save(comm, tmp_path)

        expect = run_spmd(save, 4)[0]
        src = checkpoint_dir(tmp_path, 2)
        dst, moved = reshard(src, new_world)
        assert dst != src and moved > 0
        assert load_manifest(dst)["world_size"] == new_world
        got = consolidate(dst)
        for k in expect:
            np.testing.assert_array_equal(got[k], expect[k])

        # And a live model at the new world size restores the same values.
        def load(comm):
            model = FSDPModel(comm, None, make_module(seed=123))
            opt = AdamW(model.shard_parameters(), lr=1e-2)
            load_sharded(dst, model, opt)
            return model.consolidated_state_dict()

        for state in run_spmd(load, new_world):
            for k in expect:
                np.testing.assert_array_equal(state[k], expect[k])

    def test_reshard_same_world_is_a_no_op(self, tmp_path):
        def save(comm):
            train_and_save(comm, tmp_path)

        run_spmd(save, 4)
        src = checkpoint_dir(tmp_path, 2)
        dst, moved = reshard(src, 4)
        assert dst == src and moved == 0

    def test_reshard_chain_stays_bitwise(self, tmp_path):
        """4 → 3 → 1 (two hops, uneven padding in between) stays exact."""

        def save(comm):
            return train_and_save(comm, tmp_path)

        expect = run_spmd(save, 4)[0]
        hop1, _ = reshard(checkpoint_dir(tmp_path, 2), 3)
        hop2, _ = reshard(hop1, 1)
        got = consolidate(hop2)
        for k in expect:
            np.testing.assert_array_equal(got[k], expect[k])

    def test_optimizer_state_reshards_with_params(self, tmp_path):
        def save(comm):
            train_and_save(comm, tmp_path)

        run_spmd(save, 4)
        src = checkpoint_dir(tmp_path, 2)
        dst, _ = reshard(src, 2)

        def load(comm):
            model = FSDPModel(comm, None, make_module())
            opt = AdamW(model.shard_parameters(), lr=1e-2)
            load_sharded(dst, model, opt)
            st = opt.state_dict()
            return st["step"], sum(float(np.abs(m).sum()) for m in st["m"])

        for step, m_mass in run_spmd(load, 2):
            assert step == 2
            assert m_mass > 0.0  # moments actually travelled


class TestConsolidatedVsSerial:
    def test_consolidated_state_dict_matches_serial_bitwise(self):
        """Satellite: FSDP consolidation ≡ the serial module's state dict.

        A whole-module FSDP wrap has one unit whose parameter names are the
        module's own dotted names, so ``unit0.<name>`` maps 1:1.
        """
        serial = make_module()
        expect = serial.state_dict()

        def fn(comm):
            return FSDPModel(comm, None, make_module()).consolidated_state_dict()

        for world in (1, 2, 4):
            got = run_spmd(fn, world)[0]
            assert set(got) == {f"unit0.{k}" for k in expect}
            for k in expect:
                np.testing.assert_array_equal(got[f"unit0.{k}"], expect[k])


class TestLatestCheckpoint:
    def test_picks_highest_step_and_skips_torn_dirs(self, tmp_path):
        def fn(comm):
            module = make_module()
            model = FSDPModel(comm, None, module)
            for step in (1, 3, 5):
                save_sharded(tmp_path, model, step=step)

        run_spmd(fn, 2)
        # Tear step 5: a save that died before its manifest landed.
        (checkpoint_dir(tmp_path, 5) / "manifest.json").unlink()
        assert latest_checkpoint(tmp_path) == checkpoint_dir(tmp_path, 3)
        # Tear step 3 differently: manifest present, shard file missing.
        (checkpoint_dir(tmp_path, 3) / "shard_0001.npz").unlink()
        assert latest_checkpoint(tmp_path) == checkpoint_dir(tmp_path, 1)

    def test_empty_root_returns_none(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        assert latest_checkpoint(tmp_path / "missing") is None

    def test_checkpoint_nbytes_counts_params_and_moments(self, tmp_path):
        def fn(comm):
            model = FSDPModel(comm, None, make_module())
            opt = AdamW(model.shard_parameters(), lr=1e-2)
            (model(Tensor(make_batch())) ** 2).mean().backward()
            opt.step()
            save_sharded(tmp_path, model, opt, step=1)
            return sum(u.flat.shard.nbytes for u in model.units)

        per_rank = run_spmd(fn, 2)[0]
        # 2 ranks × (param + m + v) per unit shard.
        assert checkpoint_nbytes(checkpoint_dir(tmp_path, 1)) == 2 * 3 * per_rank


class TestDPDeduplication:
    def test_only_one_replica_writes(self, tmp_path):
        """On a dp×fsdp mesh, replicas hold identical shards; only dp==0
        writes, and the checkpoint's world size is the FSDP group size."""

        def fn(comm):
            mesh = DeviceMesh(comm, fsdp=2, dp=2)
            module = make_module()
            model = FSDPModel(comm, mesh.fsdp_group, module)
            save_sharded(tmp_path, model, step=1, write=mesh.coords.dp == 0)
            return model.consolidated_state_dict()

        results, _ = run_spmd_world(fn, 4)
        manifest = load_manifest(checkpoint_dir(tmp_path, 1))
        assert manifest["world_size"] == 2
        assert len(manifest["shards"]) == 2
        got = consolidate(checkpoint_dir(tmp_path, 1))
        for k in results[0]:
            np.testing.assert_array_equal(got[k], results[0][k])


class TestSerializationSuffix:
    def test_save_path_roundtrips_through_load(self, tmp_path):
        """Satellite: ``model.ckpt`` → ``model.ckpt.npz`` without the caller
        re-deriving the path — load accepts the original argument."""
        a, b = make_module(seed=1), make_module(seed=2)
        written = save_checkpoint(a, tmp_path / "model.ckpt")
        assert written == tmp_path / "model.ckpt.npz"
        # Load via the *original* (pre-derivation) path.
        load_checkpoint(b, tmp_path / "model.ckpt")
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_bare_and_npz_paths_roundtrip(self, tmp_path):
        a, b = make_module(seed=1), make_module(seed=2)
        save_checkpoint(a, tmp_path / "bare")
        load_checkpoint(b, tmp_path / "bare")
        c = make_module(seed=3)
        save_checkpoint(a, tmp_path / "exact.npz")
        load_checkpoint(c, tmp_path / "exact.npz")
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


def _writer_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name == "ckpt-writer"}


class TestAsyncCheckpointWriter:
    @pytest.fixture(autouse=True)
    def _closes_its_writers(self, tmp_path):
        """Close every writer a case opened under its ``tmp_path``, then
        check that none of their threads outlives the case."""
        before = _writer_threads()
        yield
        base = tmp_path.resolve()
        for root in [key for key in _WRITER_REGISTRY if key.is_relative_to(base)]:
            _close_writer(root)
        assert not _writer_threads() - before, "a ckpt-writer thread outlived its case"

    def test_async_save_bitwise_equals_sync(self, tmp_path):
        sync_root, async_root = tmp_path / "sync", tmp_path / "async"

        def fn(comm):
            module = make_module()
            model = FSDPModel(comm, None, module)
            opt = AdamW(model.shard_parameters(), lr=1e-2)
            x = make_batch()
            for _ in range(2):
                model.zero_grad()
                (model(Tensor(x)) ** 2).mean().backward()
                opt.step()
            save_sharded(sync_root, model, opt, step=2)
            save_sharded(async_root, model, opt, step=2, writer=writer_for(async_root))

        run_spmd(fn, 2)
        drain_writers(async_root)
        assert latest_checkpoint(async_root) == checkpoint_dir(async_root, 2)
        expect = consolidate(checkpoint_dir(sync_root, 2))
        got = consolidate(checkpoint_dir(async_root, 2))
        assert got.keys() == expect.keys()
        for k in expect:
            np.testing.assert_array_equal(got[k], expect[k])

    def test_staged_snapshot_is_immune_to_later_mutation(self, tmp_path):
        """The async writer copies at the barrier: training can stomp the
        live buffers on the very next step without corrupting the save."""

        def fn(comm):
            model = FSDPModel(comm, None, make_module())
            expect = model.consolidated_state_dict()
            save_sharded(tmp_path, model, step=1, writer=writer_for(tmp_path))
            for unit in model.units:
                unit.flat.shard.data += 123.0  # the "next step"
            return expect

        expect = run_spmd(fn, 2)[0]
        drain_writers(tmp_path)
        got = consolidate(checkpoint_dir(tmp_path, 1))
        for k in expect:
            np.testing.assert_array_equal(got[k], expect[k])

    def test_kill_during_async_save_is_torn_not_latest(self, tmp_path):
        writer = writer_for(tmp_path)

        def fn(comm):
            model = FSDPModel(comm, None, make_module())
            save_sharded(tmp_path, model, step=1)  # durable sync baseline
            save_sharded(tmp_path, model, step=2, writer=writer)

        def boom(step_dir):
            raise OSError("simulated crash before manifest")

        writer.pre_manifest_hook = boom
        run_spmd(fn, 2)
        with pytest.raises(RuntimeError, match="async checkpoint write failed"):
            drain_writers(tmp_path)
        # Shards may exist but the manifest never landed: torn, skipped.
        assert not (checkpoint_dir(tmp_path, 2) / "manifest.json").exists()
        assert latest_checkpoint(tmp_path) == checkpoint_dir(tmp_path, 1)
        writer.close()

    def test_registry_recreates_closed_writers(self, tmp_path):
        w1 = writer_for(tmp_path)
        assert writer_for(tmp_path) is w1
        w1.close()
        w2 = writer_for(tmp_path)
        assert w2 is not w1
        drain_writers(tmp_path / "never-used")  # unconditional drain is a no-op
        w2.close()


def _flip_unit0_param_byte(path):
    """Flip the last byte of ``unit0.param``'s array data inside the zip."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("unit0.param.npy")
    raw = bytearray(path.read_bytes())
    # Local file header: 30 fixed bytes, then the name and extra fields.
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    data_start = info.header_offset + 30 + name_len + extra_len
    raw[data_start + info.compress_size - 1] ^= 0xFF  # stored, not deflated
    path.write_bytes(bytes(raw))


def _truncate_to_half(path):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


def _load_on_rank_1(step_dir, tmp_path):
    """A 2-rank restore in which only rank 1 reads the damaged shard;
    re-raises that rank's own exception."""

    def load(comm):
        model = FSDPModel(comm, None, make_module(seed=99))
        load_sharded(step_dir, model, AdamW(model.shard_parameters(), lr=1e-2))

    from repro.dist import SpmdError

    with pytest.raises(SpmdError) as exc:
        run_spmd(load, 2)
    assert exc.value.rank == 1
    raise exc.value.__cause__


class TestDamagedShard:
    """``np.load`` checks the zip container's per-member CRC-32, so a damaged
    shard raises on read instead of loading wrong bytes."""

    @pytest.mark.parametrize(
        "damage", [_flip_unit0_param_byte, _truncate_to_half], ids=["flip", "truncate"]
    )
    @pytest.mark.parametrize(
        "read",
        [
            _load_on_rank_1,
            lambda step_dir, tmp_path: reshard(step_dir, 3, dst_dir=tmp_path / "w3"),
            lambda step_dir, tmp_path: consolidate(step_dir),
        ],
        ids=["load_sharded", "reshard", "consolidate"],
    )
    def test_damaged_shard_raises_zip_error(self, tmp_path, damage, read):
        """... and leaves no handle on the damaged file open."""
        run_spmd(lambda comm: train_and_save(comm, tmp_path), 2)
        step_dir = checkpoint_dir(tmp_path, 2)
        damage(step_dir / "shard_0001.npz")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(zipfile.BadZipFile):
                read(step_dir, tmp_path)
            gc.collect()
        leaks = [
            w for w in caught
            if issubclass(w.category, ResourceWarning) and "shard_0001" in str(w.message)
        ]
        assert not leaks, [str(w.message) for w in leaks]


class TestDeltaManifestRejected:
    def test_older_delta_manifest_is_rejected_and_skipped(self, tmp_path):
        def fn(comm):
            model = FSDPModel(comm, None, make_module())
            for step in (1, 2):
                save_sharded(tmp_path, model, step=step)

        run_spmd(fn, 2)
        step_dir = checkpoint_dir(tmp_path, 2)
        manifest_path = step_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["delta"] = {"base": "step_00000001", "units": [0]}
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="step_00000002"):
            load_manifest(step_dir)
        assert latest_checkpoint(tmp_path) == checkpoint_dir(tmp_path, 1)


def _rename_key(key):
    # A single-byte change renames the key.
    return lambda text: text.replace(f'"{key}"', f'"{key[:-1]}X"', 1)


#: Manifest damage that leaves valid JSON a load cannot use.
_MANIFEST_DAMAGE = {
    **{f"no_{key}": _rename_key(key) for key in ("shards", "step", "world_size", "units")},
    # Names no shard, so every named shard is vacuously on disk.
    "shards_not_a_list": lambda text: json.dumps({**json.loads(text), "shards": {}}),
    "not_an_object": lambda text: "4",
}


class TestDamagedManifest:
    """A manifest missing or mistyping a key its readers need is incomplete,
    not the latest checkpoint: discovery falls back to the previous step,
    and retention removes the damaged one."""

    @pytest.mark.parametrize("damage", list(_MANIFEST_DAMAGE))
    def test_damaged_manifest_is_skipped(self, tmp_path, damage):
        def fn(comm):
            model = FSDPModel(comm, None, make_module())
            for step in (2, 4):
                save_sharded(tmp_path, model, step=step)

        run_spmd(fn, 2)
        manifest_path = checkpoint_dir(tmp_path, 4) / "manifest.json"
        manifest_path.write_text(_MANIFEST_DAMAGE[damage](manifest_path.read_text()))
        assert latest_checkpoint(tmp_path) == checkpoint_dir(tmp_path, 2)
        assert prune_checkpoints(tmp_path, keep_last=1) == [checkpoint_dir(tmp_path, 4)]


class TestPruneCheckpoints:
    def _save_steps(self, comm, root, steps):
        module = make_module()
        model = FSDPModel(comm, None, module, units=[module.fc1, module.fc2])
        opt = AdamW(model.shard_parameters(), lr=1e-2)
        for step in steps:
            model.units[0].flat.shard.data += 1.0
            save_sharded(root, model, opt, step=step)

    def test_prune_keeps_last_k_and_removes_torn(self, tmp_path):
        run_spmd(lambda comm: self._save_steps(comm, tmp_path, (1, 2, 3, 4)), 2)
        (checkpoint_dir(tmp_path, 4) / "manifest.json").unlink()  # torn
        removed = prune_checkpoints(tmp_path, keep_last=2)
        assert checkpoint_dir(tmp_path, 1) in removed
        assert checkpoint_dir(tmp_path, 4) in removed  # torn goes too
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "step_00000002", "step_00000003",
        ]
        assert latest_checkpoint(tmp_path) == checkpoint_dir(tmp_path, 3)

    def test_save_with_keep_last_prunes_inline(self, tmp_path):
        def fn(comm):
            module = make_module()
            model = FSDPModel(comm, None, module)
            for step in (1, 2, 3):
                save_sharded(tmp_path, model, step=step, keep_last=2)

        run_spmd(fn, 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "step_00000002", "step_00000003",
        ]

# -- property: reshard round trips are bitwise, moments included ------------
from pathlib import Path
import tempfile

from hypothesis import given, settings, strategies as st


@st.composite
def _reshard_cases(draw):
    # Dims deliberately allowed to be coprime with the world sizes, so the
    # flat-param padding differs between N and M (the hard case).
    dim = draw(st.integers(min_value=3, max_value=9))
    hid = draw(st.integers(min_value=4, max_value=12))
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    return dim, hid, n, m


class TestReshardRoundTripProperty:
    @settings(max_examples=8, deadline=None)
    @given(_reshard_cases())
    def test_n_to_m_to_n_bitwise_params_and_moments(self, case):
        """Satellite: for arbitrary (dim, hid, N, M) — uneven splits
        included — reshard N→M→N restores every rank's parameter shard AND
        its AdamW moment shards bitwise."""
        dim, hid, n, m = case

        def make(seed):
            module = MLP(dim, hid, np.random.default_rng(seed))
            return module, [module.fc1, module.fc2]

        with tempfile.TemporaryDirectory() as td:
            root = Path(td)

            def save(comm):
                module, units = make(5)
                model = FSDPModel(comm, None, module, units=units)
                opt = AdamW(model.shard_parameters(), lr=1e-2)
                rng = np.random.default_rng(13)
                x = rng.standard_normal((4, dim)).astype(np.float32)
                for _ in range(2):
                    model.zero_grad()
                    (model(Tensor(x)) ** 2).mean().backward()
                    opt.step()
                save_sharded(root, model, opt, step=2)
                return model.consolidated_state_dict(), opt.state_dict()

            originals = run_spmd(save, n)
            hop, _ = reshard(checkpoint_dir(root, 2), m, dst_dir=root / "hop")
            back, _ = reshard(hop, n, dst_dir=root / "back")

            def load(comm):
                module, units = make(99)  # different init: loading must win
                model = FSDPModel(comm, None, module, units=units)
                opt = AdamW(model.shard_parameters(), lr=1e-2)
                load_sharded(back, model, opt)
                return model.consolidated_state_dict(), opt.state_dict()

            for (got_state, got_opt), (orig_state, orig_opt) in zip(
                run_spmd(load, n), originals
            ):
                for k in orig_state:
                    np.testing.assert_array_equal(got_state[k], orig_state[k])
                assert got_opt["step"] == orig_opt["step"]
                for key in ("m", "v"):
                    for got_arr, orig_arr in zip(got_opt[key], orig_opt[key]):
                        np.testing.assert_array_equal(got_arr, orig_arr)

    @settings(max_examples=5, deadline=None)
    @given(
        fsdp=st.integers(min_value=1, max_value=2),
        m=st.integers(min_value=1, max_value=3),
    )
    def test_dp_deduplicated_save_survives_round_trip(self, fsdp, m):
        """DP replicas dedup at save time (only dp==0 writes); the surviving
        FSDP-group checkpoint still round-trips fsdp→M→fsdp bitwise."""
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)

            def save(comm):
                mesh = DeviceMesh(comm, fsdp=fsdp, dp=2)
                module = make_module()
                model = FSDPModel(comm, mesh.fsdp_group, module)
                opt = AdamW(model.shard_parameters(), lr=1e-2)
                (model(Tensor(make_batch())) ** 2).mean().backward()
                opt.step()
                save_sharded(root, model, opt, step=1, write=mesh.coords.dp == 0)
                return model.consolidated_state_dict()

            expect = run_spmd(save, fsdp * 2)[0]
            assert load_manifest(checkpoint_dir(root, 1))["world_size"] == fsdp
            hop, _ = reshard(checkpoint_dir(root, 1), m, dst_dir=root / "hop")
            back, _ = reshard(hop, fsdp, dst_dir=root / "back")
            got = consolidate(back)
            assert got.keys() == expect.keys()
            for k in expect:
                np.testing.assert_array_equal(got[k], expect[k])
