"""Distributed sharded checkpoints: resharding and async saves.

Layout: one checkpoint is a directory ``step_{S:08d}/`` under a checkpoint
root, holding one ``shard_{i:04d}.npz`` per FSDP group rank plus a
``manifest.json`` describing the flat-parameter geometry:

.. code-block:: text

    ckpts/
      step_00000004/
        manifest.json          # written LAST -> its presence marks completeness
        shard_0000.npz         # unit{k}.param / unit{k}.m / unit{k}.v
        shard_0001.npz
      step_00000004.w3/        # the same step resharded to world size 3

Every save is a full save: each step directory holds every unit, so a
reader opens ``step_dir / shard_{r}.npz`` and nothing else.

Each shard file stores, per FSDP unit, this rank's slice of the padded flat
parameter and (optionally) the matching AdamW moment slices — the optimizer
state rides along with exactly the same geometry, because the optimizer runs
on the flat shards.

Because the manifest records the *unpadded* layout (parameter names, shapes
and the flat ``total``), a checkpoint saved at world size N can be
**resharded** to any world size M as pure data movement: concatenate the N
shards, strip N's pad, re-pad for M, re-split.  No arithmetic touches the
values, so reshard → consolidate is bitwise-identical to the original
consolidated state at any M.

Two durability/throughput layers on top of the base format:

* **Torn-save detection.**  Shard files are written atomically
  (write → flush → fsync → rename → fsync the directory entry) and the
  manifest strictly last, so ``manifest.json`` existing implies every named
  shard is durable; :func:`latest_checkpoint` skips anything else.  A
  damaged shard is caught by ``np.load`` itself: the zip container carries
  a CRC-32 per member, so flipped or truncated bytes raise on read.  Each
  shard file is opened here and handed to ``np.load``, so it is closed
  even when the container fails to parse.
* **Async (double-buffered) saves.**  :class:`AsyncCheckpointWriter` lets
  :func:`save_sharded` return after an in-memory shard snapshot taken at
  the group barrier; a background thread writes the files (manifest still
  last) overlapped with subsequent training steps.  One snapshot is in
  flight at a time — the classic double buffer.

DP replicas hold identical shards by construction, so only one replica
(``write=True``, conventionally ``mesh.coords.dp == 0``) writes files; the
other replicas still join the group barrier so the save is collective.
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import threading
from pathlib import Path
from typing import Callable

import numpy as np

from ..parallel.fsdp import FSDPModel
from ..tensor.arena import flat_offsets
from ..tensor.optim import AdamW

__all__ = [
    "MANIFEST_NAME",
    "AsyncCheckpointWriter",
    "writer_for",
    "drain_writers",
    "checkpoint_dir",
    "save_sharded",
    "load_sharded",
    "load_manifest",
    "latest_checkpoint",
    "prune_checkpoints",
    "reshard",
    "consolidate",
    "checkpoint_nbytes",
]

MANIFEST_NAME = "manifest.json"
_VERSION = 2


def checkpoint_dir(root: str | Path, step: int) -> Path:
    """The step directory for checkpoint *step* under *root*."""
    return Path(root) / f"step_{int(step):08d}"


def _shard_name(group_rank: int) -> str:
    return f"shard_{int(group_rank):04d}.npz"


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry so a completed rename survives the metadata
    layer (a rename alone is atomic but not durable — the entry can be lost
    on power cut, leaving a complete-looking checkpoint torn)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platforms/filesystems without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_savez(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Durably write-then-rename so a crash mid-save never leaves a torn
    file and a finished rename never evaporates: flush + fsync the payload,
    rename into place, then fsync the parent directory entry."""
    tmp = path.with_name(path.name + ".tmp.npz")
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def _atomic_write_json(path: Path, obj: dict) -> None:
    """The manifest counterpart of :func:`_atomic_savez`."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=1))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


class AsyncCheckpointWriter:
    """Background writer overlapping checkpoint I/O with training compute.

    Shared by every rank of one SPMD world: ranks :meth:`stage` in-memory
    snapshots of their shard arrays (a copy — training mutates the live
    buffers on the very next step), and after the group barrier the lead
    rank :meth:`commit`\\ s the step, enqueueing one write job.  The worker
    thread writes every staged shard file atomically, then the manifest
    strictly last, then fsyncs the directory — so the manifest-last torn-
    save invariant holds for async saves exactly as for blocking ones.

    One job is in flight at a time: one snapshot being written while the
    next is being staged (double buffering).  A second :meth:`commit`
    blocks until the first write finishes, which is the natural back-
    pressure when the write takes longer than a checkpoint interval.

    Background write errors surface on the next :meth:`commit`,
    :meth:`wait` or :meth:`close`.  ``pre_manifest_hook`` (test-only) runs
    after a job's shards and before its manifest — raising from it
    simulates a crash mid-save, leaving a torn checkpoint.
    """

    def __init__(self) -> None:
        self._slots = threading.Semaphore(1)
        self._lock = threading.Lock()
        self._staged: dict[Path, dict[str, dict[str, np.ndarray]]] = {}
        self._queue: queue.Queue = queue.Queue()
        self._errors: list[BaseException] = []
        self._thread: threading.Thread | None = None
        self._closed = False
        self.pre_manifest_hook: Callable[[Path], None] | None = None

    # -- staging (called per rank, pre-barrier) ----------------------------
    def stage(self, step_dir: Path, shard_name: str, arrays: dict[str, np.ndarray]) -> None:
        """Snapshot one rank's shard arrays for *step_dir* (copies taken now)."""
        snap = {k: np.array(v, copy=True) for k, v in arrays.items()}
        with self._lock:
            self._staged.setdefault(Path(step_dir), {})[shard_name] = snap

    # -- committing (lead rank, post-barrier) ------------------------------
    def commit(self, step_dir: Path, manifest: dict, keep_last: int | None = None) -> None:
        """Enqueue the write of *step_dir*: staged shards, manifest last.

        Blocks while the previous job is still writing (back-pressure).
        Re-raises any background error from earlier jobs.
        """
        self._raise_pending()
        step_dir = Path(step_dir)
        with self._lock:
            shards = self._staged.pop(step_dir, {})
        self._slots.acquire()
        self._ensure_thread()
        self._queue.put((step_dir, shards, manifest, keep_last))

    # -- worker ------------------------------------------------------------
    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._worker, name="ckpt-writer", daemon=True
            )
            self._thread.start()

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            step_dir, shards, manifest, keep_last = job
            try:
                step_dir.mkdir(parents=True, exist_ok=True)
                for shard_name, arrays in shards.items():
                    _atomic_savez(step_dir / shard_name, arrays)
                if self.pre_manifest_hook is not None:
                    self.pre_manifest_hook(step_dir)
                _atomic_write_json(step_dir / MANIFEST_NAME, manifest)
                if keep_last is not None:
                    prune_checkpoints(step_dir.parent, keep_last=keep_last)
            except BaseException as exc:  # surfaced on the next commit/wait
                with self._lock:
                    self._errors.append(exc)
            finally:
                self._slots.release()
                self._queue.task_done()

    # -- draining ----------------------------------------------------------
    def _raise_pending(self) -> None:
        with self._lock:
            if self._errors:
                err = self._errors.pop(0)
                raise RuntimeError("async checkpoint write failed") from err

    def wait(self) -> None:
        """Block until every committed save is durable; re-raise errors."""
        self._queue.join()
        self._raise_pending()

    def close(self) -> None:
        """Drain, then stop the worker thread.  Idempotent."""
        if self._closed:
            return
        self._queue.join()
        if self._thread is not None and self._thread.is_alive():
            self._queue.put(None)
            self._queue.join()
            self._thread.join(timeout=10.0)
        self._closed = True
        self._raise_pending()


# Process-wide writers keyed by checkpoint root: every rank thread of a
# world saving under one root shares one writer (one background I/O lane per
# run), and the supervisor can drain in-flight saves before picking a
# resume checkpoint.
_WRITER_REGISTRY: dict[Path, AsyncCheckpointWriter] = {}
_WRITER_REGISTRY_LOCK = threading.Lock()


def writer_for(root: str | Path) -> AsyncCheckpointWriter:
    """The shared :class:`AsyncCheckpointWriter` for checkpoint root *root*."""
    key = Path(root).resolve()
    with _WRITER_REGISTRY_LOCK:
        writer = _WRITER_REGISTRY.get(key)
        if writer is None or writer._closed:
            writer = AsyncCheckpointWriter()
            _WRITER_REGISTRY[key] = writer
        return writer


def drain_writers(root: str | Path) -> None:
    """Make every async save under *root* durable; re-raise write errors.

    A no-op when no writer was ever created for *root*, so callers (the
    elastic supervisor, tests) can drain unconditionally.
    """
    key = Path(root).resolve()
    with _WRITER_REGISTRY_LOCK:
        writer = _WRITER_REGISTRY.get(key)
    if writer is not None:
        writer.wait()


def _close_writer(root: str | Path) -> None:
    """Drop *root*'s writer from the registry and stop its thread, draining
    first.  A no-op when no writer was ever created for *root*."""
    key = Path(root).resolve()
    with _WRITER_REGISTRY_LOCK:
        writer = _WRITER_REGISTRY.pop(key, None)
    if writer is not None:
        writer.close()


def save_sharded(
    root: str | Path,
    model: FSDPModel,
    optimizer: AdamW | None = None,
    step: int = 0,
    extra: dict | None = None,
    write: bool = True,
    writer: AsyncCheckpointWriter | None = None,
    keep_last: int | None = None,
) -> Path:
    """Collectively write a sharded checkpoint of *model* at *step*.

    Every rank of the model's FSDP group must call this at the same step.
    Ranks with ``write=False`` (deduplicated DP replicas) skip file I/O but
    still participate in the completion barrier.  The manifest is written by
    group rank 0 strictly after the barrier, so ``manifest.json`` existing
    implies every shard file is complete — the invariant
    :func:`latest_checkpoint` relies on to skip checkpoints torn by a crash.

    ``writer`` switches to the **async** path: the call returns once every
    rank's shard snapshot is staged (a memcpy at the barrier, not a disk
    write) and the :class:`AsyncCheckpointWriter` persists the files in the
    background, overlapped with subsequent steps.  Call ``writer.wait()``
    before relying on the save being durable.

    ``keep_last`` prunes the root down to the newest *keep_last* complete
    checkpoints once the manifest is durable — the retention knob long runs
    need.

    *extra* (JSON-serializable) is carried in the manifest; elastic trainers
    stash their loss history there so resumed runs report full trajectories.
    """
    comm, group = model.comm, model.group
    me = group.rank_index(comm.rank)
    root = Path(root)
    step_dir = checkpoint_dir(root, step)
    opt_state = optimizer.state_dict() if optimizer is not None else None
    adam_step = 0 if opt_state is None else int(opt_state["step"])
    shard_arrays: dict[str, np.ndarray] = {}
    for i, unit in enumerate(model.units):
        shard_arrays[f"unit{i}.param"] = unit.flat.shard.data
        if opt_state is not None:
            shard_arrays[f"unit{i}.m"] = opt_state["m"][i]
            shard_arrays[f"unit{i}.v"] = opt_state["v"][i]

    # Entry barrier: no rank starts writing this step's shard until group
    # rank 0 has finished the previous save — its manifest and its
    # ``keep_last`` prune, which deletes any step directory without a
    # manifest and would otherwise remove a peer's in-flight shard.
    comm.barrier(group)
    if write:
        if writer is not None:
            writer.stage(step_dir, _shard_name(me), shard_arrays)
        else:
            step_dir.mkdir(parents=True, exist_ok=True)
            _atomic_savez(step_dir / _shard_name(me), shard_arrays)
    comm.barrier(group)
    if write and me == 0:
        manifest = {
            "version": _VERSION,
            "step": int(step),
            "world_size": int(group.size),
            "units": model.shard_metadata(),
            "has_optimizer": optimizer is not None,
            "adam_step": adam_step,
            "shards": [_shard_name(r) for r in range(group.size)],
            "extra": extra if extra is not None else {},
        }
        if writer is not None:
            writer.commit(step_dir, manifest, keep_last=keep_last)
        else:
            _atomic_write_json(step_dir / MANIFEST_NAME, manifest)
            if keep_last is not None:
                prune_checkpoints(root, keep_last=keep_last)
    return step_dir


def load_manifest(step_dir: str | Path) -> dict:
    """Parse a step directory's manifest.

    Raises ``ValueError`` for a manifest that is not a JSON object, and for
    a delta manifest written by older code: its shards hold only some units
    and nothing here resolves the rest.
    """
    manifest = json.loads((Path(step_dir) / MANIFEST_NAME).read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"checkpoint {step_dir} manifest is not a JSON object")
    if "delta" in manifest:
        raise ValueError(
            f"checkpoint {step_dir} is a delta save; delta checkpoints are no "
            f"longer readable"
        )
    return manifest


def _step_dirs(root: Path) -> list[Path]:
    if not root.is_dir():
        return []
    return [c for c in root.iterdir() if c.is_dir() and c.name.startswith("step_")]


def _complete(step_dirs: list[Path]) -> list[tuple[int, str, Path]]:
    """``(step, name, dir)`` of every complete checkpoint, oldest first.

    Complete = a readable manifest (written last) carrying the keys a load
    reads — an integer ``step``, ``world_size``, ``units`` and a list of
    ``shards`` — and every shard file it names on disk.
    """
    out = []
    for d in step_dirs:
        try:
            manifest = load_manifest(d)
        except (OSError, ValueError):  # missing, torn, or a rejected format
            continue
        if not (
            isinstance(manifest.get("step"), int)
            and "world_size" in manifest
            and "units" in manifest
            and isinstance(manifest.get("shards"), list)
        ):
            continue  # damaged: a key a load reads is missing or mistyped
        if all((d / name).is_file() for name in manifest["shards"]):
            out.append((manifest["step"], d.name, d))
    return sorted(out)


def latest_checkpoint(root: str | Path) -> Path | None:
    """The newest *complete* checkpoint under *root*, or ``None``.

    Ties on step (an original and its reshard) break toward the
    lexicographically last directory name — they hold identical values, so
    either is correct.
    """
    complete = _complete(_step_dirs(Path(root)))
    return complete[-1][2] if complete else None


def prune_checkpoints(root: str | Path, keep_last: int = 2) -> list[Path]:
    """Retention: delete all but the newest *keep_last* complete checkpoints.

    Long elastic runs accumulate one step directory per cadence fire;
    this keeps the newest *keep_last* complete checkpoints and removes
    everything else — older completes and torn leftovers alike.  Returns
    the removed directories.

    Do not run concurrently with an in-flight async save targeting the same
    root; the :class:`AsyncCheckpointWriter` prunes *after* each manifest
    lands when ``save_sharded(..., keep_last=)`` asks it to.
    """
    if keep_last < 1:
        raise ValueError(f"keep_last must be >= 1, got {keep_last}")
    root = Path(root)
    every = _step_dirs(root)
    kept = {path for _step, _name, path in _complete(every)[-keep_last:]}
    removed = sorted(d for d in every if d not in kept)
    for d in removed:
        shutil.rmtree(d, ignore_errors=True)
    if removed:
        _fsync_dir(root)
    return removed


def _validate_units(manifest: dict, model: FSDPModel) -> None:
    ours = model.shard_metadata()
    theirs = manifest["units"]
    if len(theirs) != len(ours):
        raise ValueError(
            f"checkpoint has {len(theirs)} FSDP units, model has {len(ours)}"
        )
    for i, (a, b) in enumerate(zip(theirs, ours)):
        for key in ("names", "shapes", "sizes", "total"):
            if a[key] != b[key]:
                raise ValueError(
                    f"unit {i} layout mismatch on {key!r}: checkpoint {a[key]} vs model {b[key]}"
                )


def load_sharded(
    step_dir: str | Path,
    model: FSDPModel,
    optimizer: AdamW | None = None,
) -> dict:
    """Restore *model* (and optionally *optimizer*) from a sharded checkpoint.

    Purely local I/O — each rank reads only its own shard file, so restore
    moves zero wire bytes and is bitwise exact.  The checkpoint's world
    size must equal the model's FSDP group size; :func:`reshard` first
    otherwise.  Returns the manifest (whose ``step`` and ``extra`` drive
    trainer resume).
    """
    step_dir = Path(step_dir)
    manifest = load_manifest(step_dir)
    group = model.group
    if manifest["world_size"] != group.size:
        raise ValueError(
            f"checkpoint world size {manifest['world_size']} != FSDP group size "
            f"{group.size}; reshard() it first"
        )
    _validate_units(manifest, model)
    if optimizer is not None and not manifest["has_optimizer"]:
        raise ValueError("checkpoint carries no optimizer state")
    n_units = len(model.units)
    shard = step_dir / _shard_name(group.rank_index(model.comm.rank))
    with open(shard, "rb") as fh, np.load(fh) as data:
        model.load_shard_data([data[f"unit{i}.param"] for i in range(n_units)])
        if optimizer is not None:
            optimizer.load_state_dict(
                {
                    "step": manifest["adam_step"],
                    "m": [data[f"unit{i}.m"] for i in range(n_units)],
                    "v": [data[f"unit{i}.v"] for i in range(n_units)],
                }
            )
    return manifest


def _resplit(full: np.ndarray, total: int, new_world: int) -> list[np.ndarray]:
    """Strip the old pad, re-pad for *new_world*, split into equal shards."""
    flat = full[:total]
    padded = ((total + new_world - 1) // new_world) * new_world
    shard_size = padded // new_world
    out = np.zeros(padded, dtype=flat.dtype)
    out[:total] = flat
    return [out[r * shard_size : (r + 1) * shard_size].copy() for r in range(new_world)]


def reshard(
    src_dir: str | Path,
    new_world_size: int,
    dst_dir: str | Path | None = None,
) -> tuple[Path, int]:
    """Rewrite a checkpoint saved at world size N for world size M.

    Offline (driver-side) transformation: per unit, the N parameter shards
    are concatenated, N's pad stripped, and the flat vector re-split with
    M's padding; optimizer moments ride along identically.  Returns the new
    step directory (default ``<src>.w{M}`` alongside the source) and the
    number of bytes moved — the wire cost a real cluster would pay to
    re-lay-out the shards, which the recovery benchmark reports.

    Resharding never does arithmetic on values, so consolidating the result
    is bitwise-identical to consolidating the source at any M.
    """
    src_dir = Path(src_dir)
    if new_world_size < 1:
        raise ValueError(f"new world size must be >= 1, got {new_world_size}")
    manifest = load_manifest(src_dir)
    old_world = manifest["world_size"]
    if new_world_size == old_world:
        return src_dir, 0
    if dst_dir is None:
        dst_dir = src_dir.with_name(f"{src_dir.name}.w{new_world_size}")
    dst_dir = Path(dst_dir)
    dst_dir.mkdir(parents=True, exist_ok=True)

    keys = ["param"] + (["m", "v"] if manifest["has_optimizer"] else [])
    totals = {
        f"unit{i}.{k}": unit_meta["total"]
        for i, unit_meta in enumerate(manifest["units"])
        for k in keys
    }
    parts: dict[str, list[np.ndarray]] = {name: [] for name in totals}
    for shard in manifest["shards"]:
        with open(src_dir / shard, "rb") as fh, np.load(fh) as data:
            for name, chunks in parts.items():
                chunks.append(data[name])
    resplit = {
        name: _resplit(np.concatenate(parts[name]), total, new_world_size)
        for name, total in totals.items()
    }

    bytes_moved = 0
    new_units = []
    for unit_meta in manifest["units"]:
        total = unit_meta["total"]
        padded = ((total + new_world_size - 1) // new_world_size) * new_world_size
        new_units.append(
            {
                **unit_meta,
                "padded": padded,
                "shard_size": padded // new_world_size,
                "group_size": new_world_size,
            }
        )
    for r in range(new_world_size):
        arrays = {name: shards[r] for name, shards in resplit.items()}
        bytes_moved += sum(arr.nbytes for arr in arrays.values())
        _atomic_savez(dst_dir / _shard_name(r), arrays)
    new_manifest = {
        **manifest,
        "world_size": new_world_size,
        "units": new_units,
        "shards": [_shard_name(r) for r in range(new_world_size)],
    }
    _atomic_write_json(dst_dir / MANIFEST_NAME, new_manifest)
    return dst_dir, bytes_moved


def consolidate(step_dir: str | Path) -> dict[str, np.ndarray]:
    """Reassemble the full (unsharded) state dict from a checkpoint.

    Keys follow the :meth:`FSDPModel.consolidated_state_dict` convention
    (``unit{i}.{param_name}``), so the two are directly comparable.
    """
    step_dir = Path(step_dir)
    manifest = load_manifest(step_dir)
    flats: list[list[np.ndarray]] = [[] for _ in manifest["units"]]
    for name in manifest["shards"]:
        with open(step_dir / name, "rb") as fh, np.load(fh) as data:
            for i, flat in enumerate(flats):
                flat.append(data[f"unit{i}.param"])
    out: dict[str, np.ndarray] = {}
    for i, unit_meta in enumerate(manifest["units"]):
        flat = np.concatenate(flats[i])[: unit_meta["total"]]
        offsets = flat_offsets(unit_meta["sizes"])
        for name, shape, lo, hi in zip(
            unit_meta["names"], unit_meta["shapes"], offsets, offsets[1:]
        ):
            out[f"unit{i}.{name}"] = flat[lo:hi].reshape(shape)
    return out


def checkpoint_nbytes(step_dir: str | Path) -> int:
    """Array bytes held in a checkpoint's shard files (params + moments)."""
    step_dir = Path(step_dir)
    manifest = load_manifest(step_dir)
    total = 0
    for name in manifest["shards"]:
        with open(step_dir / name, "rb") as fh, np.load(fh) as data:
            total += sum(int(data[k].nbytes) for k in data.files)
    return total
