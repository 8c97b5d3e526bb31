"""Fully-Sharded Data Parallel simulation (paper §3.4, Zhao et al. 2023).

Parameters are flattened per *unit* (typically one transformer block), padded
to a multiple of the group size, and each rank keeps only its ``1/n`` flat
shard as the trainable leaf.  At forward time a unit's shard is AllGathered
and unflattened into the module's parameter slots as *non-leaf* tensors whose
autograd history runs back through the gather — so the backward pass
ReduceScatters gradients onto the shards automatically, reproducing FSDP's
``AllGather (fwd) + AllGather/ReduceScatter (bwd)`` traffic and its memory
behaviour (full parameters only live while materialized; optimizer state is
sharded because the optimizer runs on the flat shards).
"""

from __future__ import annotations

import numpy as np

from ..dist import Communicator, ProcessGroup, all_gather_autograd, site_key
from ..nn import Module
from ..tensor import Tensor

__all__ = ["FlatParamShard", "FSDPUnit", "FSDPModel"]


class FlatParamShard:
    """One unit's parameters, flattened and sharded over the group."""

    def __init__(
        self,
        comm: Communicator,
        group: ProcessGroup,
        named_params: list[tuple[str, Tensor]],
    ) -> None:
        self.comm = comm
        self.group = group
        # Per-unit pool site: every gather of this unit reuses one flat
        # buffer.  Safe because the gathered bytes depend only on the
        # shards, which do not change between a forward and its backward.
        self.pool_key = site_key("fsdp.unit")
        self.names = [n for n, _ in named_params]
        self.shapes = [p.data.shape for _, p in named_params]
        self.sizes = [p.data.size for _, p in named_params]
        self.total = int(sum(self.sizes))
        n = group.size
        self.padded = ((self.total + n - 1) // n) * n
        self.shard_size = self.padded // n
        flat = np.zeros(self.padded, dtype=np.float32)
        offset = 0
        for _, p in named_params:
            flat[offset : offset + p.data.size] = p.data.ravel()
            offset += p.data.size
        idx = group.rank_index(comm.rank)
        self.shard = Tensor(
            flat[idx * self.shard_size : (idx + 1) * self.shard_size].copy(),
            requires_grad=True,
        )

    def materialize(self) -> list[Tensor]:
        """AllGather the flat parameter and carve out per-parameter views.

        The returned tensors carry autograd history back to ``self.shard``;
        their gradients ReduceScatter (mean, the DDP/FSDP convention) onto
        ``shard.grad`` in backward.  The forward gather is stamped
        ``phase="fsdp_gather"`` so :mod:`repro.perf.overlap` can derive how
        much of it a prefetching implementation hides under forward compute
        (the backward collectives keep the runtime's ``"backward"`` stamp).
        Each parameter is a basic slice of the gathered unit, whose backward
        adds into the unit's one gradient buffer in place, so unflattening
        costs O(unit) per step whatever the parameter count.
        """
        with self.comm.phase_scope("fsdp_gather"):
            full = all_gather_autograd(
                self.comm,
                self.shard,
                self.group,
                axis=0,
                reduce_op="mean",
                pool_key=self.pool_key,
            )
        tensors = []
        offset = 0
        for shape, size in zip(self.shapes, self.sizes):
            tensors.append(full[offset : offset + size].reshape(shape))
            offset += size
        return tensors

    def consolidated(self) -> np.ndarray:
        """AllGather the *values* only (no autograd), unpadded flat vector."""
        parts = self.comm.all_gather(self.shard.data, group=self.group)
        return np.concatenate(parts)[: self.total]

    def metadata(self) -> dict:
        """Layout description used by the elastic checkpoint manifest.

        Everything needed to re-split this unit's flat parameter at another
        world size: the parameter names/shapes/sizes (layout of the unpadded
        flat vector) plus the padded/shard geometry of the *saving* world.
        """
        return {
            "names": list(self.names),
            "shapes": [list(s) for s in self.shapes],
            "sizes": [int(s) for s in self.sizes],
            "total": int(self.total),
            "padded": int(self.padded),
            "shard_size": int(self.shard_size),
            "group_size": int(self.group.size),
        }


class FSDPUnit:
    """Wraps one module whose parameters are sharded together."""

    def __init__(
        self,
        comm: Communicator,
        group: ProcessGroup,
        module: Module,
    ) -> None:
        self.module = module
        self.named = list(module.named_parameters())
        self.flat = FlatParamShard(comm, group, self.named)
        # Parameter slots are refilled with gathered values at materialize().
        root = module._locate_root() if hasattr(module, "_locate_root") else module
        self._slots = [self._locate(root, name) for name, _ in self.named]

    @staticmethod
    def _locate(obj: Module, dotted: str) -> tuple[Module, str]:
        parts = dotted.split(".")
        for part in parts[:-1]:
            obj = obj._modules[part] if part in obj._modules else getattr(obj, part)
        return obj, parts[-1]

    def materialize(self) -> None:
        tensors = self.flat.materialize()
        for (owner, attr), t in zip(self._slots, tensors):
            owner._parameters[attr] = t
            object.__setattr__(owner, attr, t)


class FSDPModel(Module):
    """FSDP wrapper over a module, sharding each listed unit separately.

    ``units`` defaults to the module itself as a single unit.  Call pattern::

        model = FSDPModel(comm, group, net, units=[blk for blk in net.blocks])
        out = model(x)          # materializes all units, then runs net.forward
        loss.backward()          # grads land on model.shard_parameters()
        optimizer = AdamW(model.shard_parameters())

    ``unit_seconds`` is the virtual-clock compute-cost hook: each unit's
    forward compute (charged ``phase="forward"`` right after its gather,
    labelled ``unit{i}``) so rank timelines interleave gather/compute per
    unit the way real FSDP prefetching does — the input
    :mod:`repro.perf.overlap` derives the FSDP overlap fraction from.  A
    no-op without a clock.  Under an **issue-queue** clock
    (``VirtualClock(..., eager_phases={"fsdp_gather"})``) the per-unit
    gathers dispatch without stalling the rank, so unit *i*'s charged
    compute hides unit *i+1*'s in-flight gather — the perfect-prefetch
    schedule — and each gather's exposure is derived per unit
    (:func:`repro.perf.overlap.derive_bucket_exposures`).
    """

    def __init__(
        self,
        comm: Communicator,
        group: ProcessGroup | None,
        module: Module,
        units: list[Module] | None = None,
        unit_seconds: float = 0.0,
    ) -> None:
        super().__init__()
        group = group if group is not None else comm.world.default_group
        self.comm = comm
        self.group = group
        self.module = module
        self.unit_seconds = float(unit_seconds)
        unit_modules = units if units is not None else [module]
        # Any parameter not inside a listed unit forms a residual unit.
        listed: set[int] = set()
        self.units: list[FSDPUnit] = []
        for m in unit_modules:
            for _, p in m.named_parameters():
                listed.add(id(p))
            self.units.append(FSDPUnit(comm, group, m))
        residual = _ResidualUnit(module, listed)
        if residual.named:
            self.units.append(FSDPUnit(comm, group, residual))

    def shard_parameters(self) -> list[Tensor]:
        return [u.flat.shard for u in self.units]

    def shard_bytes(self) -> int:
        return sum(u.flat.shard.nbytes for u in self.units)

    def shard_metadata(self) -> list[dict]:
        """Per-unit flat-parameter layout (see :meth:`FlatParamShard.metadata`)."""
        return [u.flat.metadata() for u in self.units]

    def load_shard_data(self, shards: list[np.ndarray]) -> None:
        """Overwrite every unit's local flat shard in place (checkpoint restore).

        In-place so optimizers already holding the shard tensors keep
        working; shapes must match this world's shard geometry exactly
        (reshard the checkpoint first if it was saved at another world size).
        """
        if len(shards) != len(self.units):
            raise ValueError(
                f"got {len(shards)} shard arrays for {len(self.units)} FSDP units"
            )
        for u, arr in zip(self.units, shards):
            arr = np.asarray(arr, dtype=u.flat.shard.data.dtype)
            if arr.shape != u.flat.shard.data.shape:
                raise ValueError(
                    f"shard shape {arr.shape} does not match unit shard "
                    f"shape {u.flat.shard.data.shape}"
                )
            u.flat.shard.data[...] = arr

    def _materialize_all(self) -> None:
        for i, u in enumerate(self.units):
            u.materialize()
            if self.unit_seconds:
                self.comm.charge_compute(
                    self.unit_seconds, phase="forward", label=f"unit{i}"
                )

    def forward(self, *args, **kwargs):
        self._materialize_all()
        return self.module(*args, **kwargs)

    def loss(self, *args, **kwargs):
        """Materialize all units, then defer to the wrapped module's loss.

        Lets a ``Trainer`` drive an FSDP-wrapped model directly (with
        ``params=model.shard_parameters()``).
        """
        self._materialize_all()
        return self.module.loss(*args, **kwargs)

    def consolidated_state_dict(self) -> dict[str, np.ndarray]:
        """Gather full (unsharded) parameter values, keyed by unit-local names."""
        out: dict[str, np.ndarray] = {}
        for i, u in enumerate(self.units):
            flat = u.flat.consolidated()
            offset = 0
            for name, shape, size in zip(u.flat.names, u.flat.shapes, u.flat.sizes):
                out[f"unit{i}.{name}"] = flat[offset : offset + size].reshape(shape)
                offset += size
        return out


class _ResidualUnit(Module):
    """Pseudo-module exposing the parameters of *root* not covered by units."""

    def __init__(self, root: Module, covered: set[int]) -> None:
        super().__init__()
        self.named = [
            (name, p) for name, p in root.named_parameters() if id(p) not in covered
        ]
        self._root = root

    def named_parameters(self, prefix: str = ""):  # type: ignore[override]
        yield from ((prefix + n, p) for n, p in self.named)

    def _locate_root(self) -> Module:
        return self._root
