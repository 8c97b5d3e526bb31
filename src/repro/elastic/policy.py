"""Pluggable recovery policies: what the fleet does when ranks come and go.

The original supervisor hard-coded one answer — shrink by the dead rank,
reshard, resume.  A hot spare gives a second answer: a failure becomes a
same-size restart (zero reshard traffic, no throughput loss), paid for by
the spare's idle capacity.

:class:`RecoveryPolicy` is the protocol both consumers share: the live
:class:`~repro.elastic.supervisor.ElasticSupervisor` consults it after every
world abort, and :func:`~repro.elastic.fleet.simulate_fleet` consults it at
every scripted failure and arrival of a churn trace.

Policies are **stateless**: spare-pool occupancy is passed in and returned,
so one policy instance can be evaluated against many histories.

* :class:`AlwaysShrink` — the v1 behavior and the default: every failure
  shrinks the world, every arrival grows it back.
* :class:`SparePool` — hold up to *k* ranks out of the world as hot spares;
  failures consume a spare (same-size restart) before shrinking, arrivals
  refill the pool before growing.
"""

from __future__ import annotations

from typing import Protocol

__all__ = ["RecoveryPolicy", "AlwaysShrink", "SparePool"]


class RecoveryPolicy(Protocol):
    """The decision surface the supervisor and the fleet simulator share.

    ``on_failure`` / ``on_arrival`` map ``(world_size, spares)`` — plus the
    arrival head-count — to the next ``(world_size, spares)``.  Returning
    the same world size after a failure means "swap in a spare, restart at
    full strength"; the caller still restores from the latest checkpoint
    (the dead rank's optimizer shard exists nowhere else) but pays zero
    reshard traffic.
    """

    name: str
    initial_spares: int

    def on_failure(self, world_size: int, spares: int) -> tuple[int, int]: ...

    def on_arrival(self, world_size: int, spares: int, count: int) -> tuple[int, int]: ...


class AlwaysShrink:
    """The v1 policy: shrink on every failure, grow on every arrival."""

    name = "always-shrink"
    initial_spares = 0

    def on_failure(self, world_size: int, spares: int) -> tuple[int, int]:
        return world_size - 1, spares

    def on_arrival(self, world_size: int, spares: int, count: int) -> tuple[int, int]:
        return world_size + count, spares

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SparePool:
    """Hold up to *capacity* ranks as hot spares outside the world.

    A failure consumes a spare when one is available — the world restarts at
    the **same** size (no reshard traffic, no throughput loss) — and only
    shrinks once the pool is dry.  Arrivals refill the pool first, then grow
    the world.  The cost of the policy is the spares' idle capacity; the
    fleet simulator quantifies whether that buys more goodput than it burns.
    """

    def __init__(self, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.name = f"spare-pool-{capacity}"
        self.initial_spares = int(capacity)

    def on_failure(self, world_size: int, spares: int) -> tuple[int, int]:
        if spares > 0:
            return world_size, spares - 1
        return world_size - 1, 0

    def on_arrival(self, world_size: int, spares: int, count: int) -> tuple[int, int]:
        banked = min(count, self.capacity - spares)
        return world_size + count - banked, spares + banked

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(capacity={self.capacity})"
