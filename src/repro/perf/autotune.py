"""Full configuration search: the generalization of §6.2's manual tuning.

The paper finds its best Fig. 15/16 layout by hand ("we aim to find the
optimal configuration by adding FSDP and DP for a fixed model size and
compute budget").  :func:`search_configurations` automates that: it
enumerates every ``(strategy, tp, sp, fsdp, dp)`` factorization of a GPU
budget (TP capped at the node size so it stays on Infinity Fabric, the §6.3
placement rule; sequence parallelism capped at ``max_sp``, default 1 —
pass ``max_sp > 1`` to let long-sequence workloads trade TP's O(N) ring
collectives for Ulysses' O(N/sp) all-to-alls, §3.5), filters to plans that
fit in HBM, and ranks them by projected sustained throughput at the
requested global batch.

Overlap-aware ranking
---------------------

By default the throughput model discounts DP/FSDP communication by the
paper-era constants (0.8 / 0.5).  Pass ``overlaps=`` to rank with derived
fractions instead:

* a :class:`~repro.perf.overlap.DerivedOverlaps` applies one measured pair
  to every candidate;
* a callable ``(plan, micro_batch) -> DerivedOverlaps | None`` is consulted
  **per candidate** — :func:`simulated_overlaps` builds one that writes the
  step of a scaled-down stand-in of each plan shape once (the issue-queue
  step :func:`~repro.perf.calibrate.measure_plan` runs with ``eager=True``)
  and replays it under each candidate's placement and compute balance, so
  every plan is ranked with fractions derived from *its own* simulated
  timeline.

Priced once, exposed per pair
-----------------------------

Everything about a candidate step except its overlap fractions — the memory
breakdown, own and useful FLOPs, compute seconds, the collective schedule
and its un-overlapped per-axis seconds and wire bytes — is priced once per
distinct (plan, micro-batch) and kept in a price book that lives for one
:func:`search_configurations` call or one :func:`simulated_overlaps` oracle
(never longer, so every call prices cold).  A search handed an oracle built
for its own model, channels, machine and precision ranks through that
oracle's book, and :func:`sweep_replay` ranks every budget through one
oracle and its book.  Each overlap pair is applied
last: exposing a priced step costs two multiplies (the FSDP and DP
seconds), so the pruned search's bound score and its oracle score, and a
sweep's budgets sharing a step, share one pricing.  The stand-in side of
each compute/comm ratio is priced once per (stand-in plan, node size).
Results are bitwise those of
:func:`~repro.perf.throughput.global_batch_throughput`.

Link and compute constants come from the :class:`MachineSpec` the caller
passes, in practice the paper's Frontier numbers
(:func:`~repro.perf.machine.frontier`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Union

from .comm_model import axis_intra_node
from .cost import MAX_DP_BUCKETS, CostModel
from .machine import MachineSpec
from .modelcfg import ModelConfig
from .plan import ParallelPlan, Precision, Workload
from .schedule import ReplayProgram, ReplayVariant
from .throughput import _PricedStep, _PriceBook, max_batch_per_replica

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .overlap import DerivedOverlaps

__all__ = [
    "TunedPlan",
    "OverlapSource",
    "ReplaySweep",
    "search_configurations",
    "simulated_overlaps",
    "sweep_replay",
]

#: What ``search_configurations(overlaps=...)`` accepts: one fixed derived
#: pair, a per-plan oracle, or None for the paper constants.
OverlapSource = Union[
    "DerivedOverlaps",
    Callable[[ParallelPlan, int], "DerivedOverlaps | None"],
    None,
]


@dataclass(frozen=True)
class TunedPlan:
    plan: ParallelPlan
    micro_batch: int
    total_tflops: float
    overlaps: "DerivedOverlaps | None" = None  # what the ranking used (None ⇒ constants)

    @property
    def summary(self) -> str:
        return (
            f"{self.plan.label}: micro-batch {self.micro_batch}, "
            f"{self.total_tflops:,.0f} TFLOP/s total"
        )


def _divisors_pow2(n: int, cap: int) -> list[int]:
    out = []
    d = 1
    while d <= min(n, cap):
        if n % d == 0:
            out.append(d)
        d *= 2
    return out


def _full_overlaps() -> "DerivedOverlaps":
    """The optimistic bound: every dp/fsdp byte hidden under compute.

    Throughput is monotone in the overlap fractions, so ranking with this
    pair upper-bounds any score a simulated (or constant) pair can produce
    — the pruning certificate ``search_configurations(prune_top_k=...)``
    relies on.
    """
    from .overlap import DerivedOverlaps, OverlapReport

    return DerivedOverlaps(
        dp=OverlapReport("dp_sync", "backward", 0.0, 0.0, 1.0),
        fsdp=OverlapReport("fsdp_gather", "forward", 0.0, 0.0, 1.0),
    )


def _enumerate_candidates(
    model: ModelConfig,
    channels: int,
    total_gpus: int,
    machine: MachineSpec,
    strategies: tuple[str, ...],
    precision: Precision,
    max_sp: int = 1,
) -> list[tuple[ParallelPlan, int]]:
    """Every feasible (plan, micro-batch) for the GPU count, unscored.

    Not filtered by any global batch: callers drop the plans whose ``dp``
    does not divide theirs, which keeps the candidate order (and so how
    ranking ties break) and lets a fleet sweep enumerate each count once.

    ``max_sp`` caps the sequence-parallel axis (default 1 — the historical
    tp × fsdp × dp grid, which keeps the §6.2 golden podium byte-stable).
    SP degrees are pow-2 divisors of the budget that divide both the token
    count (the shards) and the head count (the Ulysses head switch).
    """
    tp_cap = machine.gpus_per_node
    out: list[tuple[ParallelPlan, int]] = []
    seen: set[str] = set()
    for strategy in strategies:
        for tp in _divisors_pow2(total_gpus, tp_cap if strategy != "serial" else 1):
            if strategy == "dchag" and channels % tp != 0:
                continue
            sp_budget = total_gpus // tp
            for sp in _divisors_pow2(sp_budget, max_sp if strategy != "serial" else 1):
                if sp > 1 and (model.tokens % sp or model.heads % (tp * sp)):
                    continue
                remaining = sp_budget // sp
                for fsdp in _divisors_pow2(remaining, remaining):
                    dp = remaining // fsdp
                    plan = ParallelPlan(
                        strategy,
                        tp=tp,
                        fsdp=fsdp,
                        dp=dp,
                        dchag_kind="linear",
                        dchag_fanout=0,
                        sp=sp,
                    )
                    if plan.label in seen:
                        continue
                    seen.add(plan.label)
                    micro = max_batch_per_replica(model, channels, plan, machine, precision)
                    if micro == 0:
                        continue
                    out.append((plan, micro))
    return out


def _rank(
    book: _PriceBook,
    candidates: list[tuple[ParallelPlan, int]],
    global_batch: int,
    overlaps: OverlapSource,
) -> list[TunedPlan]:
    """Score every candidate whose ``dp`` divides *global_batch*, best first.

    Each candidate is exposed at the pair ``overlaps`` gives it (the pair
    itself, or a per-plan oracle's answer for it).  The sort is stable, so
    score ties keep enumeration order.
    """
    results: list[TunedPlan] = []
    for plan, micro in candidates:
        if global_batch % plan.dp == 0:
            ov = overlaps(plan, micro) if callable(overlaps) else overlaps
            tflops = book.throughput(plan, micro, global_batch, ov)
            results.append(TunedPlan(plan, micro, tflops, ov))
    results.sort(key=lambda t: t.total_tflops, reverse=True)
    return results


def search_configurations(
    model: ModelConfig,
    channels: int,
    total_gpus: int,
    machine: MachineSpec,
    global_batch: int,
    strategies: tuple[str, ...] = ("tp", "dchag"),
    precision: Precision = Precision(),
    overlaps: OverlapSource = None,
    prune_top_k: int | None = None,
    max_sp: int = 1,
) -> list[TunedPlan]:
    """All feasible plans for the budget, best throughput first.

    ``overlaps`` selects the dp/fsdp hidden fractions the ranking uses
    (module docstring); each returned :class:`TunedPlan` records the pair
    applied to it.  Each candidate is priced once per call; its bound score
    and its ranking score are two exposures of that pricing.

    ``max_sp`` opens the sequence-parallel axis: candidates enumerate
    tp × sp × fsdp × dp with sp up to the cap (default 1 reproduces the
    historical tp × fsdp × dp grid exactly — the §6.2 golden podium).

    ``prune_top_k`` (with a *callable* ``overlaps``) turns on bound-based
    pruning: candidates are visited in descending order of their analytic
    **upper bound** (throughput at full overlap), and the per-plan oracle —
    each consultation may cost a real issue-queue simulation — is only
    invoked while a candidate's bound can still beat the ``k``-th best
    simulated score.  Because the bound dominates every achievable score,
    the top ``k`` plans and their ordering are **exactly** those of the
    exhaustive search (pinned by the golden-ranking tests); pruned
    candidates rank below them by their paper-constant score with
    ``overlaps=None`` recorded.  ``None`` (default) keeps the exhaustive
    behavior, consulting the oracle for every candidate.
    """
    candidates = _enumerate_candidates(
        model, channels, total_gpus, machine, strategies, precision, max_sp=max_sp,
    )
    book = overlaps.real if isinstance(overlaps, _Oracle) else None
    if book is None or (book.model, book.channels, book.machine, book.precision) != (
        model, channels, machine, precision
    ):  # unless the oracle prices these very steps, price them here
        book = _PriceBook(model, channels, machine, precision)
    if prune_top_k is None or prune_top_k < 1 or not callable(overlaps):
        return _rank(book, candidates, global_batch, overlaps)

    def score(plan: ParallelPlan, micro: int, ov: "DerivedOverlaps | None") -> float:
        return book.throughput(plan, micro, global_batch, ov)

    bound_pair = _full_overlaps()
    # Deterministic visit order: best bound first, label breaks ties.
    bounded = sorted(
        (
            (score(plan, micro, bound_pair), plan, micro)
            for plan, micro in candidates
            if global_batch % plan.dp == 0
        ),
        key=lambda t: (-t[0], t[1].label),
    )
    results: list[TunedPlan] = []
    incumbents: list[float] = []  # top-k simulated scores, descending
    for bound, plan, micro in bounded:
        kth = incumbents[prune_top_k - 1] if len(incumbents) >= prune_top_k else float("-inf")
        # >= : a candidate whose bound ties the k-th incumbent could
        # still tie into the top k, so it is simulated, keeping the
        # exactness guarantee through score ties.
        if bound >= kth:
            ov = overlaps(plan, micro)
            tflops = score(plan, micro, ov)
            results.append(TunedPlan(plan, micro, tflops, ov))
            incumbents.append(tflops)
            incumbents.sort(reverse=True)
            del incumbents[prune_top_k:]
        else:
            # bound ≤ kth ⇒ no achievable score reaches the top k;
            # rank the tail by the paper-constant estimate.
            results.append(TunedPlan(plan, micro, score(plan, micro, None), None))
    results.sort(key=lambda t: t.total_tflops, reverse=True)
    return results


# -- fleet-scale replay sweep -----------------------------------------------


@dataclass(frozen=True)
class ReplaySweep:
    """A multi-budget search priced entirely by replay.

    ``rankings`` pairs each ``(total_gpus, global_batch)`` budget with its
    ranked candidate list — element-wise **equal** (same plans, same float
    scores, same :class:`~repro.perf.overlap.DerivedOverlaps`) to what
    ``search_configurations(..., overlaps=simulated_overlaps(...))`` returns
    for that budget (both rank with one exhaustive loop through that oracle).
    ``captured_worlds`` counts the stand-in steps written and lowered (one
    per schedule shape) and ``lanes`` the distinct
    ``(shape, placement, scale)`` variants replayed from them — the sweep's
    whole point is ``candidates >> lanes >= captured_worlds``.
    """

    rankings: tuple[tuple[tuple[int, int], tuple[TunedPlan, ...]], ...]
    candidates: int
    captured_worlds: int
    lanes: int


def sweep_replay(
    model: ModelConfig,
    channels: int,
    machine: MachineSpec,
    budgets: "Sequence[tuple[int, int]]",
    strategies: tuple[str, ...] = ("tp", "dchag"),
    precision: Precision = Precision(),
    max_sp: int = 1,
) -> ReplaySweep:
    """Rank every candidate of every budget from a handful of stand-in steps.

    A fleet sweep (many GPU budgets x batch sizes) is the exhaustive
    :func:`search_configurations` ranking of each budget, run through ONE
    :func:`simulated_overlaps` oracle that every budget shares.  Each
    distinct GPU count is enumerated once.  The oracle writes and lowers
    one stand-in step per schedule shape, replays one variant
    per distinct (shape, placement, scale) key, and keys each distinct
    (plan, micro-batch) once.  Its price book ranks every budget too, so a
    (plan, micro-step batch) is priced once per sweep, and the stand-in
    side of each ratio once per (stand-in plan, node size); only the
    dp/fsdp fractions are applied per candidate.

    Scores, overlaps and ranking order are equal to per-budget
    ``search_configurations(model, channels, g, machine, b,
    overlaps=simulated_overlaps(machine, model, channels))`` calls (pinned
    by ``tests/test_schedule_replay.py``); only the sharing differs.
    """
    oracle = _Oracle(model, channels, machine, precision)
    enumerated: dict[int, list[tuple[ParallelPlan, int]]] = {}  # total_gpus -> candidates
    rankings: list[tuple[tuple[int, int], tuple[TunedPlan, ...]]] = []
    for total_gpus, global_batch in budgets:
        candidates = enumerated.get(total_gpus)
        if candidates is None:
            candidates = enumerated[total_gpus] = _enumerate_candidates(
                model, channels, total_gpus, machine, strategies, precision, max_sp=max_sp,
            )
        ranked = _rank(oracle.real, candidates, global_batch, oracle)
        rankings.append(((total_gpus, global_batch), tuple(ranked)))
    return ReplaySweep(
        rankings=tuple(rankings),
        candidates=sum(len(ranked) for _, ranked in rankings),
        captured_worlds=len(oracle.programs),
        lanes=len(oracle.lanes),
    )


# -- per-plan simulated overlap oracle ------------------------------------

#: Stand-in model for the oracle's scaled-down worlds: small enough that
#: every schedule payload is an honest in-memory buffer, structured enough
#: to exercise every axis.  16 channels divide every shrunk tp.
_SIM_MODEL = ModelConfig("overlap-sim", dim=32, depth=2, heads=4, patch=4, image_hw=(16, 16))
_SIM_CHANNELS = 16
_SIM_BATCH = 2


def _shrink_plan(plan: ParallelPlan) -> ParallelPlan:
    """Structure-preserving stand-in: every active axis capped at 2.

    Overlap fractions depend on which axes exist and where they sit, not on
    their width — the width's effect on the compute/comm balance is
    restored separately via ``compute_scale``.
    """
    return ParallelPlan(
        plan.strategy,
        tp=min(plan.tp, 2),
        fsdp=min(plan.fsdp, 2),
        dp=min(plan.dp, 2),
        dchag_kind=plan.dchag_kind,
        dchag_fanout=0,
        sp=min(plan.sp, 2),
    )


def _sim_node_size(plan: ParallelPlan, machine: MachineSpec, sim: ParallelPlan) -> int:
    """The stand-in machine's node size that reproduces the real plan's
    axis placement.

    The real plan's intra/inter-node flags per axis (TP innermost) decide
    how many of the stand-in world's ranks share a node, so every simulated
    collective rides the same link class as its real counterpart.
    """
    intra = axis_intra_node(plan, machine)
    if intra["dp"]:
        gpn = sim.total_gpus
    elif intra["fsdp"]:
        gpn = sim.tp * sim.sp * sim.fsdp
    elif intra["sp"]:
        gpn = sim.tp * sim.sp
    elif intra["tp"]:
        gpn = sim.tp
    else:
        gpn = max(1, sim.tp // 2)
    return max(1, gpn)


class _Oracle:
    """The per-plan overlap oracle :func:`simulated_overlaps` returns.

    Everything it computes is kept for its lifetime, each at its own grain:

    * ``real`` prices the real plans, and each stand-in node size gets a
      book of the stand-in model on that machine (the two sides of every
      compute/comm ratio, each priced once);
    * ``programs`` holds one lowered
      :class:`~repro.perf.schedule.ReplayProgram` per stand-in shape, each
      lowered from one written stand-in step;
    * ``lanes`` holds the overlap pair per replay key (shape, variant);
    * the pair per (plan, micro-batch), so a plan consulted again (by
      another budget of a sweep, or another search) is neither keyed to
      its stand-in again nor replayed.
    """

    __slots__ = ("real", "programs", "lanes", "_standins", "_pairs")

    def __init__(
        self, model: ModelConfig, channels: int, machine: MachineSpec, precision: Precision
    ) -> None:
        self.real = _PriceBook(model, channels, machine, precision)
        self.programs: dict[tuple, ReplayProgram] = {}
        self.lanes: dict[tuple, "DerivedOverlaps"] = {}
        self._standins: dict[int, _PriceBook] = {}  # node size -> stand-in book
        self._pairs: dict[tuple[ParallelPlan, int], "DerivedOverlaps"] = {}

    def standin_book(self, gpus_per_node: int) -> _PriceBook:
        book = self._standins.get(gpus_per_node)
        if book is None:
            real = self.real
            book = self._standins[gpus_per_node] = _PriceBook(
                _SIM_MODEL, _SIM_CHANNELS,
                replace(real.machine, gpus_per_node=gpus_per_node), real.precision,
            )
        return book

    def __call__(self, plan: ParallelPlan, micro: int) -> "DerivedOverlaps | None":
        if plan.dp <= 1 and plan.fsdp <= 1:
            return None
        pair = self._pairs.get((plan, micro))
        if pair is None:
            sim, key = _standin(self, plan, micro)
            pair = self.lanes.get(key)
            if pair is None:
                shape, variant = key
                program = self.programs.get(shape)
                if program is None:
                    from .calibrate import _write_step  # runtime import: calibrate pulls dist

                    # The stand-in's step as measure_plan(eager=True) runs
                    # it; placement and compute scale only re-price its
                    # events, so they are left to the variant.
                    program = self.programs[shape] = ReplayProgram(_write_step(
                        _SIM_MODEL, Workload(_SIM_CHANNELS, _SIM_BATCH), sim,
                        self.real.machine, eager=True, dp_buckets=shape[1],
                    ))
                pair = self.lanes[key] = program.run([variant])[0].overlaps()
            self._pairs[plan, micro] = pair
        return pair


def _compute_scale(real: _PricedStep, standin: _PricedStep) -> float:
    """Scale factor that gives the stand-in the real compute/comm ratio.

    Hidden fractions are a function of how much compute is available per
    second of communication; matching that ratio is what makes a 4–8-rank
    simulation's fractions transfer to the 1,024-GPU plan.  Both sides are
    priced with nothing hidden.
    """
    real_comm = real.comm.total
    sim_comm = standin.comm.total
    sim_compute = standin.compute_seconds
    if real_comm <= 0.0 or sim_comm <= 0.0 or sim_compute <= 0.0:
        return 1.0
    return (real.compute_seconds / real_comm) / (sim_compute / sim_comm)


def _dp_buckets_for(real: _PricedStep, machine: MachineSpec) -> int:
    """Bucket count the *real* plan's DP volume/latency ratio justifies.

    The stand-in's payloads are tiny (latency-dominated), so the in-replay
    cap would always pick 1; the real gradient AllReduce is volume-dominated
    and buckets profitably.  Computed once here from the schedule the ratio
    already priced — via the shared :meth:`CostModel.bucket_cap` rule — and
    passed to the replay as an exact count.
    """
    plan = real.plan
    if plan.dp <= 1:
        return 1
    for ev in real.schedule:
        if ev.axis == "dp" and ev.op == "all_reduce":
            intra = axis_intra_node(plan, machine)["dp"]
            return CostModel(machine).bucket_cap(
                ev.op, ev.payload_bytes, plan.dp, intra, MAX_DP_BUCKETS
            )
    return 1


def _standin(oracle: "_Oracle", plan: ParallelPlan, micro: int) -> tuple[ParallelPlan, tuple]:
    """The stand-in plan for *plan* and the replay key it is priced under.

    The key is ``((sim.label, buckets), variant)``: the schedule *shape*
    (one written step each) and the :class:`~repro.perf.schedule.ReplayVariant`
    (node placement, compute scale) that re-prices it.  Candidates with
    equal keys share one overlap pair.
    """
    machine = oracle.real.machine
    sim = _shrink_plan(plan)
    real = oracle.real.step(plan, micro)
    sim_book = oracle.standin_book(_sim_node_size(plan, machine, sim))
    scale = _compute_scale(real, sim_book.step(sim, _SIM_BATCH))
    buckets = _dp_buckets_for(real, machine)
    # Quantize the scale onto a log grid (~26% steps) and price at the
    # quantized value: candidates with nearly the same compute/comm
    # balance then share one key honestly — scales range over orders of
    # magnitude, so rounding the raw value would never hit.
    if scale > 0.0:
        scale = 10.0 ** round(math.log10(scale), 1)
    return sim, (
        (sim.label, buckets),
        ReplayVariant(machine=sim_book.machine, compute_scale=scale),
    )


def simulated_overlaps(
    machine: MachineSpec,
    model: ModelConfig,
    channels: int,
    precision: Precision = Precision(),
) -> Callable[[ParallelPlan, int], "DerivedOverlaps | None"]:
    """Build a per-plan overlap oracle for ``search_configurations``.

    For each candidate the oracle prices a structure-preserving stand-in
    (axes capped at 2, placement and compute/comm ratio matched to the real
    plan) and returns its :class:`~repro.perf.overlap.DerivedOverlaps`.
    One stand-in step is written per stand-in *shape* (plan shape × bucket
    count) — the issue-queue step
    :func:`~repro.perf.calibrate.measure_plan` would run on a live world —
    and lowered once; each new (placement, compute scale) variant of a
    shape replays that lowered program on a fresh clock
    (:class:`repro.perf.schedule.ReplayProgram`).  No threaded world is
    started, so a 1,024-GPU sweep costs a handful of written ≤16-rank
    schedules.  Plans with neither a DP nor an
    FSDP axis return ``None`` (nothing to overlap — the constants are
    irrelevant there anyway).
    """
    return _Oracle(model, channels, machine, precision)
