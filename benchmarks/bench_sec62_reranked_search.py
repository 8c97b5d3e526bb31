"""§6.2 configuration search, re-ranked with measured inputs.

The headline artifact of the overlap-aware autotuner: the full
``search_configurations`` sweep the paper tunes by hand (7B / 500 channels /
1,024 GCDs / global batch 4,096) ranked twice —

* **paper constants**: dp/fsdp communication discounted by the assumed
  0.8 / 0.5 hidden fractions;
* **derived overlaps**: every candidate ranked with fractions derived from
  *its own* issue-queue simulation (:func:`repro.perf.simulated_overlaps` —
  a structure-preserving stand-in of the plan, whose eager step is written
  once per shape, without a threaded world, and replayed under the plan's
  placement and compute balance, FSDP gathers prefetching under forward,
  the DP AllReduce bucketed through backward).

Claims asserted (and pinned by ``tests/test_autotune.py``):

1. the podium is robust — D-CHAG with early DP wins under both rankings
   (the paper's §6.2/§6.3 conclusion survives measurement);
2. the mid-table re-ranks — at least one adjacent pair swaps, because the
   measured DP fraction collapses for plans whose FSDP gradient traffic
   crowds the same backward window the DP buckets need.
"""

import functools

from figutils import print_table, standalone_main
from repro.perf import frontier, named_model, search_configurations, simulated_overlaps

MACHINE = frontier()
MODEL = named_model("7B")
CHANNELS = 500
GPUS = 1024
GLOBAL_BATCH = 4096
TOP = 10


def compute_rankings():
    constant = search_configurations(MODEL, CHANNELS, GPUS, MACHINE, GLOBAL_BATCH)
    oracle = simulated_overlaps(MACHINE, MODEL, CHANNELS)
    derived = search_configurations(
        MODEL, CHANNELS, GPUS, MACHINE, GLOBAL_BATCH, overlaps=oracle
    )
    return constant, derived


# The sweep is deterministic; every assertion and the printed table read the
# same pair, computed once (the pytest-benchmark test times the raw version).
_rankings = functools.lru_cache(maxsize=1)(compute_rankings)


def _assert_podium_robust(constant, derived):
    assert [t.plan.label for t in constant[:3]] == [t.plan.label for t in derived[:3]]
    best = derived[0]
    assert best.plan.strategy == "dchag" and best.plan.dp > 1


def _assert_mid_table_reranks(constant, derived):
    assert [t.plan.label for t in constant] != [t.plan.label for t in derived]


def _assert_fractions_measured(derived):
    measured = [t for t in derived if t.overlaps is not None]
    assert measured, "plans with a dp/fsdp axis must carry derived overlaps"
    for t in measured:
        assert t.overlaps.dp.source == "measured"
        assert 0.0 <= t.overlaps.dp_overlap <= 1.0
        assert 0.0 <= t.overlaps.fsdp_overlap <= 1.0
    fractions = {
        (round(t.overlaps.dp_overlap, 3), round(t.overlaps.fsdp_overlap, 3))
        for t in measured
    }
    assert len(fractions) > 1, "fractions must differ by plan shape"


def _print_ranking(constant, derived, note: str = "") -> None:
    const_pos = {t.plan.label: i for i, t in enumerate(constant)}
    table = [
        [
            i,
            t.plan.label,
            f"{t.total_tflops:,.0f}",
            const_pos[t.plan.label],
            "-" if t.overlaps is None else f"{t.overlaps.dp_overlap:.2f}",
            "-" if t.overlaps is None else f"{t.overlaps.fsdp_overlap:.2f}",
        ]
        for i, t in enumerate(derived[:TOP])
    ]
    print_table(
        "§6.2 search re-ranked with derived overlaps (7B / 500 ch / 1,024 GCDs)",
        ["#", "plan", "TFLOP/s", "# const", "dp ov", "fsdp ov"],
        table,
        note=note,
    )


def test_sec62_podium_is_robust_to_measured_overlaps():
    _assert_podium_robust(*_rankings())


def test_sec62_mid_table_reranks():
    _assert_mid_table_reranks(*_rankings())


def test_sec62_derived_fractions_are_measured_per_plan():
    _, derived = _rankings()
    _assert_fractions_measured(derived)


def test_sec62_print_and_benchmark(benchmark):
    constant, derived = benchmark(compute_rankings)
    _print_ranking(
        constant,
        derived,
        note="'# const' is the plan's position under the paper's 0.8/0.5 "
        "constants; dp/fsdp ov are measured per plan from its own "
        "issue-queue simulation",
    )


def _body():
    constant, derived = _rankings()
    _assert_podium_robust(constant, derived)
    _assert_mid_table_reranks(constant, derived)
    _assert_fractions_measured(derived)
    _print_ranking(constant, derived)


if __name__ == "__main__":
    raise SystemExit(
        standalone_main(
            __doc__,
            _body,
            "podium robust, mid-table re-ranked with measured overlap fractions",
            "re-ranked sec 6.2 claims failed",
        )
    )
