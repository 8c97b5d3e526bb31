"""Tests for the per-link comm-volume reconciliation (``repro.obs.commvol``)."""

from dataclasses import replace

import pytest

from repro.obs.commvol import (
    CommVolumeReport,
    VolumeBucket,
    comm_volume_report,
    main as commvol_main,
)
from repro.perf import frontier
from repro.perf.calibrate import measure_plan
from repro.perf.modelcfg import ModelConfig
from repro.perf.plan import ParallelPlan, Precision, Workload

M = frontier()
SMALL = ModelConfig("obs-test", dim=64, depth=2, heads=4, patch=4, image_hw=(16, 16))
WORKLOAD = Workload(16, 2)
PLAN = ParallelPlan("dist_tok", tp=2, fsdp=1, dp=2)


@pytest.fixture(scope="module", params=[True, False], ids=["eager", "blocking"])
def report(request):
    return comm_volume_report(SMALL, WORKLOAD, PLAN, M, eager=request.param)


class TestThreeWayAgreement:
    def test_wire_bytes_agree_exactly_per_bucket(self, report):
        """The acceptance invariant: analytic = simulated = measured wire
        bytes for every op × phase × link bucket of the tp2×dp2 world."""
        assert report.buckets
        for b in report.buckets:
            assert b.wire_ok, (
                f"{b.op}/{b.phase}/{b.link}: analytic {b.analytic_wire} "
                f"simulated {b.simulated_wire} measured {b.measured_wire}"
            )
        assert report.wire_exact
        assert report.mismatches() == []

    def test_counts_agree_per_bucket(self, report):
        for b in report.buckets:
            assert b.count_ok

    def test_simulated_busy_equals_analytic_alpha_beta(self, report):
        """Simulated channel occupancy is the same α–β pricing as the
        analytic column — residual at float precision."""
        assert report.max_seconds_residual < 1e-9

    def test_covers_every_schedule_phase(self, report):
        phases = {b.phase for b in report.buckets}
        assert {"tp", "gather", "dp_sync"} <= phases

    def test_multi_step_totals_scale(self):
        one = comm_volume_report(SMALL, WORKLOAD, PLAN, M, eager=True, n_steps=1)
        three = comm_volume_report(SMALL, WORKLOAD, PLAN, M, eager=True, n_steps=3)
        assert three.wire_exact
        by_key = {(b.op, b.phase, b.link): b for b in one.buckets}
        for b in three.buckets:
            assert b.measured_wire == 3 * by_key[(b.op, b.phase, b.link)].measured_wire


class TestLinkClassing:
    def test_cross_node_dp_lands_in_inter_bucket(self):
        # 2 GPUs per node: TP fits in a node, DP spans two -> both classes.
        machine = replace(M, gpus_per_node=2)
        report = comm_volume_report(SMALL, WORKLOAD, PLAN, machine, eager=True)
        links = {(b.phase, b.link) for b in report.buckets}
        assert ("tp", "intra") in links
        assert ("dp_sync", "inter") in links
        assert report.wire_exact  # agreement holds per link class too

    def test_fsdp_axis_classed_by_replica_extent(self):
        machine = replace(M, gpus_per_node=2)
        plan = ParallelPlan("dist_tok", tp=2, fsdp=2, dp=1)
        report = comm_volume_report(SMALL, WORKLOAD, plan, machine, eager=True)
        fsdp = [b for b in report.buckets if b.phase == "fsdp_gather"]
        assert fsdp and all(b.link == "inter" for b in fsdp)  # tp*fsdp=4 > 2
        assert report.wire_exact


class TestReportApi:
    def test_requires_a_kept_world(self):
        measured = measure_plan(SMALL, WORKLOAD, PLAN, M, eager=True)
        assert measured.world is None
        with pytest.raises(ValueError, match="keep_world"):
            comm_volume_report(SMALL, WORKLOAD, PLAN, M, measured=measured)

    def test_accepts_prebuilt_measurement(self):
        measured = measure_plan(SMALL, WORKLOAD, PLAN, M, eager=True, keep_world=True)
        report = comm_volume_report(SMALL, WORKLOAD, PLAN, M, measured=measured)
        assert report.wire_exact
        assert report.world_size == measured.world_size

    def test_total_wire_sums_buckets(self, report):
        total = report.total_wire("measured")
        assert total == sum(b.measured_wire for b in report.buckets)
        assert total == report.total_wire("analytic")


class TestMarkdown:
    def test_renders_one_row_per_bucket_all_ok(self, report):
        table = report.to_markdown()
        assert table.count("| OK |") == len(report.buckets)
        assert "MISMATCH" not in table
        assert "all wire bytes agree" in table
        for b in report.buckets:
            assert f"| {b.op} | {b.phase} | {b.link} " in table

    def test_flags_mismatching_bucket(self):
        bad = VolumeBucket(
            op="all_reduce", phase="tp", link="intra",
            analytic_wire=100, simulated_wire=100, measured_wire=90,
            analytic_count=1, simulated_count=1, measured_count=1,
        )
        report = CommVolumeReport(
            plan=PLAN, machine=M.name, world_size=4, eager=True, n_steps=1,
            buckets=(bad,),
        )
        assert not report.wire_exact
        assert report.mismatches() == [bad]
        table = report.to_markdown()
        assert "**MISMATCH**" in table
        assert "disagree beyond tolerance" in table

    def test_tolerance_forgives_small_spread(self):
        near = VolumeBucket(
            op="all_reduce", phase="tp", link="intra",
            analytic_wire=1000, simulated_wire=1000, measured_wire=995,
            analytic_count=1, simulated_count=1, measured_count=1,
        )
        report = CommVolumeReport(
            plan=PLAN, machine=M.name, world_size=4, eager=True, n_steps=1,
            buckets=(near,),
        )
        assert report.mismatches(tolerance=0.0) == [near]
        assert report.mismatches(tolerance=0.01) == []
        assert "MISMATCH" not in report.to_markdown(tolerance=0.01)

    def test_count_disagreement_is_flagged(self):
        bad = VolumeBucket(
            op="all_gather", phase="gather", link="intra",
            analytic_wire=64, simulated_wire=64, measured_wire=64,
            analytic_count=2, simulated_count=1, measured_count=2,
        )
        report = CommVolumeReport(
            plan=PLAN, machine=M.name, world_size=4, eager=True, n_steps=1,
            buckets=(bad,),
        )
        table = report.to_markdown()
        assert "**MISMATCH**" in table
        assert "2/1/2" in table


class TestCli:
    def test_default_run_passes_and_prints_table(self, capsys):
        assert commvol_main([]) == 0
        out = capsys.readouterr().out
        assert "| op | phase | link |" in out
        assert "all wire bytes agree" in out

    def test_blocking_mode_and_outputs(self, tmp_path, capsys):
        # --out into a directory that does not exist yet creates it.
        for md in (tmp_path / "vol.md", tmp_path / "new" / "vol.md"):
            assert commvol_main(["--blocking", "--out", str(md)]) == 0
            assert "| op | phase | link |" in md.read_text()
