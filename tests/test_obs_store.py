"""Tests for the sqlite sweep store (``repro.obs.store``) and round trips of
what the search/measure/calibrate entry points return, recorded by the
caller."""

import json
import sqlite3

import pytest

from repro.obs.store import SCHEMA_VERSION, SweepStore
from repro.perf import frontier, named_model, search_configurations
from repro.perf.calibrate import calibrate, measure_plan
from repro.perf.modelcfg import ModelConfig
from repro.perf.plan import ParallelPlan, Workload

M = frontier()
SMALL = ModelConfig("obs-test", dim=64, depth=2, heads=4, patch=4, image_hw=(16, 16))


class TestSchema:
    def test_creates_versioned_schema(self, tmp_path):
        path = tmp_path / "sweep.db"
        with SweepStore(path) as store:
            assert store.run_history() == []
        db = sqlite3.connect(path)
        tables = {
            r[0]
            for r in db.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            ).fetchall()
        }
        assert {"runs", "plans", "metrics", "traces"} <= tables
        assert db.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION
        assert db.execute("PRAGMA journal_mode").fetchone()[0].lower() == "wal"
        db.close()

    def test_reopening_is_idempotent(self, tmp_path):
        path = tmp_path / "sweep.db"
        with SweepStore(path) as store:
            run_id = store.record_run("bench", "x")
        with SweepStore(path) as store:
            assert store.run_history()[0].id == run_id

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_future_schema_version_rejected(self, tmp_path, version):
        path = tmp_path / "sweep.db"
        SweepStore(path).close()
        db = sqlite3.connect(path)
        db.execute(f"PRAGMA user_version={version}")
        db.close()
        with pytest.raises(ValueError, match=f"version {version}"):
            SweepStore(path)


class TestUpserts:
    def test_record_run_upserts_on_kind_name(self):
        with SweepStore() as store:
            a = store.record_run("search", "sweep-1", machine="frontier")
            b = store.record_run("search", "sweep-1", machine="other")
            assert a == b
            history = store.run_history(kind="search")
            assert len(history) == 1
            assert history[0].machine == "other"

    def test_fresh_rerun_replaces_child_rows(self):
        with SweepStore() as store:
            run_id = store.record_run("measure", "m")
            store.record_metric(run_id, "old_metric", 1.0)
            store.record_trace(run_id, "t.json", {"traceEvents": []})
            rerun = store.record_run("measure", "m")
            assert rerun == run_id
            assert store.metrics_for(run_id) == {}
            assert store.trace_names(run_id) == []

    def test_metric_upsert_on_natural_key(self):
        with SweepStore() as store:
            run_id = store.record_run("bench", "b")
            store.record_metric(run_id, "wire_bytes", 10, op="all_reduce",
                                phase="tp", link="intra", source="measured")
            store.record_metric(run_id, "wire_bytes", 20, op="all_reduce",
                                phase="tp", link="intra", source="measured")
            vols = store.volume_by_link(run_id, source="measured")
            assert vols == {("all_reduce", "tp", "intra"): 20.0}

    def test_trace_round_trip(self):
        trace = {"traceEvents": [{"ph": "M", "pid": 0, "tid": 0, "ts": 0,
                                  "name": "process_name", "args": {"name": "rank 0"}}]}
        with SweepStore() as store:
            run_id = store.record_run("trace", "t")
            store.record_trace(run_id, "step.json", trace)
            assert store.get_trace(run_id, "step.json") == trace
            assert store.get_trace(run_id, "missing.json") is None

    def test_run_history_filters_and_orders(self):
        with SweepStore() as store:
            store.record_run("search", "a")
            store.record_run("bench", "b")
            store.record_run("search", "c")
            assert [r.name for r in store.run_history(kind="search")] == ["c", "a"]
            assert store.latest_run(kind="bench").name == "b"
            assert store.latest_run(kind="nothing") is None


class TestSearchIntegration:
    @pytest.fixture(scope="class")
    def store_and_results(self):
        store = SweepStore()
        results = search_configurations(named_model("7B"), 500, 1024, M, 4096)
        run_id = store.record_run(
            "search", "7B-ch500-g1024-b4096", machine=M.name,
            params={"candidates": len(results)},
        )
        store.record_plans(run_id, results)
        yield store, results
        store.close()

    def test_persists_every_candidate(self, store_and_results):
        store, results = store_and_results
        run = store.latest_run(kind="search")
        assert run.params["candidates"] == len(results)
        stored = store.top_plans(run.id, limit=len(results) + 10)
        assert len(stored) == len(results)

    def test_top_plans_reproduces_the_podium(self, store_and_results):
        """The §6.2 golden podium, reproduced from the database alone."""
        store, results = store_and_results
        stored = store.top_plans(limit=3)  # defaults to the newest search run
        assert [p.label for p in stored] == [t.plan.label for t in results[:3]]
        for p, t in zip(stored, results[:3]):
            assert p.total_tflops == pytest.approx(t.total_tflops)
            assert (p.strategy, p.tp, p.fsdp, p.dp) == (
                t.plan.strategy, t.plan.tp, t.plan.fsdp, t.plan.dp
            )
            assert p.micro_batch == t.micro_batch
        assert stored[0].strategy == "dchag"  # the paper's conclusion survives

    def test_store_accepts_a_path(self, tmp_path):
        path = tmp_path / "search.db"
        results = search_configurations(named_model("1.7B"), 512, 8, M, 32)
        with SweepStore(path) as store:
            store.record_plans(store.record_run("search", "tiny"), results)
        with SweepStore(path) as store:
            run = store.latest_run(kind="search")
            assert run.name == "tiny"
            assert store.top_plans(run.id, limit=1)[0].label == results[0].plan.label


class TestMeasureAndCalibrateIntegration:
    def test_measure_plan_persists_metrics(self):
        with SweepStore() as store:
            plan = ParallelPlan("dist_tok", tp=2, fsdp=1, dp=2)
            measured = measure_plan(SMALL, Workload(16, 2), plan, M, eager=True)
            run_id = store.record_run("measure", plan.label, machine=M.name)
            store.record_metric(run_id, "step_seconds", measured.step_seconds, unit="s")
            store.record_metric(run_id, "dp_overlap", measured.overlaps.dp_overlap)
            for axis, wire in measured.wire.items():
                store.record_metric(run_id, f"wire/{axis}", wire, unit="B",
                                    source="measured")
            run = store.latest_run(kind="measure")
            assert run.name == plan.label
            metrics = store.metrics_for(run.id)
            assert metrics["step_seconds"] == pytest.approx(measured.step_seconds)
            assert metrics["dp_overlap"] == pytest.approx(measured.overlaps.dp_overlap)
            for axis, wire in measured.wire.items():
                assert metrics[f"wire/{axis}"] == wire

    def test_calibrate_persists_rows(self):
        with SweepStore() as store:
            report = calibrate(world_sizes=(2,), machine=M)
            run_id = store.record_run("calibrate", M.name, machine=M.name)
            for r in report.rows:
                link = "intra" if r.intra_node else "inter"
                store.record_metric(run_id, f"wire_match/r{r.ranks}",
                                    float(r.wire_match), op=r.op, link=link)
                store.record_metric(run_id, f"time_residual/r{r.ranks}",
                                    r.time_residual, op=r.op, link=link)
            run = store.latest_run(kind="calibrate")
            assert run.name == M.name
            rows = store._db.execute(
                "SELECT COUNT(*) FROM metrics WHERE run_id=?", (run.id,)
            ).fetchone()[0]
            assert rows == 2 * len(report.rows)  # wire_match + time_residual each


class TestJsonSafety:
    def test_params_round_trip_as_json(self):
        with SweepStore() as store:
            run_id = store.record_run(
                "bench", "j", params={"nested": {"a": [1, 2]}, "flag": True}
            )
            run = store.run_history()[0]
            assert run.id == run_id
            assert run.params == {"nested": {"a": [1, 2]}, "flag": True}
            raw = store._db.execute(
                "SELECT params_json FROM runs WHERE id=?", (run_id,)
            ).fetchone()[0]
            json.loads(raw)  # stored as valid JSON text
