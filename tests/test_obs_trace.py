"""Tests for the Chrome-trace exporter (``repro.obs.trace``)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.trace import (
    COMM_TID,
    COMPUTE_TID,
    chrome_trace,
    export_trace,
    main as trace_main,
    validate_trace,
)
from repro.perf import frontier
from repro.perf.calibrate import measure_plan
from repro.perf.modelcfg import ModelConfig
from repro.perf.plan import ParallelPlan, Workload
from repro.perf.schedule import ReplayVariant, replay, replay_many

M = frontier()
SMALL = ModelConfig("obs-test", dim=64, depth=2, heads=4, patch=4, image_hw=(16, 16))
WORKLOAD = Workload(16, 2)


def _measured(eager=True, **kwargs):
    plan = kwargs.pop("plan", ParallelPlan("dist_tok", tp=2, fsdp=1, dp=2))
    return measure_plan(
        SMALL, WORKLOAD, plan, M, eager=eager, keep_world=True, **kwargs
    )


@pytest.fixture(scope="module")
def eager_trace():
    measured = _measured(eager=True)
    return measured, chrome_trace(measured.world)


class TestSchema:
    def test_trace_validates(self, eager_trace):
        _, trace = eager_trace
        assert validate_trace(trace) == []

    def test_required_keys_and_units(self, eager_trace):
        measured, trace = eager_trace
        events = trace["traceEvents"]
        assert events
        for ev in events:
            assert {"ph", "pid", "tid", "ts"} <= ev.keys()
            assert ev["ts"] >= 0
        assert trace["otherData"]["world_size"] == measured.world_size
        # µs scaling: the trace horizon equals the clock makespan in µs.
        max_end = max(
            ev["ts"] + ev.get("dur", 0) for ev in events if ev["ph"] == "X"
        )
        assert max_end == pytest.approx(trace["otherData"]["elapsed_us"])

    def test_one_process_per_rank_with_two_threads(self, eager_trace):
        measured, trace = eager_trace
        names = {
            (ev["pid"], ev["tid"], ev["args"]["name"])
            for ev in trace["traceEvents"]
            if ev["ph"] == "M" and ev["name"] in ("process_name", "thread_name")
        }
        for rank in range(measured.world_size):
            assert (rank, COMPUTE_TID, f"rank {rank}") in names
            assert (rank, COMPUTE_TID, "compute") in names
            assert (rank, COMM_TID, "comm channel") in names

    def test_slices_monotonic_per_track(self, eager_trace):
        _, trace = eager_trace
        by_track = {}
        for ev in trace["traceEvents"]:
            if ev["ph"] == "X":
                by_track.setdefault((ev["pid"], ev["tid"]), []).append(
                    (ev["ts"], ev["ts"] + ev["dur"])
                )
        assert by_track
        for spans in by_track.values():
            spans.sort()
            for (_, prev_end), (start, _) in zip(spans, spans[1:]):
                assert start >= prev_end - 1e-6

    def test_comm_slices_mirror_clock_intervals(self, eager_trace):
        measured, trace = eager_trace
        clock = measured.world.clock
        for rank in range(measured.world_size):
            slices = [
                ev
                for ev in trace["traceEvents"]
                if ev["ph"] == "X" and ev["pid"] == rank and ev["tid"] == COMM_TID
            ]
            intervals = sorted(clock.comm_intervals(rank), key=lambda iv: iv.start)
            assert len(slices) == len(intervals)
            for ev, iv in zip(sorted(slices, key=lambda e: e["ts"]), intervals):
                assert ev["ts"] == pytest.approx(iv.start * 1e6)
                assert ev["dur"] == pytest.approx(iv.seconds * 1e6)
                assert ev["name"] == iv.op
                assert ev["args"]["wire_bytes"] == iv.wire_bytes
                assert ev["args"]["link"] == iv.link

    def test_flows_tie_each_collective_across_ranks(self, eager_trace):
        measured, trace = eager_trace
        flows = {}
        for ev in trace["traceEvents"]:
            if ev["ph"] in ("s", "t", "f"):
                flows.setdefault(ev["id"], []).append(ev)
        assert flows  # every multi-rank collective emits one
        for members in flows.values():
            phs = [ev["ph"] for ev in sorted(members, key=lambda e: e["pid"])]
            assert phs[0] == "s" and phs[-1] == "f"
            assert len({ev["name"] for ev in members}) == 1
            assert len({ev["pid"] for ev in members}) == len(members)

    def test_eager_collectives_emit_inflight_asyncs(self, eager_trace):
        _, trace = eager_trace
        asyncs = [ev for ev in trace["traceEvents"] if ev["ph"] in ("b", "e")]
        assert asyncs
        assert all(ev["cat"] == "inflight" for ev in asyncs)
        begins = sum(1 for ev in asyncs if ev["ph"] == "b")
        assert begins == len(asyncs) - begins

    def test_json_serializable(self, eager_trace):
        _, trace = eager_trace
        assert validate_trace(json.loads(json.dumps(trace))) == []


class TestCounterProperty:
    @settings(max_examples=6, deadline=None)
    @given(
        tp=st.sampled_from([1, 2]),
        dp=st.sampled_from([1, 2]),
        eager=st.booleans(),
        n_steps=st.sampled_from([1, 2]),
    )
    def test_exposed_counter_totals_equal_clock_exposure(self, tp, dp, eager, n_steps):
        """Property: the final value of every ``exposed:<phase>`` counter
        equals the clock's exposure total for that (rank, phase) — the trace
        renders the simulator's books, it does not keep parallel ones."""
        if tp * dp == 1:
            return
        measured = _measured(
            eager=eager,
            plan=ParallelPlan("dist_tok" if tp > 1 else "tp", tp=tp, fsdp=1, dp=dp),
            n_steps=n_steps,
        )
        clock = measured.world.clock
        trace = chrome_trace(measured.world)
        finals = {}
        for ev in trace["traceEvents"]:
            if ev["ph"] == "C" and ev["name"].startswith("exposed:"):
                finals[(ev["pid"], ev["name"][len("exposed:"):])] = ev["args"][
                    "seconds"
                ]
        phases = {phase for _, phase in finals}
        assert phases  # at least one comm phase rendered
        for (rank, phase), total in finals.items():
            assert total == pytest.approx(clock.exposed_seconds(rank, phase))
        # and the trace covers every phase the clock exposed anything in
        for rank in range(measured.world_size):
            for phase in phases:
                if clock.comm_count(rank, phase):
                    assert (rank, phase) in finals

    def test_wire_counter_totals_equal_clock_volumes(self, eager_trace):
        measured, trace = eager_trace
        clock = measured.world.clock
        finals = {}
        for ev in trace["traceEvents"]:
            if ev["ph"] == "C" and ev["name"].startswith("wire:"):
                finals[(ev["pid"], ev["name"][len("wire:"):])] = ev["args"]["bytes"]
        for rank in range(measured.world_size):
            by_phase = {}
            for (op, phase, intra), (c, wire, busy) in clock.comm_volumes(rank).items():
                by_phase[phase] = by_phase.get(phase, 0) + wire
            for phase, wire in by_phase.items():
                if wire:
                    assert finals[(rank, phase)] == wire


class TestReplayRoundTrip:
    def test_replay_trace_equals_live_trace(self):
        """Bitwise round trip: a captured schedule replayed through the pure
        event engine lowers to the identical trace as the live threaded run."""
        captured = _measured(eager=True, capture=True)
        live = chrome_trace(captured.world.clock, label="x")
        replayed = replay(captured.schedule, M, n_steps=1)
        from_replay = chrome_trace(replayed, label="x")
        assert from_replay["traceEvents"] == live["traceEvents"]

    def test_accepts_replay_result_directly(self):
        captured = _measured(eager=True, capture=True)
        result = replay(captured.schedule, M, n_steps=2)
        trace = chrome_trace(result)
        assert validate_trace(trace) == []
        assert trace["otherData"]["elapsed_us"] == pytest.approx(
            result.elapsed * 1e6
        )

    def test_replay_many_results_export_like_replay(self):
        """Every replay result carries a real clock, so each variant of a
        ``replay_many`` call exports — and equals the single ``replay``."""
        captured = _measured(eager=True, capture=True)
        scales = (1.0, 2.0)
        many = replay_many(
            captured.schedule,
            [ReplayVariant(machine=M, compute_scale=s) for s in scales],
            n_steps=2,
        )
        for scale, result in zip(scales, many):
            trace = chrome_trace(result, label="x")
            assert validate_trace(trace) == []
            one = replay(captured.schedule, M, n_steps=2, compute_scale=scale)
            assert trace == chrome_trace(one, label="x")

    def test_rejects_clockless_source(self):
        with pytest.raises(TypeError, match="VirtualClock"):
            chrome_trace(object())


class TestValidator:
    def _valid(self):
        return chrome_trace(_measured().world)

    def test_flags_missing_keys(self):
        assert validate_trace({"traceEvents": [{"ph": "X"}]})
        assert validate_trace([]) == ["trace must be a dict with a traceEvents list"]

    def test_flags_overlapping_slices(self):
        trace = self._valid()
        bad = dict(trace)
        bad["traceEvents"] = trace["traceEvents"] + [
            {"ph": "X", "pid": 0, "tid": COMPUTE_TID, "ts": 0.0,
             "dur": 1e12, "name": "huge"}
        ]
        assert any("overlapping" in p for p in validate_trace(bad))

    def test_flags_unbalanced_flow(self):
        trace = self._valid()
        bad = dict(trace)
        bad["traceEvents"] = trace["traceEvents"] + [
            {"ph": "s", "pid": 0, "tid": COMM_TID, "ts": 0.0,
             "name": "orphan", "id": 999_999}
        ]
        assert any("flow" in p for p in validate_trace(bad))

    def test_flags_decreasing_counter(self):
        events = [
            {"ph": "C", "pid": 0, "tid": 1, "ts": 0.0, "name": "exposed:x",
             "args": {"seconds": 2.0}},
            {"ph": "C", "pid": 0, "tid": 1, "ts": 1.0, "name": "exposed:x",
             "args": {"seconds": 1.0}},
        ]
        assert any("non-decreasing" in p for p in validate_trace({"traceEvents": events}))


class TestCli:
    def test_smoke_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "smoke.trace.json"
        assert trace_main(["--smoke", "--out", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert validate_trace(trace) == []
        assert trace["otherData"]["world_size"] == 4
        assert "trace valid" in capsys.readouterr().out

    def test_export_trace_writes_file(self, tmp_path):
        measured = _measured()
        out = tmp_path / "nested" / "x.json"
        trace = export_trace(measured.world, out)
        assert json.loads(out.read_text()) == json.loads(json.dumps(trace))
