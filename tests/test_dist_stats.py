"""Property tests for ``repro.dist.stats``: the analytic ring formulas and
the per-invocation traffic counters the ablation benchmarks consume."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dist import TrafficLog, TrafficRecord, TrafficTotals, ring_wire_bytes, run_spmd_world

PAYLOADS = st.integers(0, 10**9)
SIZES = st.integers(2, 64)


class TestRingFormulas:
    @settings(max_examples=50, deadline=None)
    @given(PAYLOADS, SIZES)
    def test_all_reduce_is_two_ring_passes(self, payload, n):
        """Ring AllReduce = ReduceScatter pass + AllGather pass:
        2·(n−1)/n of the full vector crosses each rank's link."""
        assert ring_wire_bytes("all_reduce", payload, n) == (2 * (n - 1) * payload) // n

    @settings(max_examples=50, deadline=None)
    @given(PAYLOADS, SIZES)
    def test_all_gather_moves_every_foreign_shard(self, payload, n):
        """Payload here is the per-rank shard; each rank receives the other
        n−1 shards, i.e. (n−1)/n of the gathered total."""
        assert ring_wire_bytes("all_gather", payload, n) == (n - 1) * payload

    @settings(max_examples=50, deadline=None)
    @given(PAYLOADS, SIZES)
    def test_reduce_scatter_is_one_ring_pass(self, payload, n):
        """(n−1)/n of the full input vector — exactly half an AllReduce."""
        wire = ring_wire_bytes("reduce_scatter", payload, n)
        assert wire == ((n - 1) * payload) // n
        assert 2 * wire <= ring_wire_bytes("all_reduce", payload, n) <= 2 * wire + 1

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["all_reduce", "all_gather", "reduce_scatter", "broadcast", "all_to_all"]),
        PAYLOADS,
    )
    def test_singleton_group_never_touches_the_wire(self, op, payload):
        assert ring_wire_bytes(op, payload, 1) == 0

    def test_unknown_op_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            ring_wire_bytes("all_shuffle", 1024, 4)
        with pytest.raises(ValueError):
            ring_wire_bytes("all_reduce", -1, 4)
        with pytest.raises(ValueError):
            ring_wire_bytes("all_reduce", 1024, 0)


def _one_step(comm):
    comm.all_reduce(np.zeros(256, dtype=np.float32))
    comm.all_gather(np.zeros(64, dtype=np.float32))
    comm.barrier()
    return None


class TestCounterLifecycle:
    def test_counters_reset_per_run_spmd_invocation(self):
        """Each run_spmd gets a fresh world and a fresh TrafficLog: repeated
        identical runs report identical (not accumulating) counters."""
        _, first = run_spmd_world(_one_step, 4)
        _, second = run_spmd_world(_one_step, 4)
        assert first is not second
        assert first.traffic is not second.traffic
        assert first.traffic.ops_histogram() == second.traffic.ops_histogram()
        assert first.traffic.count() == second.traffic.count() == 8

    def test_finished_world_log_is_frozen(self):
        """Running a new world must not append to an old world's log."""
        _, world = run_spmd_world(_one_step, 2)
        before = world.traffic.count()
        run_spmd_world(_one_step, 2)
        assert world.traffic.count() == before

    def test_barriers_move_no_data_and_are_not_logged(self):
        _, world = run_spmd_world(_one_step, 4)
        assert "barrier" not in world.traffic.ops_histogram()

    def test_logged_wire_bytes_match_the_analytic_formula(self):
        """The log's wire accounting and the α–β model's ring_wire_bytes are
        the same function — perf/comm_model.py depends on this agreement."""
        _, world = run_spmd_world(_one_step, 4)
        assert world.traffic.wire_bytes(op="all_reduce", rank=0) == ring_wire_bytes(
            "all_reduce", 256 * 4, 4
        )
        assert world.traffic.wire_bytes(op="all_gather", rank=0) == ring_wire_bytes(
            "all_gather", 64 * 4, 4
        )

    def test_manual_log_reset(self):
        log = TrafficLog()
        log.add(TrafficRecord(rank=0, op="all_reduce", phase="", payload_bytes=8, wire_bytes=4, group_size=2))
        assert log.count() == len(log) == 1
        log.reset()
        assert log.count() == 0
        assert log.ops_histogram() == {}


class TestRunningAggregation:
    """count/payload/wire queries scan per-(op, phase, rank) running totals,
    not the record list — and must stay consistent with a naive re-scan."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),                      # rank
                st.sampled_from(["all_reduce", "all_gather", "broadcast"]),
                st.sampled_from(["", "forward", "backward"]),
                st.integers(0, 1 << 20),                # payload
            ),
            max_size=60,
        )
    )
    def test_totals_match_naive_scan(self, entries):
        log = TrafficLog()
        for rank, op, phase, payload in entries:
            log.add(
                TrafficRecord(
                    rank=rank, op=op, phase=phase,
                    payload_bytes=payload, wire_bytes=payload // 2, group_size=4,
                )
            )
        for op, phase, rank in [(None, None, None), ("all_reduce", None, None),
                                (None, "backward", 2), ("broadcast", "", 0)]:
            naive = [
                r for r in log.records()
                if (op is None or r.op == op)
                and (phase is None or r.phase == phase)
                and (rank is None or r.rank == rank)
            ]
            assert log.totals(op, phase, rank) == TrafficTotals(
                count=len(naive),
                payload_bytes=sum(r.payload_bytes for r in naive),
                wire_bytes=sum(r.wire_bytes for r in naive),
            )
            assert log.count(op, phase, rank) == len(naive)

    def test_records_accept_the_same_filters(self):
        _, world = run_spmd_world(_one_step, 4)
        mine = world.traffic.records(op="all_reduce", rank=2)
        assert [r.op for r in mine] == ["all_reduce"]
        assert len(world.traffic.records()) == world.traffic.count()

    def test_records_keep_each_ranks_issue_order(self):
        """A rank's own collectives appear in issue order."""
        _, world = run_spmd_world(_one_step, 4)
        for rank in range(4):
            mine = world.traffic.records(rank=rank)
            assert [r.op for r in mine] == ["all_reduce", "all_gather"]

    def test_totals_update_incrementally(self):
        log = TrafficLog()
        rec = TrafficRecord(rank=0, op="all_reduce", phase="", payload_bytes=100,
                            wire_bytes=50, group_size=2)
        for i in range(1, 4):
            log.add(rec)
            assert log.totals(op="all_reduce") == TrafficTotals(i, 100 * i, 50 * i)
        log.reset()
        assert log.totals() == TrafficTotals(0, 0, 0)
        assert log.ops_histogram() == {}

    def test_vseconds_totals_match_naive_rescan(self):
        """The bucket vseconds aggregate equals a full-record rescan of
        ``vend − vstart`` (unstamped records contribute nothing) — the
        parity pin for the ``phase_comm_seconds`` fast path."""
        log = TrafficLog()
        stamps = [(0.0, 1.5), (-1.0, -1.0), (2.0, 2.25), (-1.0, 3.0), (1.0, 4.0)]
        for i, (vs, ve) in enumerate(stamps):
            log.add(TrafficRecord(rank=i % 2, op="all_reduce", phase="dp_sync",
                                  payload_bytes=8, wire_bytes=8, group_size=2,
                                  vstart=vs, vend=ve))
        for rank in (None, 0, 1):
            naive = sum(
                r.vend - r.vstart
                for r in log.records()
                if r.vstart >= 0.0 and (rank is None or r.rank == rank)
            )
            assert log.totals(phase="dp_sync", rank=rank).vseconds == naive

    def test_aborted_collectives_add_no_vseconds(self):
        """A collective unwound by a world abort logs ``vend = -1``; it must
        count toward ``count`` but never as a (negative) duration
        (regression: rank 0's dp_sync time used to come out at -2.0 s)."""
        from repro.dist import SpmdError
        from repro.perf import VirtualClock, frontier
        from repro.perf.overlap import phase_comm_seconds

        def fn(comm):
            comm.charge_compute(1.0, phase="backward")
            with comm.phase_scope("dp_sync"):
                comm.all_reduce(np.ones(256, dtype=np.float32))
                if comm.rank == 1:
                    raise RuntimeError("boom")
                comm.all_reduce(np.ones(256, dtype=np.float32))

        clock = VirtualClock(frontier())
        try:
            run_spmd_world(fn, 2, timeout=10, clock=clock)
            raise AssertionError("world should have aborted")
        except SpmdError as err:
            world = err.world
        first, aborted = world.traffic.records(phase="dp_sync", rank=0)
        assert first.vend > first.vstart == 1.0
        assert aborted.vstart >= 0.0 and aborted.vend == -1.0
        totals = world.traffic.totals(phase="dp_sync", rank=0)
        assert totals.count == 2
        assert totals.vseconds == first.vend - first.vstart
        assert phase_comm_seconds(world, "dp_sync", rank=0) == totals.vseconds

    def test_phase_comm_seconds_fast_path_matches_record_rescan(self):
        """On a real clock world the O(buckets) bucket totals and an
        O(records) rescan agree bitwise, for every rank and phase."""
        from repro.perf import VirtualClock, frontier
        from repro.perf.overlap import phase_comm_seconds

        clock = VirtualClock(frontier())

        def fn(comm):
            buf = np.ones(256, dtype=np.float32)
            with comm.phase_scope("tp"):
                comm.all_reduce(buf)
            comm.charge_compute(1e-5, phase="backward")
            with comm.phase_scope("dp_sync"):
                comm.all_reduce(buf)
                comm.all_gather(np.ones(64, dtype=np.float32))

        _, world = run_spmd_world(fn, 4, clock=clock)
        for rank in range(4):
            for phase in ("tp", "dp_sync", "missing"):
                fast = phase_comm_seconds(world, phase, rank=rank)
                rescan = sum(
                    r.vend - r.vstart
                    for r in world.traffic.records()
                    if r.rank == rank and r.phase == phase and r.vstart >= 0.0
                )
                assert fast == rescan
        # The fast path really is in play: the log exposes bucket totals.
        assert world.traffic.totals(phase="tp", rank=0).vseconds > 0.0


class TestConcurrentAggregates:
    """Aggregate queries must stay consistent under live writers.

    Reads and writes share the log's lock, so a polling reader sees
    internally consistent snapshots, and a record is counted as soon as
    ``add`` returns.
    """

    PAYLOAD = 64

    def _record(self, rank):
        return TrafficRecord(
            rank=rank,
            op="all_reduce",
            phase="p",
            payload_bytes=self.PAYLOAD,
            wire_bytes=ring_wire_bytes("all_reduce", self.PAYLOAD, 4),
            group_size=4,
        )

    def test_totals_consistent_under_concurrent_writers(self):
        import threading

        log = TrafficLog()
        n_writers, per_writer = 4, 3000
        start = threading.Barrier(n_writers + 1)
        wire = ring_wire_bytes("all_reduce", self.PAYLOAD, 4)

        def writer(rank):
            rec = self._record(rank)
            start.wait()
            for _ in range(per_writer):
                log.add(rec)

        threads = [
            threading.Thread(target=writer, args=(r,)) for r in range(n_writers)
        ]
        for t in threads:
            t.start()
        start.wait()
        # Poll aggregates while the writers hammer: every snapshot must be
        # internally consistent (fixed payload/wire per record), never
        # exceed the true total, never tear a bucket, and never go back.
        seen = 0
        snapshots = 0
        while any(t.is_alive() for t in threads) or snapshots < 3:
            tot = log.totals(op="all_reduce")
            assert tot.payload_bytes == tot.count * self.PAYLOAD
            assert tot.wire_bytes == tot.count * wire
            assert tot.count <= n_writers * per_writer
            assert tot.count >= seen
            seen = tot.count
            snapshots += 1
        for t in threads:
            t.join()
        final = log.totals()
        assert final.count == n_writers * per_writer
        assert final.payload_bytes == final.count * self.PAYLOAD
        assert len(log.records()) == final.count


class TestObservabilityAccessors:
    """The capped repr, top-N histogram and per-rank record filter the
    observability layer (repro.obs) and large-world drivers rely on."""

    @staticmethod
    def _log_with_ops(n_ops: int, per_op: int = 1) -> TrafficLog:
        log = TrafficLog()
        for i in range(n_ops):
            for _ in range(per_op):
                log.add(TrafficRecord(rank=0, op=f"op_{i:03d}", phase="p",
                                      payload_bytes=8, wire_bytes=4, group_size=2))
        return log

    def test_histogram_top_keeps_most_frequent_ops(self):
        log = TrafficLog()
        for op, n in (("a", 5), ("b", 3), ("c", 3), ("d", 1)):
            for _ in range(n):
                log.add(TrafficRecord(rank=0, op=op, phase="", payload_bytes=1,
                                      wire_bytes=1, group_size=2))
        assert log.ops_histogram(top=2) == {"a": 5, "b": 3}  # tie b/c -> name order
        assert log.ops_histogram(top=10) == log.ops_histogram()

    def test_repr_caps_rendered_ops(self):
        many = self._log_with_ops(TrafficLog._REPR_TOP_OPS + 7)
        text = repr(many)
        assert f"+7 more ops" in text
        assert text.count("op_") == TrafficLog._REPR_TOP_OPS
        few = self._log_with_ops(2)
        assert "more ops" not in repr(few)

    def test_records_filter_one_rank_by_op_and_phase(self):
        log = TrafficLog()
        for rank in (0, 1):
            for op in ("all_reduce", "all_gather"):
                log.add(TrafficRecord(rank=rank, op=op, phase="tp",
                                      payload_bytes=8, wire_bytes=4, group_size=2))
        mine = log.records(rank=1)
        assert [r.rank for r in mine] == [1, 1]
        assert [r.op for r in mine] == ["all_reduce", "all_gather"]  # issue order
        assert [r.op for r in log.records(rank=1, op="all_gather")] == ["all_gather"]
        assert log.records(rank=0, phase="dp_sync") == []
