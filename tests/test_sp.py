"""Sequence parallelism tests (paper §3.5: D-CHAG composes with SP)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DCHAG, DCHAGConfig
from repro.dist import SpmdError, run_spmd, run_spmd_world
from repro.nn import MultiHeadSelfAttention, ViTEncoder
from repro.parallel import (
    ParallelContext,
    all_to_all_heads_to_tokens,
    all_to_all_tokens_to_heads,
    gather_sequence,
    scatter_sequence,
    sequence_parallel,
)
from repro.parallel.sp import SP_A2A_PHASE, SP_GATHER_PHASE, SP_SCATTER_PHASE
from repro.tensor import Tensor

RNG = np.random.default_rng(61)
D, DEPTH, HEADS, B, N = 32, 2, 4, 2, 8


def _sp_encoder(ctx, dim, depth, heads, state):
    """The serial encoder holding *state*, rewritten for SP over ctx."""
    enc = ViTEncoder(dim, depth, heads, np.random.default_rng(0))
    enc.load_state_dict(state)
    return sequence_parallel(ctx, enc)


class TestScatterGather:
    def test_scatter_takes_contiguous_shards(self):
        x = RNG.standard_normal((B, N, D)).astype(np.float32)

        def fn(comm):
            ctx = ParallelContext(comm)
            return scatter_sequence(ctx, Tensor(x)).data.copy()

        res = run_spmd(fn, 2)
        np.testing.assert_allclose(res[0], x[:, :4])
        np.testing.assert_allclose(res[1], x[:, 4:])

    def test_scatter_then_gather_is_identity(self):
        x = RNG.standard_normal((B, N, D)).astype(np.float32)

        def fn(comm):
            ctx = ParallelContext(comm)
            xi = Tensor(x, requires_grad=True)
            out = gather_sequence(ctx, scatter_sequence(ctx, xi))
            out.sum().backward()
            return out.data.copy(), xi.grad.copy()

        for out, grad in run_spmd(fn, 4):
            np.testing.assert_allclose(out, x, rtol=1e-6)
            np.testing.assert_allclose(grad, 1.0)

    def test_scatter_indivisible_raises(self):
        from repro.dist import SpmdError

        def fn(comm):
            scatter_sequence(ParallelContext(comm), Tensor(np.zeros((1, 5, 4), dtype=np.float32)))

        with pytest.raises(SpmdError):
            run_spmd(fn, 2)


class TestAllToAll:
    def test_tokens_to_heads_roundtrip(self):
        x = RNG.standard_normal((B, HEADS, N // 2, 8)).astype(np.float32)

        def fn(comm):
            ctx = ParallelContext(comm)
            xi = Tensor(x, requires_grad=True)
            flipped = all_to_all_tokens_to_heads(ctx, xi)     # [B, h/sp, N, hd]
            assert flipped.shape == (B, HEADS // 2, N, 8)
            back = all_to_all_heads_to_tokens(ctx, flipped)
            (back * back).sum().backward()
            return back.data.copy(), xi.grad.copy()

        for back, grad in run_spmd(fn, 2):
            np.testing.assert_allclose(back, x, rtol=1e-6)
            np.testing.assert_allclose(grad, 2 * x, rtol=1e-5)


class TestSPEncoder:
    @pytest.mark.parametrize("sp", [2, 4])
    def test_matches_serial(self, sp):
        serial = ViTEncoder(D, DEPTH, HEADS, np.random.default_rng(42))
        state = serial.state_dict()
        x = RNG.standard_normal((B, N, D)).astype(np.float32)
        expect = serial(Tensor(x)).data

        def fn(comm):
            ctx = ParallelContext(comm)
            enc = _sp_encoder(ctx, D, DEPTH, HEADS, state)
            out = enc(scatter_sequence(ctx, Tensor(x)))
            return gather_sequence(ctx, out).data.copy()

        for out in run_spmd(fn, sp):
            np.testing.assert_allclose(out, expect, rtol=3e-4, atol=3e-5)

    def test_input_gradients_match_serial(self):
        serial = ViTEncoder(D, DEPTH, HEADS, np.random.default_rng(42))
        state = serial.state_dict()
        x = RNG.standard_normal((B, N, D)).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        (serial(xt) ** 2).mean().backward()
        expect = xt.grad.copy()

        def fn(comm):
            ctx = ParallelContext(comm)
            enc = _sp_encoder(ctx, D, DEPTH, HEADS, state)
            xi = Tensor(x, requires_grad=True)
            out = gather_sequence(ctx, enc(scatter_sequence(ctx, xi)))
            (out ** 2).mean().backward()
            return xi.grad.copy()

        for grad in run_spmd(fn, 2):
            np.testing.assert_allclose(grad, expect, rtol=2e-3, atol=2e-5)

    def test_communication_is_all_to_all_only_inside_blocks(self):
        serial = ViTEncoder(D, DEPTH, HEADS, np.random.default_rng(42))
        state = serial.state_dict()
        x = RNG.standard_normal((B, N, D)).astype(np.float32)

        def fn(comm):
            ctx = ParallelContext(comm)
            enc = _sp_encoder(ctx, D, DEPTH, HEADS, state)
            enc(scatter_sequence(ctx, Tensor(x)))
            return None

        _, world = run_spmd_world(fn, 2)
        hist = world.traffic.ops_histogram()
        # 6 all-to-alls per block (q, k, v in; out back = 4 calls) × depth × ranks
        assert set(hist) == {"all_to_all"}
        assert hist["all_to_all"] == 4 * DEPTH * 2


class TestDCHAGWithSP:
    def test_composition(self):
        """§3.5: D-CHAG front-end + SP encoder over the same group."""
        C, IMG, P = 8, 16, 4
        imgs = RNG.standard_normal((B, C, IMG, IMG)).astype(np.float32)
        serial_enc = ViTEncoder(D, DEPTH, HEADS, np.random.default_rng(3))
        state = serial_enc.state_dict()

        def fn(comm):
            cfg = DCHAGConfig(channels=C, patch=P, dim=D, heads=HEADS, kind="linear")
            frontend = DCHAG(comm, None, cfg, rng_seed=9)
            ctx = ParallelContext(comm)
            enc = _sp_encoder(ctx, D, DEPTH, HEADS, state)
            tokens = frontend(imgs)                       # replicated [B, N, D]
            shard = scatter_sequence(ctx, tokens)          # [B, N/sp, D]
            out = gather_sequence(ctx, enc(shard))
            loss = (out * out).mean()
            loss.backward()
            return out.data.copy(), loss.item()

        res = run_spmd(fn, 4)
        for out, loss in res[1:]:
            np.testing.assert_allclose(out, res[0][0], rtol=1e-4, atol=1e-5)
            assert loss == pytest.approx(res[0][1], rel=1e-5)


class TestSPParityHypothesis:
    """Forward + gradient parity vs the serial encoder over drawn shapes."""

    @settings(max_examples=8, deadline=None)
    @given(
        sp=st.sampled_from([2, 4]),
        batch=st.integers(1, 3),
        seq_mult=st.integers(1, 3),
        head_dim=st.sampled_from([4, 8]),
    )
    def test_forward_and_grad_match_serial(self, sp, batch, seq_mult, head_dim):
        heads = sp  # minimal legal head count: heads % sp == 0
        dim = heads * head_dim
        n = sp * seq_mult  # tokens % sp == 0 by construction
        serial = ViTEncoder(dim, 1, heads, np.random.default_rng(7))
        state = serial.state_dict()
        x = np.random.default_rng(11).standard_normal((batch, n, dim)).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        (serial(xt) ** 2).mean().backward()
        expect_out = serial(Tensor(x)).data
        expect_grad = xt.grad.copy()

        def fn(comm):
            ctx = ParallelContext(comm)
            enc = _sp_encoder(ctx, dim, 1, heads, state)
            xi = Tensor(x, requires_grad=True)
            out = gather_sequence(ctx, enc(scatter_sequence(ctx, xi)))
            (out ** 2).mean().backward()
            return out.data.copy(), xi.grad.copy()

        for out, grad in run_spmd(fn, sp):
            np.testing.assert_allclose(out, expect_out, rtol=3e-4, atol=3e-5)
            np.testing.assert_allclose(grad, expect_grad, rtol=2e-3, atol=2e-5)


class TestDivisibility:
    def test_a2a_indivisible_axis_raises(self):
        def fn(comm):
            ctx = ParallelContext(comm)
            # 3 heads over sp=2: the head axis cannot be split evenly.
            all_to_all_tokens_to_heads(ctx, Tensor(np.zeros((1, 3, 4, 4), np.float32)))

        with pytest.raises(SpmdError):
            run_spmd(fn, 2)

    def test_attention_heads_indivisible_raises(self):
        def fn(comm):
            # 3 heads over sp=2: the Ulysses head shard cannot be even.
            sequence_parallel(ParallelContext(comm), MultiHeadSelfAttention(6, 3, np.random.default_rng(0)))

        with pytest.raises(SpmdError):
            run_spmd(fn, 2)

    def test_schedule_indivisible_tokens_raises(self):
        from repro.perf import ParallelPlan, Workload, step_comm_schedule
        from repro.perf.modelcfg import ModelConfig

        model = ModelConfig("odd", dim=32, depth=1, heads=4, patch=4, image_hw=(4, 12))
        assert model.tokens == 3
        with pytest.raises(ValueError, match="not divisible by sp"):
            step_comm_schedule(
                model, Workload(channels=4, batch=1),
                ParallelPlan("tp", tp=1, sp=2, fsdp=1, dp=1),
            )


class TestRoundTrips:
    def test_gather_then_scatter_returns_the_shard(self):
        """gather_sequence and scatter_sequence are conjugate both ways."""
        x = RNG.standard_normal((B, N, D)).astype(np.float32)

        def fn(comm):
            ctx = ParallelContext(comm)
            shard = scatter_sequence(ctx, Tensor(x, requires_grad=True))
            ref = shard.data.copy()
            back = scatter_sequence(ctx, gather_sequence(ctx, shard))
            (back * back).sum().backward()
            return back.data.copy(), ref

        for back, ref in run_spmd(fn, 4):
            np.testing.assert_allclose(back, ref, rtol=1e-6)


class TestGradientAccumulation:
    def test_joint_backward_matches_separate_backwards(self):
        """Two forwards then one backward give the same gradients as two
        forward/backward pairs: a second forward must not overwrite what the
        first forward saved for backward (the all-to-alls allocate)."""
        d, depth, heads = 16, 2, 4
        state = ViTEncoder(d, depth, heads, np.random.default_rng(42)).state_dict()
        x0, x1, x2 = (RNG.standard_normal((B, N, d)).astype(np.float32) for _ in range(3))

        def fn(comm):
            ctx = ParallelContext(comm)
            enc = _sp_encoder(ctx, d, depth, heads, state)

            def loss(x):
                return (gather_sequence(ctx, enc(scatter_sequence(ctx, Tensor(x)))) ** 2).mean()

            def grads():
                out = [p.grad.copy() for p in enc.parameters()]
                enc.zero_grad()
                return out

            loss(x0).backward()  # warm-up step
            enc.zero_grad()
            (loss(x1) + loss(x2)).backward()
            joint = grads()
            loss(x1).backward()
            loss(x2).backward()
            return joint, grads()

        for joint, separate in run_spmd(fn, 2):
            assert len(joint) == 26
            differ = [i for i, (a, b) in enumerate(zip(joint, separate)) if not np.array_equal(a, b)]
            assert not differ, f"{len(differ)} of {len(joint)} gradients differ"


class TestPhaseTagging:
    def _world(self):
        serial = ViTEncoder(D, DEPTH, HEADS, np.random.default_rng(42))
        state = serial.state_dict()
        x = RNG.standard_normal((B, N, D)).astype(np.float32)

        def fn(comm):
            ctx = ParallelContext(comm)
            enc = _sp_encoder(ctx, D, DEPTH, HEADS, state)
            xi = Tensor(x, requires_grad=True)
            out = gather_sequence(ctx, enc(scatter_sequence(ctx, xi)))
            (out ** 2).mean().backward()

        _, world = run_spmd_world(fn, 2)
        return world

    def test_every_sp_collective_is_phase_tagged(self):
        traffic = self._world().traffic
        # 4 a2a per block forward + 4 backward, all stamped sp_a2a.
        assert traffic.count(op="all_to_all") == 8 * DEPTH * 2
        assert traffic.count(op="all_to_all", phase=SP_A2A_PHASE) == 8 * DEPTH * 2
        # One boundary gather each way per rank, on their own phases.
        assert traffic.count(op="all_gather", phase=SP_GATHER_PHASE) == 2
        assert traffic.count(op="all_gather", phase=SP_SCATTER_PHASE) == 2
        # Nothing SP emits rides an untagged phase.
        for phase in ("forward", "backward", ""):
            assert traffic.count(phase=phase) == 0

    def test_live_wrapper_wire_bytes_match_analytic_schedule(self):
        """The live SP world's traffic equals the analytic sp events priced
        by the CostModel — per op x phase, exact bytes (fp32 activations)."""
        from repro.perf import (
            CostModel,
            ParallelPlan,
            Precision,
            Workload,
            frontier,
            step_comm_schedule,
        )
        from repro.perf.calibrate import AXIS_PHASES
        from repro.perf.modelcfg import ModelConfig

        traffic = self._world().traffic
        model = ModelConfig(
            "sp-live", dim=D, depth=DEPTH, heads=HEADS, patch=4, image_hw=(8, 16)
        )
        assert model.tokens == N
        plan = ParallelPlan("tp", tp=1, sp=2, fsdp=1, dp=1)
        events = step_comm_schedule(
            model, Workload(channels=1, batch=B), plan,
            precision=Precision(act_bytes=4),  # the live wrapper is fp32
        )
        cost = CostModel(frontier())
        sp_events = [ev for ev in events if ev.axis.startswith("sp")]
        assert {ev.axis for ev in sp_events} == {"sp", "sp_gather", "sp_scatter"}
        for ev in sp_events:
            predicted = cost.wire_bytes(ev.op, ev.payload_bytes, plan.sp) * ev.count
            measured = traffic.wire_bytes(op=ev.op, phase=AXIS_PHASES[ev.axis], rank=0)
            assert measured == predicted, (ev.axis, measured, predicted)
