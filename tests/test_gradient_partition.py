"""Tests for the two-step adaptive gradient partitioning (paper §5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import PipelineContext
from repro.core.context import SolverContext
from repro.core.gradient_partition import (
    GeneralizedLayer,
    _repair,
    _repair_matrix,
    _step1_fill,
    plan_gradient_partition,
)
from repro.core.perf_model import LinearPerfModel
from repro.errors import SolverError
from repro.units import MB

AR = LinearPerfModel(alpha=0.3, beta=5e-7)


def make_layer(
    grad_mb: float = 10.0,
    dense_ms: float = 5.0,
    expert_heavy: bool = True,
) -> GeneralizedLayer:
    if expert_heavy:
        ctx = PipelineContext(
            a2a=LinearPerfModel(0.15, 1e-7), n_a2a=5e6,
            ag=LinearPerfModel(0.05, 1e-8), n_ag=5e6,
            rs=LinearPerfModel(0.05, 1e-8), n_rs=5e6,
            exp=LinearPerfModel(0.1, 1e-9), n_exp=2e10,
        )
    else:
        ctx = PipelineContext(
            a2a=LinearPerfModel(0.15, 4e-7), n_a2a=6e7,
            ag=LinearPerfModel(0.05, 1e-8), n_ag=2e6,
            rs=LinearPerfModel(0.05, 1e-8), n_rs=2e6,
            exp=LinearPerfModel(0.05, 1e-11), n_exp=1e9,
        )
    return GeneralizedLayer(
        ctx=ctx, dense_overlappable_ms=dense_ms, grad_bytes=grad_mb * MB
    )


class TestConservation:
    @pytest.mark.parametrize("n_layers", [1, 2, 4, 8])
    def test_every_byte_is_placed_once(self, n_layers):
        layers = [make_layer() for _ in range(n_layers)]
        plan = plan_gradient_partition(layers, AR, use_differential_evolution=False)
        placed = (
            sum(plan.moe_window_bytes)
            + sum(plan.dense_window_bytes)
            + sum(plan.extra_bytes)
            + plan.tail_bytes
        )
        total = sum(layer.grad_bytes for layer in layers)
        assert placed == pytest.approx(total)

    def test_conservation_with_de(self):
        layers = [make_layer() for _ in range(4)]
        plan = plan_gradient_partition(layers, AR, seed=1, de_maxiter=10)
        placed = (
            sum(plan.moe_window_bytes)
            + sum(plan.dense_window_bytes)
            + sum(plan.extra_bytes)
            + plan.tail_bytes
        )
        assert placed == pytest.approx(sum(l.grad_bytes for l in layers))


class TestAvailability:
    def test_single_layer_all_tail(self):
        """A lone layer's gradients exist only after its own backward."""
        plan = plan_gradient_partition([make_layer()], AR)
        assert plan.moe_window_bytes == (0.0,)
        assert plan.dense_window_bytes == (0.0,)
        assert plan.extra_bytes == (0.0,)
        assert plan.tail_bytes == pytest.approx(10 * MB)

    def test_last_layer_hosts_nothing(self):
        """The first-processed (last-index) layer has no upstream grads."""
        layers = [make_layer() for _ in range(4)]
        plan = plan_gradient_partition(layers, AR, de_maxiter=8, seed=0)
        assert plan.moe_window_bytes[-1] == 0.0
        assert plan.dense_window_bytes[-1] == 0.0
        assert plan.extra_bytes[-1] == 0.0

    def test_prefix_sums_respect_production(self):
        layers = [make_layer(grad_mb=20.0) for _ in range(5)]
        plan = plan_gradient_partition(layers, AR, de_maxiter=8, seed=2)
        consumed = 0.0
        produced = 0.0
        for i in reversed(range(5)):
            consumed += (
                plan.moe_window_bytes[i]
                + plan.dense_window_bytes[i]
                + plan.extra_bytes[i]
            )
            assert consumed <= produced + 1e-6
            produced += layers[i].grad_bytes


class TestQuality:
    def test_windows_absorb_before_tail(self):
        """With large windows and small grads, nothing reaches the tail
        except the first layer's own gradients."""
        layers = [make_layer(grad_mb=2.0, dense_ms=50.0) for _ in range(3)]
        plan = plan_gradient_partition(layers, AR, use_differential_evolution=False)
        assert plan.tail_bytes == pytest.approx(2.0 * MB)

    def test_de_no_worse_than_greedy_only(self):
        layers = [make_layer(grad_mb=60.0, dense_ms=1.0) for _ in range(4)]
        greedy = plan_gradient_partition(
            layers, AR, use_differential_evolution=False
        )
        de = plan_gradient_partition(layers, AR, seed=3)
        assert (
            de.total_estimated_backward_ms()
            <= greedy.total_estimated_backward_ms() + 1e-6
        )

    def test_t_gar_reflects_assigned_bytes(self):
        layers = [make_layer(grad_mb=30.0) for _ in range(3)]
        plan = plan_gradient_partition(layers, AR, seed=4)
        for i in range(3):
            assigned = plan.moe_window_bytes[i] + plan.extra_bytes[i]
            expected = AR.time_ms(assigned)
            assert plan.t_gar_ms[i] == pytest.approx(expected)

    def test_merged_comm_windows_smaller_or_equal(self):
        layers = [make_layer(grad_mb=30.0, dense_ms=0.0) for _ in range(3)]
        dedicated = plan_gradient_partition(
            layers, AR, use_differential_evolution=False
        )
        merged = plan_gradient_partition(
            layers, AR, merged_comm=True, use_differential_evolution=False
        )
        assert sum(merged.moe_window_bytes) <= sum(
            dedicated.moe_window_bytes
        ) + 1e-9


class TestInterface:
    def test_rejects_empty(self):
        with pytest.raises(SolverError):
            plan_gradient_partition([], AR)

    def test_rejects_negative_inputs(self):
        with pytest.raises(SolverError):
            GeneralizedLayer(
                ctx=make_layer().ctx,
                dense_overlappable_ms=-1.0,
                grad_bytes=0.0,
            )
        with pytest.raises(SolverError):
            GeneralizedLayer(
                ctx=make_layer().ctx,
                dense_overlappable_ms=0.0,
                grad_bytes=-5.0,
            )

    def test_zero_gradients(self):
        layers = [
            GeneralizedLayer(
                ctx=make_layer().ctx, dense_overlappable_ms=1.0, grad_bytes=0.0
            )
            for _ in range(2)
        ]
        plan = plan_gradient_partition(layers, AR)
        assert plan.tail_bytes == 0.0
        assert plan.tail_ms == 0.0


class TestStep2Solvers:
    def test_rejects_unknown_solver(self):
        with pytest.raises(SolverError, match="unknown Step-2 solver"):
            plan_gradient_partition([make_layer()], AR, solver="adam")

    def test_none_skips_step2(self):
        layers = [make_layer() for _ in range(4)]
        plan = plan_gradient_partition(layers, AR, solver="none")
        assert all(x == 0.0 for x in plan.extra_bytes)

    def test_legacy_flag_still_wins(self):
        layers = [make_layer() for _ in range(3)]
        plan = plan_gradient_partition(
            layers, AR, solver="de", use_differential_evolution=False
        )
        assert all(x == 0.0 for x in plan.extra_bytes)

    def test_slsqp_conserves_every_byte(self):
        layers = [make_layer() for _ in range(4)]
        plan = plan_gradient_partition(layers, AR, solver="slsqp")
        placed = (
            sum(plan.moe_window_bytes)
            + sum(plan.dense_window_bytes)
            + sum(plan.extra_bytes)
            + plan.tail_bytes
        )
        total = sum(layer.grad_bytes for layer in layers)
        assert placed == pytest.approx(total)

    def test_slsqp_respects_availability(self):
        """Cumulative Step-2 bytes from the back never exceed what is
        pending when that layer's backward starts (paper Eq. 5)."""
        layers = [make_layer(grad_mb=40.0) for _ in range(4)]
        plan = plan_gradient_partition(layers, AR, solver="slsqp")
        produced = 0.0
        for i in reversed(range(4)):
            hidden = (
                plan.moe_window_bytes[i]
                + plan.dense_window_bytes[i]
                + plan.extra_bytes[i]
            )
            assert hidden <= produced + 1e-6
            produced += layers[i].grad_bytes - hidden
        assert produced == pytest.approx(plan.tail_bytes)

    def test_slsqp_not_much_worse_than_de(self):
        layers = [make_layer(grad_mb=60.0) for _ in range(4)]
        de = plan_gradient_partition(layers, AR, solver="de", seed=0)
        slsqp = plan_gradient_partition(layers, AR, solver="slsqp")
        greedy = plan_gradient_partition(layers, AR, solver="none")
        # the local solve must land within a few percent of DE and never
        # behind skipping Step 2 entirely
        assert (
            slsqp.total_estimated_backward_ms()
            <= de.total_estimated_backward_ms() * 1.05
        )
        assert (
            slsqp.total_estimated_backward_ms()
            <= greedy.total_estimated_backward_ms() + 1e-9
        )

    def test_explicit_slsqp_survives_legacy_flag(self):
        """The legacy switch only downgrades DE; an explicit non-DE
        solver is honored as written (it used to be forced to none)."""
        layers = [make_layer(grad_mb=80.0, dense_ms=1.0) for _ in range(4)]
        context = SolverContext()
        with_flag = plan_gradient_partition(
            layers, AR, solver="slsqp", use_differential_evolution=False,
            solver_context=context,
        )
        # Step 2 actually ran: the objective was evaluated (solver="none"
        # never touches it), so the flag no longer silently forced "none".
        assert context.stats.step2_objective_calls > 0
        without_flag = plan_gradient_partition(layers, AR, solver="slsqp")
        assert with_flag.extra_bytes == without_flag.extra_bytes
        assert with_flag.tail_bytes == without_flag.tail_bytes

    def test_default_solver_follows_legacy_flag(self):
        layers = [make_layer() for _ in range(3)]
        off = plan_gradient_partition(
            layers, AR, use_differential_evolution=False
        )
        explicit_none = plan_gradient_partition(layers, AR, solver="none")
        assert off.extra_bytes == explicit_none.extra_bytes
        assert off.tail_bytes == explicit_none.tail_bytes

    def test_fsmoe_system_accepts_solver(self):
        from repro.systems import FSMoE, FSMoENoIIO

        assert FSMoE(solver="slsqp").solver == "slsqp"
        assert FSMoENoIIO(solver="slsqp").solver == "slsqp"
        with pytest.raises(SolverError):
            FSMoE(solver="bogus")
        fp_de = FSMoE(solver="de").fingerprint()
        fp_sl = FSMoE(solver="slsqp").fingerprint()
        assert fp_de != fp_sl


def _step1_fill_reference(layers, ar_model, moe_windows_ms):
    """The pre-vectorization Step-1 fill, kept verbatim as the oracle."""
    n = len(layers)
    moe_bytes = [0.0] * n
    dense_bytes = [0.0] * n
    residual_before = [0.0] * n
    pending = 0.0
    for i in reversed(range(n)):
        take_moe = min(pending, ar_model.inverse(moe_windows_ms[i]))
        pending -= take_moe
        moe_bytes[i] = take_moe
        take_dense = min(
            pending, ar_model.inverse(layers[i].dense_overlappable_ms)
        )
        pending -= take_dense
        dense_bytes[i] = take_dense
        residual_before[i] = pending
        pending += layers[i].grad_bytes
    return moe_bytes, dense_bytes, residual_before


def _repair_reference(proposal, residual_before):
    """The pre-vectorization repair loop, kept verbatim as the oracle."""
    n = len(residual_before)
    repaired = np.zeros(n)
    consumed = 0.0
    for i in reversed(range(n)):
        available = max(0.0, residual_before[i] - consumed)
        repaired[i] = min(max(0.0, proposal[i]), available)
        consumed += repaired[i]
    return repaired


@st.composite
def _stacks(draw):
    n = draw(st.integers(1, 5))
    layers = tuple(
        make_layer(
            grad_mb=draw(st.floats(0.0, 80.0)),
            dense_ms=draw(st.floats(0.0, 10.0)),
            expert_heavy=draw(st.booleans()),
        )
        for _ in range(n)
    )
    windows = tuple(draw(st.floats(0.0, 5.0)) for _ in range(n))
    return layers, windows


class TestVectorizedHelpers:
    """The NumPy rewrites are pinned bit-identical to the Python loops."""

    @settings(max_examples=50, deadline=None)
    @given(stack=_stacks())
    def test_step1_fill_matches_reference(self, stack):
        layers, windows = stack
        got = _step1_fill(layers, AR, windows)
        want = _step1_fill_reference(layers, AR, windows)
        assert got == want  # exact: same floats, same IEEE op order

    def test_step1_fill_zero_beta_model(self):
        """beta=0 hits inverse's infinite-capacity branch array-wise."""
        flat = LinearPerfModel(alpha=0.5, beta=0.0)
        layers = tuple(make_layer(grad_mb=10.0, dense_ms=2.0) for _ in range(3))
        windows = (0.1, 1.0, 0.0)
        assert _step1_fill(layers, flat, windows) == _step1_fill_reference(
            layers, flat, windows
        )

    @settings(max_examples=50, deadline=None)
    @given(
        residual=st.lists(st.floats(0.0, 1e8), min_size=1, max_size=6),
        seed=st.integers(0, 1000),
    )
    def test_repair_matrix_rows_match_scalar_repair(self, residual, seed):
        rng = np.random.default_rng(seed)
        proposals = rng.uniform(-1e7, 2e8, size=(7, len(residual)))
        batched = _repair_matrix(proposals, residual)
        for row in range(proposals.shape[0]):
            scalar = _repair(proposals[row], residual)
            assert batched[row].tolist() == scalar.tolist()
            assert scalar.tolist() == _repair_reference(
                proposals[row], residual
            ).tolist()


def _plans_identical(plan_a, plan_b):
    assert plan_a.moe_window_bytes == plan_b.moe_window_bytes
    assert plan_a.dense_window_bytes == plan_b.dense_window_bytes
    assert plan_a.extra_bytes == plan_b.extra_bytes
    assert plan_a.tail_bytes == plan_b.tail_bytes
    assert plan_a.t_gar_ms == plan_b.t_gar_ms
    assert plan_a.tail_ms == plan_b.tail_ms
    assert [s.degree for s in plan_a.solutions] == [
        s.degree for s in plan_b.solutions
    ]


class TestBatchedStep2:
    """`step2_impl="batch"` and `="scalar"` yield bit-identical plans."""

    @settings(max_examples=15, deadline=None)
    @given(stack=_stacks(), seed=st.integers(0, 50))
    def test_same_seed_same_plan(self, stack, seed):
        layers, _ = stack
        plans = [
            plan_gradient_partition(
                list(layers), AR, seed=seed, de_maxiter=10, step2_impl=impl
            )
            for impl in ("batch", "scalar")
        ]
        _plans_identical(plans[0], plans[1])

    @pytest.mark.parametrize(
        "layers",
        [
            # single layer: everything is tail, Step 2 is a no-op
            [lambda: make_layer()],
            # zero residual: huge dense windows absorb every byte
            [lambda: make_layer(grad_mb=1.0, dense_ms=100.0)] * 3,
            # zero gradients at all
            [lambda: GeneralizedLayer(
                ctx=make_layer().ctx,
                dense_overlappable_ms=1.0,
                grad_bytes=0.0,
            )] * 2,
        ],
        ids=["single-layer", "zero-residual", "zero-grads"],
    )
    def test_degenerate_stacks(self, layers):
        built = [factory() for factory in layers]
        batch = plan_gradient_partition(built, AR, step2_impl="batch")
        scalar = plan_gradient_partition(built, AR, step2_impl="scalar")
        _plans_identical(batch, scalar)

    def test_zero_comm_stack(self):
        """Layers with no communication volume at all still plan."""
        free = LinearPerfModel(alpha=0.0, beta=0.0)
        ctx = PipelineContext(
            a2a=free, n_a2a=0.0, ag=free, n_ag=0.0,
            rs=free, n_rs=0.0, exp=LinearPerfModel(0.1, 1e-9), n_exp=1e9,
        )
        built = [
            GeneralizedLayer(
                ctx=ctx, dense_overlappable_ms=1.0, grad_bytes=20.0 * MB
            )
            for _ in range(3)
        ]
        batch = plan_gradient_partition(built, AR, step2_impl="batch")
        scalar = plan_gradient_partition(built, AR, step2_impl="scalar")
        _plans_identical(batch, scalar)

    def test_unknown_impl_rejected(self):
        with pytest.raises(SolverError, match="unknown Step-2 impl"):
            plan_gradient_partition([make_layer()], AR, step2_impl="turbo")

    def test_step2_counters_measure_batching(self):
        layers = [make_layer(grad_mb=80.0, dense_ms=1.0) for _ in range(4)]
        context = SolverContext()

        before = context.stats
        plan_gradient_partition(
            layers, AR, seed=7, step2_impl="batch", solver_context=context
        )
        batched = context.stats - before
        assert batched.step2_objective_calls > 0
        # a batched pass covers a whole DE population per call
        assert batched.step2_candidates > batched.step2_objective_calls

        before = context.stats
        plan_gradient_partition(
            layers, AR, seed=7, step2_impl="scalar", solver_context=context
        )
        scalar = context.stats - before
        # the scalar path evaluates exactly one candidate per call
        assert scalar.step2_objective_calls == scalar.step2_candidates > 0
        # both paths evaluated the same candidates overall
        assert scalar.step2_candidates == batched.step2_candidates
