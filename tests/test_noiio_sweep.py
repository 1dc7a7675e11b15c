"""The merged-comm degree sweep pinned against the simulate-per-degree path."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MoELayerSpec, SolverError
from repro.core.constraints import PipelineContext
from repro.core.fastsolve import (
    merged_iteration_times,
    merged_phase_times,
    solve_merged_phase_degree,
)
from repro.core.perf_model import LinearPerfModel
from repro.core.schedules import (
    TWO_STREAM,
    GarMode,
    IterationSpec,
    LayerPhaseSchedule,
    build_iteration_graph,
)
from repro.models import profile_layer
from repro.sim.engine import simulate
from repro.systems.fsmoe import FSMoENoIIO, sweep_merged_phase_degree
from repro.systems.tutel import Tutel, _pipemoe_spec, sweep_oracle_degree

from .helpers import pipeline_contexts
from .oracles.sweeps import merged_phase_degree_sim, oracle_degree_sim

R_MAX = 8
#: the systems' default degree bound, the shape every cold compile sweeps.
PRODUCTION_R_MAX = 16


def _sim_phase_time(ctxs, dense_ms, r, phase):
    """Reference: event-simulate one merged-comm phase at one degree."""
    layers = tuple(
        LayerPhaseSchedule(ctx=ctx, degree=r, dense_ms=dense)
        for ctx, dense in zip(ctxs, dense_ms)
    )
    spec = IterationSpec(
        name="noiio-ref",
        forward=layers,
        backward=layers,
        grad_bytes=tuple(0.0 for _ in ctxs),
        ar_model=LinearPerfModel(0.01, 1e-9),
        streams=TWO_STREAM,
        gar_mode=GarMode.END,
    )
    return simulate(build_iteration_graph(spec, phase=phase)).makespan_ms


def _exec_order(ctxs, dense_ms, phase):
    if phase == "forward":
        return list(ctxs), list(dense_ms), True
    return list(reversed(ctxs)), list(reversed(dense_ms)), False


class TestMergedPhaseTimes:
    @settings(max_examples=40, deadline=None)
    @given(
        ctxs=st.lists(pipeline_contexts(), min_size=1, max_size=3),
        denses=st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
        phase=st.sampled_from(["forward", "backward"]),
    )
    def test_bit_identical_to_simulator(self, ctxs, denses, phase):
        denses = denses[: len(ctxs)]
        exec_ctxs, exec_dense, dense_first = _exec_order(
            ctxs, denses, phase
        )
        times = merged_phase_times(
            exec_ctxs, exec_dense, R_MAX, dense_first=dense_first
        )
        for r in range(1, R_MAX + 1):
            assert times[r - 1] == _sim_phase_time(ctxs, denses, r, phase)

    @settings(max_examples=30, deadline=None)
    @given(
        ctxs=st.lists(pipeline_contexts(), min_size=1, max_size=4),
        denses=st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
        phase=st.sampled_from(["forward", "backward"]),
    )
    def test_bit_identical_to_simulator_at_production_shape(
        self, ctxs, denses, phase
    ):
        denses = denses[: len(ctxs)]
        exec_ctxs, exec_dense, dense_first = _exec_order(
            ctxs, denses, phase
        )
        times = merged_phase_times(
            exec_ctxs, exec_dense, PRODUCTION_R_MAX, dense_first=dense_first
        )
        for r in range(1, PRODUCTION_R_MAX + 1):
            assert times[r - 1] == _sim_phase_time(ctxs, denses, r, phase)

    @settings(max_examples=15, deadline=None)
    @given(
        ctxs=st.lists(pipeline_contexts(), min_size=1, max_size=3),
        denses=st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
    )
    def test_start_composes_phases(self, ctxs, denses):
        """Forward then backward entered at its finish is the iteration."""
        denses = denses[: len(ctxs)]
        forward_end = merged_phase_times(ctxs, denses, PRODUCTION_R_MAX)
        composed = merged_phase_times(
            ctxs[::-1], denses[::-1], PRODUCTION_R_MAX,
            dense_first=False, start=forward_end,
        )
        iteration = merged_iteration_times(
            ctxs, denses, ctxs, denses, (), PRODUCTION_R_MAX
        )
        assert np.array_equal(composed, iteration)
        for r in range(1, PRODUCTION_R_MAX + 1):
            assert composed[r - 1] == _sim_phase_time(ctxs, denses, r, "both")

    @pytest.mark.parametrize("start", [None, np.linspace(0.0, 3.0, 16)])
    def test_returns_float64_array_of_r_max(self, start):
        ctx = PipelineContext(
            a2a=LinearPerfModel(0.1, 1e-6), n_a2a=1e6,
            ag=LinearPerfModel(0.1, 1e-6), n_ag=1e5,
            rs=LinearPerfModel(0.1, 1e-6), n_rs=1e5,
            exp=LinearPerfModel(0.1, 1e-9), n_exp=1e8,
        )
        for ctxs in ([], [ctx], [ctx] * 3):
            times = merged_phase_times(
                ctxs, [0.5] * len(ctxs), PRODUCTION_R_MAX, start=start
            )
            assert isinstance(times, np.ndarray)
            assert times.dtype == np.float64
            assert times.shape == (PRODUCTION_R_MAX,)

    def test_degenerate_zero_volume_ops(self):
        """Zero-size ops (0 ms tasks) hit the engine's tie-breaking."""
        zero = LinearPerfModel(alpha=0.0, beta=1e-6)
        some = LinearPerfModel(alpha=0.1, beta=1e-6)
        cases = [
            # no expert compute at all
            PipelineContext(a2a=some, n_a2a=1e6, ag=some, n_ag=1e5,
                            rs=some, n_rs=1e5, exp=zero, n_exp=0.0),
            # no intra-node traffic
            PipelineContext(a2a=some, n_a2a=1e6, ag=some, n_ag=0.0,
                            rs=some, n_rs=0.0, exp=some, n_exp=1e8),
            # free AlltoAll
            PipelineContext(a2a=zero, n_a2a=0.0, ag=some, n_ag=1e5,
                            rs=some, n_rs=1e5, exp=some, n_exp=1e8),
            # everything free
            PipelineContext(a2a=zero, n_a2a=0.0, ag=zero, n_ag=0.0,
                            rs=zero, n_rs=0.0, exp=zero, n_exp=0.0),
        ]
        for ctx, phase, dense, r_max in itertools.product(
            cases, ("forward", "backward"), (0.0, 0.5),
            (R_MAX, PRODUCTION_R_MAX),
        ):
            ctxs, denses = [ctx, ctx], [dense, dense]
            exec_ctxs, exec_dense, dense_first = _exec_order(
                ctxs, denses, phase
            )
            times = merged_phase_times(
                exec_ctxs, exec_dense, r_max, dense_first=dense_first
            )
            for r in range(1, r_max + 1):
                assert times[r - 1] == _sim_phase_time(
                    ctxs, denses, r, phase
                )

    def test_input_validation(self):
        ctx = PipelineContext(
            a2a=LinearPerfModel(0.1, 1e-6), n_a2a=1e6,
            ag=LinearPerfModel(0.1, 1e-6), n_ag=1e5,
            rs=LinearPerfModel(0.1, 1e-6), n_rs=1e5,
            exp=LinearPerfModel(0.1, 1e-9), n_exp=1e8,
        )
        with pytest.raises(SolverError):
            merged_phase_times([ctx], [0.0], 0)
        with pytest.raises(SolverError):
            merged_phase_times([ctx, ctx], [0.0], 4)

    def test_empty_stack_is_zero(self):
        assert np.all(merged_phase_times([], [], 4) == 0.0)


class TestMergedDegreeChoice:
    @settings(max_examples=25, deadline=None)
    @given(
        ctxs=st.lists(pipeline_contexts(), min_size=1, max_size=2),
        phase=st.sampled_from(["forward", "backward"]),
    )
    def test_matches_scalar_sweep_tie_break(self, ctxs, phase):
        """Degree choice equals the ascending sweep with tolerance."""
        denses = [0.4] * len(ctxs)
        exec_ctxs, exec_dense, dense_first = _exec_order(
            ctxs, denses, phase
        )
        degree, time_ms = solve_merged_phase_degree(
            exec_ctxs, exec_dense, R_MAX, dense_first=dense_first
        )
        best_r, best_t = 1, float("inf")
        for r in range(1, R_MAX + 1):
            t = _sim_phase_time(ctxs, denses, r, phase)
            if t < best_t - 1e-12:
                best_t, best_r = t, r
        assert degree == best_r
        assert time_ms == best_t


class TestNoIIOSystemPinned:
    def test_degree_picker_equals_sim_reference(
        self, profile_b, models_b, parallel_b
    ):
        """The production picker matches the simulate-per-degree oracle."""
        hetero_spec = MoELayerSpec(
            batch_size=2, seq_len=1024, embed_dim=2048,
            num_experts=parallel_b.n_ep, num_heads=16,
        )
        other = profile_layer(hetero_spec, parallel_b, models_b)
        stacks = [
            (profile_b,),
            (profile_b,) * 4,
            (profile_b, other, profile_b),
            (other, other),
        ]
        for stack in stacks:
            for phase in ("forward", "backward"):
                for r_max in (1, 4, 16):
                    assert sweep_merged_phase_degree(
                        stack, r_max, phase
                    ) == merged_phase_degree_sim(
                        stack, models_b, r_max, phase
                    )

    def test_noiio_plan_unchanged(self, profile_b, models_b):
        """End to end: FSMoENoIIO's compiled spec still uses swept degrees."""
        system = FSMoENoIIO(solver="slsqp")
        profiles = (profile_b,) * 3
        spec = system.build_iteration_spec(profiles, models_b)
        fw_ref = merged_phase_degree_sim(
            profiles, models_b, system.r_max, "forward"
        )
        assert {layer.degree for layer in spec.forward} == {fw_ref}


class TestTutelOraclePinned:
    def test_iteration_times_match_simulator(
        self, profile_b, models_b, parallel_b
    ):
        """merged_iteration_times == simulated fw+bw+GAR-tail makespans."""
        hetero_spec = MoELayerSpec(
            batch_size=2, seq_len=1024, embed_dim=2048,
            num_experts=parallel_b.n_ep, num_heads=16,
        )
        other = profile_layer(hetero_spec, parallel_b, models_b)
        for stack in [(profile_b,), (profile_b, other), (other,) * 4]:
            for include_gar in (True, False):
                times = merged_iteration_times(
                    [p.ctx_fw for p in stack],
                    [p.dense_fw_ms for p in stack],
                    [p.ctx_bw for p in stack],
                    [p.dense_bw_ms for p in stack],
                    [
                        models_b.allreduce.time_ms(p.grad_bytes)
                        if include_gar
                        else 0.0
                        for p in stack
                    ],
                    R_MAX,
                )
                for r in range(1, R_MAX + 1):
                    spec = _pipemoe_spec(
                        stack, models_b, r, GarMode.END, include_gar,
                        name="ref",
                    )
                    ref = simulate(
                        build_iteration_graph(spec)
                    ).makespan_ms
                    assert times[r - 1] == ref

    def test_oracle_degree_equals_sim_reference(
        self, profile_b, models_b
    ):
        for stack in [(profile_b,), (profile_b,) * 5]:
            for include_gar in (True, False):
                for r_max in (1, 4, 16):
                    assert sweep_oracle_degree(
                        stack, models_b, r_max, include_gar
                    ) == oracle_degree_sim(
                        stack, models_b, r_max, include_gar
                    )

    def test_tutel_spec_uses_swept_degree(self, profile_b, models_b):
        system = Tutel()
        profiles = (profile_b,) * 2
        spec = system.build_iteration_spec(profiles, models_b)
        ref = oracle_degree_sim(profiles, models_b, system.r_max, True)
        assert {layer.degree for layer in spec.forward} == {ref}
        assert {layer.degree for layer in spec.backward} == {ref}
