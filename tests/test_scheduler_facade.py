"""Tests for the scheduler's front-end/back-end split (paper §3.2).

The front end profiles the cluster and a layer once; the back end
schedules and simulates anything from those fits. Both are reached
through :class:`~repro.planner.compiler.PlanCompiler`.
"""

import pytest

from repro.errors import ConfigError
from repro.moe.gates import GateKind
from repro.planner import PlanCompiler
from repro.systems import FSMoE, Tutel


@pytest.fixture(scope="module")
def scheduler(cluster_b):
    return PlanCompiler(cluster_b)


class TestFrontEnd:
    def test_default_layout_is_standard(self, scheduler, cluster_b):
        assert scheduler.parallel.n_mp == cluster_b.gpus_per_node
        assert scheduler.parallel.n_ep == cluster_b.num_nodes

    def test_fit_quality_reported(self, scheduler):
        quality = scheduler.fit_quality
        assert set(quality) == {
            "a2a", "allgather", "reducescatter", "allreduce", "gemm"
        }
        assert all(r2 > 0.999 for r2 in quality.values())

    def test_profile_layer(self, scheduler, small_spec):
        profile = scheduler.layer_profile(small_spec)
        assert profile.grad_bytes > 0


class TestBackEnd:
    def test_gate_kind_changes_schedule_inputs(self, scheduler, small_spec):
        gshard = scheduler.layer_profile(small_spec, gate_kind=GateKind.GSHARD)
        ec = scheduler.layer_profile(
            small_spec, gate_kind=GateKind.EXPERT_CHOICE
        )
        assert ec.volumes.a2a_bytes < gshard.volumes.a2a_bytes

    def test_simulate_iteration(self, scheduler, small_spec):
        timeline = scheduler.simulate([small_spec] * 2, FSMoE())
        assert timeline.makespan_ms > 0
        assert set(timeline.streams) == {"compute", "intra", "inter"}

    def test_simulate_iteration_phases(self, scheduler, small_spec):
        fw = scheduler.simulate([small_spec] * 2, Tutel(), phase="forward")
        both = scheduler.simulate([small_spec] * 2, Tutel())
        assert fw.makespan_ms < both.makespan_ms

    def test_rejects_bad_layer_count(self, scheduler):
        with pytest.raises(ConfigError):
            scheduler.simulate([], FSMoE())

    def test_fsmoe_beats_tutel_through_facade(self, scheduler, small_spec):
        t_fsmoe = scheduler.simulate([small_spec] * 2, FSMoE()).makespan_ms
        t_tutel = scheduler.simulate([small_spec] * 2, Tutel()).makespan_ms
        assert t_fsmoe < t_tutel

    def test_best_a2a_algorithm(self, scheduler, small_spec):
        best, costs = scheduler.best_a2a_algorithm(small_spec)
        assert best in costs
        assert len(costs) == 3
        assert all(cost > 0 for cost in costs.values())
        assert costs[best] == min(costs.values())
