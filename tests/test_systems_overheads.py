"""Tests for system-specific overhead modelling paths."""

import pytest

from repro import PlanCompiler, Workspace
from repro.models import GPT2_XL, layer_spec_for
from repro.moe.gates import GateKind
from repro.systems import DeepSpeedMoE, FSMoE
from repro.systems.dsmoe import ROUTING_OVERHEAD


class TestDSMoERoutingOverhead:
    def test_overhead_constant_is_sane(self):
        assert ROUTING_OVERHEAD > 1.0

    def test_dense_time_includes_routing_penalty(self, profile_b, models_b):
        spec = DeepSpeedMoE().build_iteration_spec((profile_b,), models_b)
        penalty = (ROUTING_OVERHEAD - 1.0) * (
            profile_b.gate_ms + profile_b.order_ms
        )
        assert spec.forward[0].dense_ms == pytest.approx(
            profile_b.dense_fw_ms + penalty
        )

    def test_fsmoe_does_not_pay_it(self, profile_b, models_b):
        spec = FSMoE().build_iteration_spec((profile_b,), models_b)
        assert spec.forward[0].dense_ms == pytest.approx(
            profile_b.dense_fw_ms
        )


class TestEvaluateModelOverrides:
    """Routing overheads and gates reach the plan through Workspace.plan."""

    @pytest.fixture
    def stack(self, parallel_b):
        spec = layer_spec_for(
            GPT2_XL, batch_size=1, seq_len=256, num_experts=parallel_b.n_ep
        )
        return [spec] * 2

    def test_routing_overhead_by_system(self, tmp_path, cluster_b, stack):
        workspace = Workspace(tmp_path)
        plain = workspace.plan(stack, DeepSpeedMoE(), cluster_b)
        penalized = workspace.plan(
            stack, DeepSpeedMoE(), cluster_b, routing_overhead=10.0
        )
        assert workspace.stats.plan_misses == 2
        assert penalized.makespan_ms() > plain.makespan_ms()

    def test_override_only_hits_named_system(
        self, tmp_path, cluster_b, models_b, stack
    ):
        workspace = Workspace(tmp_path)
        workspace.plan(
            stack, DeepSpeedMoE(), cluster_b, routing_overhead=10.0
        )
        fsmoe = workspace.plan(stack, FSMoE(), cluster_b)
        baseline = PlanCompiler(cluster_b, models=models_b).iteration_time_ms(
            stack, FSMoE()
        )
        assert fsmoe.makespan_ms() == pytest.approx(baseline)

    def test_gate_kind_flows_through(self, tmp_path, cluster_b, stack):
        workspace = Workspace(tmp_path)
        gshard = workspace.plan(
            stack, FSMoE(), cluster_b, gate_kind=GateKind.GSHARD
        )
        ec = workspace.plan(
            stack, FSMoE(), cluster_b, gate_kind=GateKind.EXPERT_CHOICE
        )
        # expert choice moves less data (f -> 1.0), so it is faster.
        assert ec.makespan_ms() < gshard.makespan_ms()


class TestAnalyticTracksExecutedBroadly:
    def test_forward_consistency_on_profile(self, profile_b, models_b):
        """FSMoE's analytic forward time tracks the executed forward."""
        from repro.core.pipeline_degree import find_optimal_pipeline_degree

        system = FSMoE()
        executed = system.iteration_time_ms(
            (profile_b,), models_b, phase="forward", include_gar=False
        )
        sol = find_optimal_pipeline_degree(profile_b.ctx_fw)
        analytic = sol.time_ms + profile_b.dense_fw_ms
        # dependency-exact DES vs head/tail-approximate closed form
        assert executed == pytest.approx(analytic, rel=0.35)