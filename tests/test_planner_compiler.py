"""Tests for PlanCompiler: cached front-end, heterogeneous back-end."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.moe.gates import GateKind
from repro.parallel.collectives import A2AAlgorithm, CollectiveCostModel
from repro.planner import PlanCompiler, ProfileStore
from repro.systems import FSMoE, Tutel


@pytest.fixture(scope="module")
def compiler(cluster_b):
    return PlanCompiler(cluster_b)


class TestFrontEnd:
    def test_default_layout_is_standard(self, compiler, cluster_b):
        assert compiler.parallel.n_mp == cluster_b.gpus_per_node
        assert compiler.parallel.n_ep == cluster_b.num_nodes

    def test_profiling_is_cached(self, cluster_b, small_spec):
        store = ProfileStore()
        compiler = PlanCompiler(cluster_b, store=store)
        compiler.layer_profile(small_spec)
        compiler.layer_profile(small_spec)
        assert store.stats.cluster_misses == 1
        assert store.stats.layer_misses == 1
        assert store.stats.layer_hits == 1

    def test_solver_state_lives_in_the_store(self, cluster_b, small_spec):
        store = ProfileStore()
        stack = [small_spec, small_spec]
        PlanCompiler(cluster_b, store=store).compile(stack, FSMoE())
        first = store.solver_context.stats
        assert first.solves > 0
        # a second compiler on the same store re-solves nothing
        PlanCompiler(cluster_b, store=store).compile(stack, FSMoE())
        second = store.solver_context.stats
        assert second.solves == first.solves
        assert second.cache_hits > first.cache_hits

    def test_injected_models_skip_profiling(
        self, cluster_b, models_b, small_spec
    ):
        store = ProfileStore()
        compiler = PlanCompiler(cluster_b, store=store, models=models_b)
        assert compiler.models is models_b
        compiler.layer_profile(small_spec)
        assert store.stats.cluster_misses == 0
        with pytest.raises(ConfigError):
            compiler.fit_quality

    def test_fit_quality_from_profiling_run(self, compiler):
        quality = compiler.fit_quality
        assert set(quality) == {
            "a2a", "allgather", "reducescatter", "allreduce", "gemm"
        }
        assert all(r2 > 0.999 for r2 in quality.values())


class TestStacks:
    def test_single_spec_is_one_layer(self, compiler, small_spec):
        profiles = compiler.resolve_stack(small_spec)
        assert len(profiles) == 1

    def test_per_layer_gate_kinds(self, compiler, small_spec):
        profiles = compiler.resolve_stack(
            [small_spec, small_spec],
            gate_kind=[GateKind.GSHARD, GateKind.EXPERT_CHOICE],
        )
        # expert-choice fills experts exactly -> different a2a volume.
        assert profiles[0].volumes.a2a_bytes != profiles[1].volumes.a2a_bytes

    def test_empty_stack_rejected(self, compiler):
        with pytest.raises(ConfigError):
            compiler.resolve_stack([])

    def test_gate_kind_length_mismatch_rejected(self, compiler, small_spec):
        with pytest.raises(ConfigError):
            compiler.resolve_stack(
                [small_spec, small_spec], gate_kind=[GateKind.GSHARD]
            )

    def test_fsmoe_beats_tutel_through_compiler(self, compiler, small_spec):
        stack = [small_spec, small_spec]
        t_fsmoe = compiler.iteration_time_ms(stack, FSMoE())
        t_tutel = compiler.iteration_time_ms(stack, Tutel())
        assert t_fsmoe < t_tutel

    def test_system_compile_plan_hook_matches_compiler(
        self, compiler, small_spec
    ):
        profiles = compiler.resolve_stack([small_spec, small_spec])
        via_system = FSMoE().compile_plan(profiles, compiler.models)
        via_compiler = compiler.compile([small_spec, small_spec], FSMoE())
        assert via_system == via_compiler


class TestBestA2AAlgorithm:
    def test_winner_matches_cost_table_minimum(
        self, compiler, cluster_b, small_spec
    ):
        """Regression: the pick must be the argmin of the oracle costs."""
        from repro.parallel.volumes import compute_layer_volumes

        best, costs = compiler.best_a2a_algorithm(small_spec)
        assert set(costs) == set(A2AAlgorithm)
        assert costs[best] == min(costs.values())

        # independently recompute the table from the collective oracle.
        volumes = compute_layer_volumes(small_spec, compiler.parallel)
        oracle = CollectiveCostModel(cluster_b)
        expected = {
            algo: oracle.alltoall_ms(
                volumes.a2a_bytes, compiler.parallel.n_ep, algo
            )
            for algo in A2AAlgorithm
        }
        assert costs == expected
        assert best == min(expected, key=expected.get)

    def test_cost_table_cached_per_message_size(self, cluster_b, small_spec):
        compiler = PlanCompiler(cluster_b)
        compiler.best_a2a_algorithm(small_spec)
        # same AlltoAll bytes (num_heads does not change dispatch volume)
        # -> same cache entry; different seq_len -> new entry.
        compiler.best_a2a_algorithm(small_spec.with_(num_heads=8))
        assert len(compiler._a2a_costs) == 1
        compiler.best_a2a_algorithm(small_spec.with_(seq_len=1024))
        assert len(compiler._a2a_costs) == 2

    def test_returned_table_is_a_copy(self, compiler, small_spec):
        _, costs = compiler.best_a2a_algorithm(small_spec)
        costs[A2AAlgorithm.NCCL] = -1.0
        _, fresh = compiler.best_a2a_algorithm(small_spec)
        assert fresh[A2AAlgorithm.NCCL] > 0
