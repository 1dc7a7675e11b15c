"""Batch planning through Workspace: grid fan-out, deduplication, replay."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import ExperimentSpec, PlanRequest, StackSpec, Workspace
from repro.errors import ConfigError
from repro.planner import PlanCompiler, ProfileStore
from repro.systems import DeepSpeedMoE, FSMoE, Tutel


def sweep_specs(small_spec):
    """A 4-spec axis; x3 systems = a 12-point grid on one cluster."""
    return [
        small_spec,
        small_spec.with_(batch_size=1),
        small_spec.with_(seq_len=256),
        small_spec.with_(top_k=1),
    ]


def sweep_systems():
    return [DeepSpeedMoE(), Tutel(), FSMoE()]


def grid(specs, systems=("dsmoe", "tutel", "fsmoe"), num_layers=2):
    """Testbed B x ``specs`` x ``systems``, each spec replicated."""
    return ExperimentSpec(
        clusters=("B",),
        systems=systems,
        stacks=tuple(
            StackSpec.of(spec, num_layers=num_layers) for spec in specs
        ),
    )


class TestGrid:
    def test_points_follow_grid_order(self, tmp_path, small_spec):
        specs = sweep_specs(small_spec)
        result = Workspace(tmp_path).sweep(grid(specs))
        assert len(result) == 12
        names = [p.system_name for p in result.points]
        assert names == ["DS-MoE", "Tutel", "FSMoE"] * 4
        stacks = [p.stack for p in result.points]
        assert stacks[0] == (small_spec,) * 2
        assert all(len(stack) == 2 for stack in stacks)

    def test_rows_are_tidy(self, tmp_path, cluster_b, small_spec):
        result = Workspace(tmp_path).sweep(
            grid([small_spec], systems=("tutel",), num_layers=1)
        )
        (row,) = result.rows()
        assert row["cluster"] == cluster_b.name
        assert row["system"] == "Tutel"
        assert row["makespan_ms"] > 0
        assert row["heterogeneous"] is False

    def test_heterogeneous_stack_entry(self, tmp_path, small_spec):
        stack = (small_spec, small_spec.with_(top_k=1))
        result = Workspace(tmp_path).sweep(
            ExperimentSpec(
                clusters=("B",),
                systems=("fsmoe",),
                stacks=(StackSpec(layers=stack),),
            )
        )
        (point,) = result.points
        assert point.stack == stack
        assert point.row()["heterogeneous"] is True

    def test_empty_axes_rejected(self, small_spec):
        stacks = (StackSpec.of(small_spec),)
        with pytest.raises(ConfigError):
            ExperimentSpec(clusters=("B",), systems=("tutel",), stacks=())
        with pytest.raises(ConfigError):
            ExperimentSpec(clusters=("B",), systems=(), stacks=stacks)
        with pytest.raises(ConfigError):
            ExperimentSpec(clusters=(), systems=("tutel",), stacks=stacks)
        with pytest.raises(ConfigError):
            StackSpec(layers=())

    def test_non_positive_num_layers_rejected(self, small_spec):
        with pytest.raises(ConfigError):
            StackSpec.of(small_spec, num_layers=0)

    def test_same_named_clusters_stay_distinct(
        self, tmp_path, cluster_b, small_spec
    ):
        """Regression: clusters are keyed by spec, not by display name."""
        slower = replace(
            cluster_b,
            inter_link=replace(
                cluster_b.inter_link,
                bandwidth_bytes_per_ms=(
                    cluster_b.inter_link.bandwidth_bytes_per_ms / 4
                ),
            ),
        )
        assert slower.name == cluster_b.name
        workspace = Workspace(tmp_path)
        stack = [small_spec] * 2
        assert PlanRequest(stack, Tutel(), cluster_b).digest != (
            PlanRequest(stack, Tutel(), slower).digest
        )
        fast = workspace.plan(stack, Tutel(), cluster_b)
        slow = workspace.plan(stack, Tutel(), slower)
        assert workspace.stats.plan_misses == 2
        assert slow.makespan_ms() > fast.makespan_ms()

    def test_results_match_sequential_compiler(
        self, tmp_path, cluster_b, models_b, small_spec
    ):
        """The fan-out changes wall-clock, never results."""
        specs = sweep_specs(small_spec)[:2]
        result = Workspace(tmp_path).sweep(grid(specs, systems=("fsmoe",)))
        compiler = PlanCompiler(cluster_b, models=models_b)
        for point, spec in zip(result.points, specs):
            expected = compiler.iteration_time_ms([spec] * 2, FSMoE())
            assert point.makespan_ms == expected


class TestCacheBehaviour:
    def test_sweep_deduplicates_profiling(self, tmp_path, small_spec):
        """Acceptance: a 12-point grid profiles 1 cluster + 4 layers."""
        workspace = Workspace(tmp_path)
        result = workspace.sweep(grid(sweep_specs(small_spec)))
        assert len(result) == 12
        stats = workspace.stats.profiles
        assert stats.cluster_misses == 1
        assert stats.layer_misses == 4
        assert stats.layer_hits > 0

    def test_replanning_same_grid_profiles_nothing(
        self, tmp_path, small_spec
    ):
        """Acceptance: the second sweep is all cache hits."""
        workspace = Workspace(tmp_path)
        spec = grid(sweep_specs(small_spec))
        workspace.sweep(spec)
        before = workspace.stats
        again = workspace.sweep(spec)
        delta = workspace.stats.since(before)
        assert delta.profiles.misses == 0
        assert delta.plan_misses == 0
        assert delta.plan_hits == 12
        assert len(again) == 12

    def test_cold_sweep_does_less_work_than_per_point_stores(
        self, tmp_path, cluster_b, small_spec
    ):
        """A cold shared sweep against per-point stores, counted exactly.

        A cold workspace fits fewer cluster and layer profiles and
        solves fewer Algorithm-1 contexts than the per-point stores do
        between them.
        """
        specs = sweep_specs(small_spec)
        systems = sweep_systems()
        workspace = Workspace(tmp_path)
        workspace.sweep(grid(specs))
        shared = workspace.store

        fresh_stores = []
        for spec in specs:
            for system in systems:
                fresh = ProfileStore()
                PlanCompiler(cluster_b, store=fresh).iteration_time_ms(
                    [spec] * 2, system
                )
                fresh_stores.append(fresh)

        def total(work):
            return sum(work(store) for store in fresh_stores)

        assert shared.stats.cluster_misses < total(
            lambda s: s.stats.cluster_misses
        )
        assert shared.stats.layer_misses < total(
            lambda s: s.stats.layer_misses
        )
        assert shared.solver_context.stats.solves < total(
            lambda s: s.solver_context.stats.solves
        )
