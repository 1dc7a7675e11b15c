"""Tests for plan_many: grid fan-out, deduplication, cache replay."""

from __future__ import annotations

import time

import pytest

from repro.errors import ConfigError
from repro.planner import PlanCompiler, ProfileStore, plan_many
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


class TestGrid:
    def test_points_follow_grid_order(
        self, cluster_b, models_b, small_spec
    ):
        specs = sweep_specs(small_spec)
        result = plan_many(
            specs,
            sweep_systems(),
            [cluster_b],
            num_layers=2,
            models_by_cluster={cluster_b: models_b},
        )
        assert len(result) == 12
        names = [p.system_name for p in result.points]
        assert names == ["DS-MoE", "Tutel", "FSMoE"] * 4
        stacks = [p.stack for p in result.points]
        assert stacks[0] == (small_spec,) * 2
        assert all(len(stack) == 2 for stack in stacks)

    def test_rows_are_tidy(self, cluster_b, models_b, small_spec):
        result = plan_many(
            [small_spec],
            [Tutel()],
            [cluster_b],
            models_by_cluster={cluster_b: models_b},
        )
        (row,) = result.rows()
        assert row["cluster"] == cluster_b.name
        assert row["system"] == "Tutel"
        assert row["makespan_ms"] > 0
        assert row["heterogeneous"] is False

    def test_heterogeneous_stack_entry(self, cluster_b, models_b, small_spec):
        stack = [small_spec, small_spec.with_(top_k=1)]
        result = plan_many(
            [stack],
            [FSMoE()],
            [cluster_b],
            models_by_cluster={cluster_b: models_b},
        )
        (point,) = result.points
        assert point.stack == tuple(stack)
        assert point.row()["heterogeneous"] is True

    def test_empty_axes_rejected(self, cluster_b, models_b, small_spec):
        with pytest.raises(ConfigError):
            plan_many([], [Tutel()], [cluster_b])
        with pytest.raises(ConfigError):
            plan_many([small_spec], [], [cluster_b])
        with pytest.raises(ConfigError):
            plan_many([small_spec], [Tutel()], [])
        with pytest.raises(ConfigError):
            plan_many([[]], [Tutel()], [cluster_b])

    def test_non_positive_num_layers_rejected(
        self, cluster_b, models_b, small_spec
    ):
        with pytest.raises(ConfigError):
            plan_many([small_spec], [Tutel()], [cluster_b], num_layers=0)

    def test_same_named_clusters_stay_distinct(self, cluster_b, small_spec):
        """Regression: clusters are keyed by spec, not by display name."""
        from dataclasses import replace

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
        result = plan_many(
            [small_spec], [Tutel()], [cluster_b, slower], num_layers=2
        )
        fast, slow = result.points
        assert fast.cluster is cluster_b and slow.cluster is slower
        assert slow.makespan_ms > fast.makespan_ms
        assert len(result.times_by_config()) == 2

    def test_results_match_sequential_compiler(
        self, cluster_b, models_b, small_spec
    ):
        """The fan-out changes wall-clock, never results."""
        specs = sweep_specs(small_spec)[:2]
        result = plan_many(
            specs,
            [FSMoE()],
            [cluster_b],
            num_layers=2,
            models_by_cluster={cluster_b: models_b},
        )
        compiler = PlanCompiler(cluster_b, models=models_b)
        for point, spec in zip(result.points, specs):
            expected = compiler.iteration_time_ms([spec] * 2, FSMoE())
            assert point.makespan_ms == expected


class TestCacheBehaviour:
    def test_sweep_deduplicates_profiling(self, cluster_b, small_spec):
        """Acceptance: a 12-point grid profiles 1 cluster + 4 layers."""
        store = ProfileStore()
        result = plan_many(
            sweep_specs(small_spec),
            sweep_systems(),
            [cluster_b],
            num_layers=2,
            store=store,
        )
        assert len(result) == 12
        stats = store.stats
        assert stats.cluster_misses == 1
        assert stats.layer_misses == 4
        assert stats.layer_hits > 0

    def test_replanning_same_grid_profiles_nothing(
        self, cluster_b, small_spec
    ):
        """Acceptance: the second sweep is all cache hits."""
        store = ProfileStore()
        specs = sweep_specs(small_spec)
        plan_many(specs, sweep_systems(), [cluster_b], num_layers=2,
                  store=store)
        before = store.stats
        again = plan_many(specs, sweep_systems(), [cluster_b], num_layers=2,
                          store=store)
        delta = store.stats - before
        assert delta.misses == 0
        assert delta.hits >= 12  # every point still consulted the store
        assert len(again) == 12

    def test_cached_sweep_beats_sequential_uncached(
        self, cluster_b, small_spec
    ):
        """Acceptance benchmark: shared-store sweep vs per-point re-profiling.

        The uncached baseline pays the online profiler (a full
        microbenchmark sweep + least-squares fits) for every grid point;
        the batched sweep pays it once.  The margin is large (>5x here),
        so the timing assertion is robust to scheduler jitter.
        """
        specs = sweep_specs(small_spec)
        systems = sweep_systems()

        t0 = time.perf_counter()
        plan_many(specs, systems, [cluster_b], num_layers=2,
                  store=ProfileStore())
        batched_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        for spec in specs:
            for system in systems:
                fresh = PlanCompiler(cluster_b, store=ProfileStore())
                fresh.iteration_time_ms([spec] * 2, system)
        sequential_s = time.perf_counter() - t0

        assert batched_s < sequential_s

    def test_cold_sweep_does_less_work_than_per_point_stores(
        self, cluster_b, small_spec
    ):
        """The work behind the timing above, counted exactly.

        A cold shared store fits fewer cluster and layer profiles and
        solves fewer Algorithm-1 contexts than the per-point stores do
        between them.
        """
        specs = sweep_specs(small_spec)
        systems = sweep_systems()
        shared = ProfileStore()
        plan_many(specs, systems, [cluster_b], num_layers=2, store=shared)

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
