"""Robustness: FSMoE's decisions survive noisy profiling (paper §3.2).

The scheduler only ever sees fitted models; these tests inject realistic
and extreme measurement noise into the profiling pass and check that the
decisions (pipeline degrees, system ranking) stay sound -- the property
that makes online profiling viable on real, jittery clusters.
"""

import pytest

from repro import MoELayerSpec, standard_layout
from repro.parallel import topology
from repro.core.pipeline_degree import find_optimal_pipeline_degree
from repro.core.profiler import profile_cluster
from repro.models import profile_layer
from repro.systems import FSMoE, Tutel


@pytest.fixture(scope="module")
def noisy_setup():
    cluster = topology.testbed_b()
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    exact = profile_cluster(cluster, parallel).models
    noisy = profile_cluster(cluster, parallel, noise=0.05, seed=42).models
    spec = MoELayerSpec(
        batch_size=2,
        seq_len=512,
        embed_dim=2048,
        hidden_scale=3,
        num_experts=parallel.n_ep,
        top_k=2,
        capacity_factor=1.2,
        num_heads=16,
    )
    return parallel, exact, noisy, spec


class TestNoisyProfiles:
    def test_fitted_models_stay_close(self, noisy_setup):
        _, exact, noisy, _ = noisy_setup
        probe = 8 * 2**20
        for name in ("a2a", "allgather", "reducescatter", "allreduce"):
            exact_t = getattr(exact, name).time_ms(probe)
            noisy_t = getattr(noisy, name).time_ms(probe)
            assert noisy_t == pytest.approx(exact_t, rel=0.1), name

    def test_degree_decision_stable_under_noise(self, noisy_setup):
        parallel, exact, noisy, spec = noisy_setup
        exact_profile = profile_layer(spec, parallel, exact)
        noisy_profile = profile_layer(spec, parallel, noisy)
        r_exact = find_optimal_pipeline_degree(exact_profile.ctx_fw).degree
        r_noisy = find_optimal_pipeline_degree(noisy_profile.ctx_fw).degree
        assert abs(r_exact - r_noisy) <= 2

    def test_ranking_survives_noise(self, noisy_setup):
        parallel, _, noisy, spec = noisy_setup
        profile = profile_layer(spec, parallel, noisy)
        profiles = [profile, profile]
        t_fsmoe = FSMoE().iteration_time_ms(profiles, noisy)
        t_tutel = Tutel().iteration_time_ms(profiles, noisy)
        assert t_fsmoe < t_tutel

    def test_decision_quality_degrades_gracefully(self, noisy_setup):
        """Degrees chosen from noisy models, evaluated on exact times.

        The cost of scheduling with a 5%-noisy profile must be small --
        within a few percent of scheduling with the exact profile.
        """
        parallel, exact, noisy, spec = noisy_setup
        exact_profile = profile_layer(spec, parallel, exact)
        noisy_profile = profile_layer(spec, parallel, noisy)

        from repro.core.cases import analytic_time

        r_exact = find_optimal_pipeline_degree(exact_profile.ctx_bw).degree
        r_noisy = find_optimal_pipeline_degree(noisy_profile.ctx_bw).degree
        # evaluate both degrees under the exact model
        t_with_exact_r = analytic_time(exact_profile.ctx_bw, float(r_exact))
        t_with_noisy_r = analytic_time(exact_profile.ctx_bw, float(r_noisy))
        assert t_with_noisy_r <= t_with_exact_r * 1.05