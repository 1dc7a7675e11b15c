"""Unit tests for the online profiler (paper §3.2 / §6.2 / Fig. 5)."""

import pytest

from repro.config import standard_layout
from repro.core.profiler import profile_cluster
from repro.parallel.collectives import A2AAlgorithm, CollectiveCostModel
from repro.parallel import topology


class TestNoiseFreeFit:
    @pytest.mark.parametrize(
        "factory", [topology.testbed_a, topology.testbed_b]
    )
    def test_recovers_oracle_exactly(self, factory):
        cluster = factory()
        parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
        result = profile_cluster(cluster, parallel)
        oracle = CollectiveCostModel(cluster)
        probe = 4 * 2**20  # 4 MiB
        assert result.models.a2a.time_ms(probe) == pytest.approx(
            oracle.alltoall_ms(probe, parallel.n_ep), rel=1e-6
        )
        assert result.models.allreduce.time_ms(probe) == pytest.approx(
            oracle.allreduce_ms(probe, parallel.n_dp), rel=1e-6
        )
        assert result.models.allgather.time_ms(probe) == pytest.approx(
            oracle.allgather_ms(probe, parallel.n_esp), rel=1e-6
        )

    def test_r_squared_is_one_without_noise(self):
        cluster = topology.testbed_b()
        parallel = standard_layout(32, 4)
        result = profile_cluster(cluster, parallel)
        for name, r2 in result.r_squared.items():
            assert r2 == pytest.approx(1.0), name


class TestNoisyFit:
    def test_fig5_quality_r2(self):
        """Paper Fig. 5: r-squared >= 0.998 for comm, 0.9987 for GEMM."""
        cluster = topology.testbed_b()
        parallel = standard_layout(32, 4)
        result = profile_cluster(cluster, parallel, noise=0.02, seed=7)
        for name, r2 in result.r_squared.items():
            assert r2 > 0.99, (name, r2)

    def test_seed_determinism(self):
        cluster = topology.testbed_a()
        parallel = standard_layout(48, 8)
        r1 = profile_cluster(cluster, parallel, noise=0.05, seed=3)
        r2 = profile_cluster(cluster, parallel, noise=0.05, seed=3)
        assert r1.models.a2a == r2.models.a2a
        r3 = profile_cluster(cluster, parallel, noise=0.05, seed=4)
        assert r1.models.a2a != r3.models.a2a

    def test_samples_recorded_per_op(self):
        cluster = topology.testbed_b()
        parallel = standard_layout(32, 4)
        result = profile_cluster(cluster, parallel)
        assert set(result.samples) == {
            "a2a", "allgather", "reducescatter", "allreduce", "gemm"
        }
        sizes, times = result.samples["a2a"]
        assert len(sizes) == len(times) == 24  # paper sweep length


class TestAlgorithmChoice:
    def test_profiles_selected_a2a_algorithm(self):
        cluster = topology.testbed_b()
        parallel = standard_layout(32, 4)
        direct = profile_cluster(cluster, parallel, a2a_algorithm=A2AAlgorithm.NCCL)
        hier = profile_cluster(
            cluster, parallel, a2a_algorithm=A2AAlgorithm.HIER_2D
        )
        probe = 8 * 2**20
        assert hier.models.a2a.time_ms(probe) > direct.models.a2a.time_ms(probe)
