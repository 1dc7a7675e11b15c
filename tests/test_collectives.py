"""Unit tests for repro.parallel.collectives cost models."""

import pytest

from repro.errors import TopologyError
from repro.parallel import topology
from repro.parallel.collectives import A2AAlgorithm, CollectiveCostModel
from repro.units import MB


@pytest.fixture(params=["A", "B"], name="oracle")
def oracle_fixture(request):
    cluster = (
        topology.testbed_a() if request.param == "A" else topology.testbed_b()
    )
    return CollectiveCostModel(cluster)


class TestBasics:
    def test_zero_bytes_cost_nothing(self, oracle):
        assert oracle.allgather_ms(0, 4) == 0.0
        assert oracle.reducescatter_ms(0, 4) == 0.0
        assert oracle.allreduce_ms(0, 8) == 0.0
        assert oracle.alltoall_ms(0, 8) == 0.0
        assert oracle.gemm_ms(0) == 0.0

    def test_group_of_one_costs_nothing(self, oracle):
        assert oracle.allgather_ms(MB, 1) == 0.0
        assert oracle.allreduce_ms(MB, 1) == 0.0
        assert oracle.alltoall_ms(MB, 1) == 0.0

    def test_monotone_in_bytes(self, oracle):
        for fn in (
            lambda n: oracle.allgather_ms(n, 4),
            lambda n: oracle.reducescatter_ms(n, 4),
            lambda n: oracle.allreduce_ms(n, 8),
            lambda n: oracle.alltoall_ms(n, 8),
        ):
            assert fn(2 * MB) > fn(MB) > 0

    def test_allgather_reducescatter_symmetric(self, oracle):
        assert oracle.allgather_ms(MB, 4) == pytest.approx(
            oracle.reducescatter_ms(MB, 4)
        )

    def test_allreduce_is_two_phases(self, oracle):
        # ring AllReduce == ReduceScatter + AllGather on the same fabric
        # modulo bandwidth efficiency and link choice; check scaling shape.
        t1 = oracle.allreduce_ms(MB, 8)
        t2 = oracle.allreduce_ms(2 * MB, 8)
        alpha = 2 * oracle.inter_link.startup_ms
        assert t2 - alpha == pytest.approx(2 * (t1 - alpha))

    def test_gemm_launch_per_kernel(self, oracle):
        one = oracle.gemm_ms(1e9, num_gemms=1)
        two = oracle.gemm_ms(1e9, num_gemms=2)
        launch = oracle.cluster.node.gpu.gemm_launch_ms
        assert two - one == pytest.approx(launch)

    def test_gemm_rejects_negative(self, oracle):
        with pytest.raises(TopologyError):
            oracle.gemm_ms(-1)


class TestNICSharing:
    def test_default_share_is_node_width(self):
        cluster = topology.testbed_b()
        shared = CollectiveCostModel(cluster)
        exclusive = CollectiveCostModel(cluster, nic_concurrency=1)
        assert shared.alltoall_ms(MB, 8) > exclusive.alltoall_ms(MB, 8)

    def test_rejects_bad_concurrency(self):
        with pytest.raises(TopologyError):
            CollectiveCostModel(topology.testbed_b(), nic_concurrency=0)


class TestA2AAlgorithms:
    def test_all_algorithms_positive(self, oracle):
        for algo in A2AAlgorithm:
            assert oracle.alltoall_ms(4 * MB, 8, algo) > 0

    def test_hierarchical_pays_staging_for_large_messages(self, oracle):
        direct = oracle.alltoall_ms(64 * MB, 8, A2AAlgorithm.NCCL)
        two_d = oracle.alltoall_ms(64 * MB, 8, A2AAlgorithm.HIER_2D)
        assert two_d > direct

    def test_efficiency_slows_a2a(self):
        fast = topology.testbed_b()
        slow = CollectiveCostModel(
            type(fast)(
                name=fast.name,
                node=fast.node,
                num_nodes=fast.num_nodes,
                inter_link=fast.inter_link,
                a2a_efficiency=fast.a2a_efficiency / 2,
                allreduce_efficiency=fast.allreduce_efficiency,
            )
        )
        base = CollectiveCostModel(fast)
        assert slow.alltoall_ms(MB, 8) > base.alltoall_ms(MB, 8)
