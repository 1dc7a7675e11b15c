"""Unit tests for repro.parallel.topology."""

import pytest

from repro.errors import TopologyError
from repro.parallel import topology
from repro.parallel.topology import TESTBEDS, LinkSpec


class TestLinkSpec:
    def test_transfer_linear(self):
        link = LinkSpec(name="l", bandwidth_bytes_per_ms=1000.0, startup_ms=0.5)
        assert link.transfer_ms(0) == 0.0
        assert link.transfer_ms(1000) == pytest.approx(1.5)
        assert link.transfer_ms(2000) == pytest.approx(2.5)

    def test_transfer_rejects_negative(self):
        link = LinkSpec(name="l", bandwidth_bytes_per_ms=1000.0, startup_ms=0.5)
        with pytest.raises(TopologyError):
            link.transfer_ms(-1)


class TestTestbeds:
    def test_testbed_a_matches_paper_table3(self):
        a = topology.testbed_a()
        assert a.num_nodes == 6
        assert a.gpus_per_node == 8
        assert a.total_gpus == 48
        assert "A6000" in a.node.gpu.name

    def test_testbed_b_matches_paper_table3(self):
        b = topology.testbed_b()
        assert b.num_nodes == 8
        assert b.gpus_per_node == 4
        assert b.total_gpus == 32
        assert "2080" in b.node.gpu.name

    def test_startup_latencies_from_fig5(self):
        # Fig. 5 fitted alphas at the training EP group: base startup plus
        # one per-peer message latency per peer.
        a = topology.testbed_a()
        alpha_a = a.inter_link.startup_ms + a.a2a_per_peer_ms * (
            a.num_nodes - 1
        )
        assert alpha_a == pytest.approx(0.28)  # paper: 2.87e-1
        b = topology.testbed_b()
        alpha_b = b.inter_link.startup_ms + b.a2a_per_peer_ms * (
            b.num_nodes - 1
        )
        assert alpha_b == pytest.approx(0.175)  # paper: 1.75e-1

    def test_registry(self):
        assert set(TESTBEDS) == {"A", "B"}
        assert TESTBEDS["A"]().name == "Testbed-A"

    def test_efficiencies_within_unit(self):
        for cluster in (topology.testbed_a(), topology.testbed_b()):
            assert 0 < cluster.a2a_efficiency <= 1
            assert 0 < cluster.allreduce_efficiency <= 1


class TestScaledTo:
    def test_whole_nodes(self):
        a = topology.testbed_a()
        small = a.scaled_to(16)
        assert small.num_nodes == 2
        assert small.total_gpus == 16
        assert small.inter_link == a.inter_link
        assert small.a2a_efficiency == a.a2a_efficiency

    def test_rejects_partial_node(self):
        with pytest.raises(TopologyError):
            topology.testbed_a().scaled_to(12)

    def test_rejects_oversubscription(self):
        with pytest.raises(TopologyError):
            topology.testbed_b().scaled_to(64)
