"""Unit tests for repro.parallel.groups."""

import pytest

from repro.config import ParallelSpec, standard_layout
from repro.errors import TopologyError
from repro.parallel import topology
from repro.parallel.groups import build_group_layout


@pytest.fixture
def layout_b():
    cluster = topology.testbed_b()
    return build_group_layout(cluster, standard_layout(32, 4))


class TestLayoutShape:
    def test_group_counts(self, layout_b):
        assert len(layout_b.mp_groups) == 8  # one per node
        assert len(layout_b.esp_groups) == 8
        assert len(layout_b.ep_groups) == 4  # one per local index
        assert len(layout_b.dp_groups) == 4
        assert len(layout_b.pp_stages) == 1

    def test_mp_groups_are_node_local(self, layout_b):
        for group in layout_b.mp_groups:
            nodes = {rank // 4 for rank in group}
            assert len(nodes) == 1
            assert len(group) == 4

    def test_ep_groups_span_nodes(self, layout_b):
        for group in layout_b.ep_groups:
            assert len(group) == 8
            locals_ = {rank % 4 for rank in group}
            assert len(locals_) == 1  # same local index on every node

    def test_esp_coincides_with_mp(self, layout_b):
        assert layout_b.esp_groups == layout_b.mp_groups

    def test_every_rank_in_every_group_kind(self, layout_b):
        for rank in range(32):
            groups = layout_b.groups_of_rank(rank)
            assert set(groups) == {"mp", "esp", "ep", "dp", "pp"}
            assert rank in groups["mp"]

    def test_rank_out_of_range(self, layout_b):
        with pytest.raises(TopologyError):
            layout_b.groups_of_rank(32)


class TestPipelineStages:
    def test_two_stages_on_testbed_a(self):
        cluster = topology.testbed_a()
        layout = build_group_layout(cluster, standard_layout(48, 8, n_pp=2))
        assert len(layout.pp_stages) == 2
        assert len(layout.pp_stages[0]) == 24
        assert set(layout.pp_stages[0]) == set(range(24))
        # EP groups never cross stage boundaries.
        for group in layout.ep_groups:
            stages = {rank // 24 for rank in group}
            assert len(stages) == 1


class TestValidation:
    def test_rejects_wrong_mp_width(self):
        with pytest.raises(TopologyError):
            build_group_layout(
                topology.testbed_b(),
                ParallelSpec(n_dp=8, n_mp=8, n_ep=8, n_esp=8),
            )

    def test_rejects_wrong_ep_width(self):
        with pytest.raises(TopologyError):
            build_group_layout(
                topology.testbed_b(),
                ParallelSpec(n_dp=4, n_mp=4, n_ep=4, n_esp=4),
            )

    def test_rejects_uneven_pp(self):
        with pytest.raises(TopologyError):
            build_group_layout(
                topology.testbed_b(),
                ParallelSpec(n_dp=8, n_mp=4, n_ep=8, n_esp=4, n_pp=3),
            )
