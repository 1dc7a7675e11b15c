"""Tests for the memory-footprint estimator against the paper's §6.4."""

import pytest

from repro.config import standard_layout
from repro.errors import ConfigError
from repro.models import MIXTRAL_7B, MIXTRAL_22B, layer_spec_for
from repro.models.memory import (
    estimate_memory,
    layer_parameter_bytes,
    max_layers_that_fit,
)
from repro.parallel import topology


@pytest.fixture(scope="module")
def setup_b():
    cluster = topology.testbed_b()
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    spec = layer_spec_for(
        MIXTRAL_7B, batch_size=1, seq_len=256, num_experts=parallel.n_ep
    )
    return cluster, parallel, spec


class TestFootprint:
    def test_components_positive(self, setup_b):
        _, parallel, spec = setup_b
        fp = estimate_memory(spec, parallel, 7)
        assert fp.parameter_bytes > 0
        assert fp.gradient_bytes == fp.parameter_bytes
        assert fp.optimizer_bytes == 2 * fp.parameter_bytes
        assert fp.activation_bytes > 0
        assert fp.total_bytes == (
            fp.parameter_bytes + fp.gradient_bytes + fp.optimizer_bytes
            + fp.activation_bytes
        )

    def test_scales_linearly_with_layers(self, setup_b):
        _, parallel, spec = setup_b
        one = estimate_memory(spec, parallel, 1)
        four = estimate_memory(spec, parallel, 4)
        assert four.total_bytes == pytest.approx(4 * one.total_bytes)

    def test_rejects_bad_layer_count(self, setup_b):
        _, parallel, spec = setup_b
        with pytest.raises(ConfigError):
            estimate_memory(spec, parallel, 0)

    def test_expert_shards_split_over_esp(self, setup_b):
        _, parallel, spec = setup_b
        wide = layer_parameter_bytes(spec, parallel)
        narrow = layer_parameter_bytes(
            spec, parallel.with_(n_esp=parallel.n_esp * 2,
                                 n_mp=parallel.n_mp * 2)
        )
        assert narrow < wide


class TestPaperLayerCounts:
    def test_mixtral7b_7_layers_fit_2080ti(self, setup_b):
        """Paper §6.4: 7 Mixtral-7B layers are chosen to fit 11 GB GPUs."""
        cluster, parallel, spec = setup_b
        fp = estimate_memory(spec, parallel, MIXTRAL_7B.num_layers)
        assert fp.fits(cluster.node.gpu.memory_gib)

    def test_mixtral7b_full_32_layers_do_not_fit_2080ti(self, setup_b):
        """...while the full 32-layer model would not."""
        cluster, parallel, spec = setup_b
        fp = estimate_memory(spec, parallel, 32)
        assert not fp.fits(cluster.node.gpu.memory_gib)

    def test_mixtral22b_33_layers_fit_a6000(self):
        """Paper §6.4: 33 Mixtral-22B layers fit the 48 GB A6000s."""
        cluster = topology.testbed_a()
        parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
        spec = layer_spec_for(
            MIXTRAL_22B, batch_size=1, seq_len=1024,
            num_experts=parallel.n_ep,
        )
        fp = estimate_memory(spec, parallel, MIXTRAL_22B.num_layers)
        assert fp.fits(cluster.node.gpu.memory_gib)

    def test_max_layers_helper_consistent(self, setup_b):
        cluster, parallel, spec = setup_b
        limit = max_layers_that_fit(
            spec, parallel, cluster.node.gpu.memory_gib
        )
        assert limit >= MIXTRAL_7B.num_layers
        assert limit < 32
        assert estimate_memory(spec, parallel, limit).fits(
            cluster.node.gpu.memory_gib
        )
        if limit > 0:
            assert not estimate_memory(spec, parallel, limit + 1).fits(
                cluster.node.gpu.memory_gib
            )