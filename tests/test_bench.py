"""Tests for the benchmark harness (grid, runner, reporting)."""

import pytest

from repro.bench import (
    ConfigResult,
    configured_layer_grid,
    format_table,
    geometric_mean,
    grid_size,
    speedups_over,
)
from repro.bench.workloads import TABLE4_GRID
from repro.errors import ConfigError
from repro.systems import FSMoE, Tutel

from .helpers import config_result


class TestGrid:
    def test_paper_grid_size_is_1458(self):
        assert grid_size() == 1458

    def test_full_grid_materializes(self):
        specs = configured_layer_grid("B", num_experts=8)
        assert len(specs) == 1458
        assert len(set(specs)) == 1458  # all distinct

    def test_testbed_seq_lens(self):
        assert TABLE4_GRID.seq_lens("A") == (512, 1024, 2048)
        assert TABLE4_GRID.seq_lens("B") == (256, 512, 1024)
        with pytest.raises(ConfigError):
            TABLE4_GRID.seq_lens("C")

    def test_stride_subsamples(self):
        specs = configured_layer_grid("B", num_experts=8, stride=6)
        assert len(specs) == 1458 // 6
        with pytest.raises(ConfigError):
            configured_layer_grid("B", num_experts=8, stride=0)

    def test_nodrop_configs_present(self):
        specs = configured_layer_grid("A", num_experts=6)
        assert any(s.capacity_factor is None for s in specs)
        assert any(s.ffn_type == "mixtral" for s in specs)


class TestRunner:
    def test_speedup(self, cluster_b, models_b, small_spec):
        systems = [Tutel(), FSMoE()]
        result = config_result(small_spec, cluster_b, models_b, systems)
        assert set(result.times_ms) == {"Tutel", "FSMoE"}
        assert result.speedup("FSMoE", "Tutel") > 1.0

    def test_speedup_unknown_system(self, parallel_b, small_spec):
        result = ConfigResult(
            spec=small_spec, parallel=parallel_b, times_ms={"Tutel": 1.0}
        )
        with pytest.raises(ConfigError):
            result.speedup("Nope", "Tutel")


class TestStats:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([1.0, 1.0, 1.0]) == 1.0

    def test_geometric_mean_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            geometric_mean([])
        with pytest.raises(ConfigError):
            geometric_mean([1.0, 0.0])

    def test_speedups_over(self, cluster_b, models_b, small_spec):
        systems = [Tutel(), FSMoE()]
        results = [
            config_result(small_spec, cluster_b, models_b, systems),
            config_result(
                small_spec.with_(seq_len=256), cluster_b, models_b, systems
            ),
        ]
        table = speedups_over(results, "Tutel")
        assert table["Tutel"] == pytest.approx(1.0)
        assert table["FSMoE"] > 1.0

    def test_speedups_over_empty(self):
        with pytest.raises(ConfigError):
            speedups_over([], "Tutel")


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["sys", "speedup"],
            [["FSMoE", 1.218], ["Tutel", 1.0]],
            title="Table 5",
        )
        assert "Table 5" in text
        assert "FSMoE" in text
        assert "1.218" in text
        lines = text.splitlines()
        assert len(lines) == 5  # title + header + rule + 2 rows
