"""Benchmark harness: workload grids, result aggregation, text reporting."""

from .workloads import TABLE4_GRID, configured_layer_grid, grid_size
from .runner import (
    CONFIGURED_LAYER_COUNT,
    ConfigResult,
    geometric_mean,
    speedups_over,
)
from .reporting import format_table

__all__ = [
    "TABLE4_GRID",
    "configured_layer_grid",
    "grid_size",
    "CONFIGURED_LAYER_COUNT",
    "ConfigResult",
    "geometric_mean",
    "speedups_over",
    "format_table",
]
