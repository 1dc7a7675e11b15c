"""Evaluation results: per-system times per workload, and speedups.

The paper's configured-layer experiments (Table 5) report *average
speedups over Tutel*; the end-to-end experiments (Fig. 6-8) report
speedups over DeepSpeed-MoE.  Averages over many configurations use the
geometric mean (the standard choice for ratios).

Planning itself goes through :meth:`repro.api.workspace.Workspace.sweep`,
whose :meth:`~repro.api.workspace.ExperimentResult.config_results`
groups a sweep's points into the :class:`ConfigResult` cases below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..config import MoELayerSpec, ParallelSpec
from ..errors import ConfigError

#: layers used for a "configured layer" measurement.  At least two are
#: needed for the gradient-overlap machinery to engage (a layer's own
#: gradients only exist after its backward, so they can only hide in an
#: *earlier* layer's windows); four keeps the un-hideable first layer's
#: share realistic while staying cheap to simulate.
CONFIGURED_LAYER_COUNT = 4


@dataclass(frozen=True)
class ConfigResult:
    """Per-system iteration times for one workload configuration."""

    spec: MoELayerSpec
    parallel: ParallelSpec
    times_ms: dict[str, float]

    def speedup(self, system: str, baseline: str) -> float:
        """``baseline_time / system_time`` (>1 means ``system`` wins).

        Raises:
            ConfigError: for an unknown system name.
        """
        if system not in self.times_ms or baseline not in self.times_ms:
            raise ConfigError(
                f"unknown system in speedup({system!r}, {baseline!r}); "
                f"have {sorted(self.times_ms)}"
            )
        return self.times_ms[baseline] / self.times_ms[system]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive ratios.

    Raises:
        ConfigError: on an empty sequence or non-positive entries.
    """
    if not values:
        raise ConfigError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ConfigError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedups_over(
    results: Sequence[ConfigResult], baseline: str
) -> dict[str, float]:
    """Geometric-mean speedup of every system over ``baseline``.

    Raises:
        ConfigError: on an empty result list.
    """
    if not results:
        raise ConfigError("speedups_over needs at least one result")
    systems = list(results[0].times_ms)
    return {
        system: geometric_mean(
            [r.speedup(system, baseline) for r in results]
        )
        for system in systems
    }
