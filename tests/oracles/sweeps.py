"""Simulate-per-degree references for the systems' swept degrees.

:func:`merged_phase_degree_sim` is the oracle for
:func:`repro.systems.fsmoe.sweep_merged_phase_degree` (FSMoE-No-IIO's
per-phase degree) and :func:`oracle_degree_sim` the oracle for
:func:`repro.systems.tutel.sweep_oracle_degree` (Tutel's single
degree).  Both build one task graph per candidate degree, event-simulate
it and keep the ascending sweep's tolerance tie-break.
"""

from __future__ import annotations

from repro.core.perf_model import PerfModelSet
from repro.core.schedules import (
    TWO_STREAM,
    GarMode,
    IterationSpec,
    LayerPhaseSchedule,
    build_iteration_graph,
)
from repro.models.transformer import LayerProfile
from repro.sim.engine import simulate
from repro.systems.tutel import _pipemoe_spec


def _best_degree(makespan_at, r_max: int) -> int:
    """Ascending sweep: a later degree must win by more than 1e-12."""
    best_r, best_t = 1, float("inf")
    for r in range(1, r_max + 1):
        t = makespan_at(r)
        if t < best_t - 1e-12:
            best_t = t
            best_r = r
    return best_r


def merged_phase_degree_sim(
    profiles: tuple[LayerProfile, ...],
    models: PerfModelSet,
    r_max: int,
    phase: str,
) -> int:
    """Best merged-comm degree of one phase, one simulation per degree."""

    def makespan_at(r: int) -> float:
        layers = tuple(
            LayerPhaseSchedule(
                ctx=p.ctx_fw if phase == "forward" else p.ctx_bw,
                degree=r,
                dense_ms=(
                    p.dense_fw_ms if phase == "forward" else p.dense_bw_ms
                ),
            )
            for p in profiles
        )
        spec = IterationSpec(
            name="noiio-sweep",
            forward=layers,
            backward=layers,
            grad_bytes=tuple(0.0 for _ in profiles),
            ar_model=models.allreduce,
            streams=TWO_STREAM,
            gar_mode=GarMode.END,
        )
        return simulate(build_iteration_graph(spec, phase=phase)).makespan_ms

    return _best_degree(makespan_at, r_max)


def oracle_degree_sim(
    profiles: tuple[LayerProfile, ...],
    models: PerfModelSet,
    r_max: int,
    include_gar: bool,
) -> int:
    """Tutel's best single degree, one full-iteration simulation each."""

    def makespan_at(r: int) -> float:
        spec = _pipemoe_spec(
            profiles, models, r, GarMode.END, include_gar, name="sweep"
        )
        return simulate(build_iteration_graph(spec)).makespan_ms

    return _best_degree(makespan_at, r_max)
