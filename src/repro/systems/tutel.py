"""Tutel with PipeMoE's adaptive pipelining, and its improved variant.

Tutel overlaps AlltoAll with expert computation on two streams (one comm,
one compute -- Fig. 3b) using a single pipeline degree for both phases.
We grant the baseline an *oracle* degree: an exhaustive integer sweep of
its own schedule's simulated makespan, which upper-bounds what PipeMoE's
analytic model can pick and therefore makes FSMoE's measured gains
conservative (see DESIGN.md, "Honest baselines").

``TutelImproved`` additionally releases each layer's Gradient-AllReduce
right after that layer's dense backward so it can hide under non-MoE work
(the paper's "Tutel-Improved").
"""

from __future__ import annotations

from typing import Sequence

from ..core.context import SolverContext
from ..core.fastsolve import best_swept_degree, merged_iteration_times
from ..core.perf_model import PerfModelSet
from ..core.schedules import (
    GarMode,
    IterationSpec,
    LayerPhaseSchedule,
    TWO_STREAM,
)
from ..models.transformer import LayerProfile
from ..obs.trace import maybe_span
from .base import TrainingSystem

#: bound on a context's memo of oracle degrees.
ORACLE_DEGREE_MEMO_SIZE = 4096


def _oracle_degree(
    profiles: tuple[LayerProfile, ...],
    models: PerfModelSet,
    r_max: int,
    include_gar: bool,
    solver_context: SolverContext,
) -> int:
    """:func:`sweep_oracle_degree`, memoized in the context."""
    return solver_context.memo(
        "oracle_degree",
        (profiles, models, r_max, include_gar),
        lambda: sweep_oracle_degree(profiles, models, r_max, include_gar),
        ORACLE_DEGREE_MEMO_SIZE,
    )


def sweep_oracle_degree(
    profiles: tuple[LayerProfile, ...],
    models: PerfModelSet,
    r_max: int,
    include_gar: bool,
) -> int:
    """Integer sweep of the PipeMoE schedule's iteration time.

    All degrees of the full fw+bw+GAR-tail iteration in one
    :func:`~repro.core.fastsolve.merged_iteration_times` call (a scalar
    recurrence per degree), bit-identical to building and
    event-simulating one task graph per degree (the simulate-per-degree
    reference in ``tests/oracles``).  Traced as a ``sweep_degree`` span
    (``kind="oracle"``); the memoized caller only reaches it on a miss.
    """
    span = maybe_span(
        "sweep_degree",
        {"kind": "oracle", "layers": len(profiles), "r_max": int(r_max)},
    )
    try:
        times = merged_iteration_times(
            [p.ctx_fw for p in profiles],
            [p.dense_fw_ms for p in profiles],
            [p.ctx_bw for p in profiles],
            [p.dense_bw_ms for p in profiles],
            [
                models.allreduce.time_ms(p.grad_bytes) if include_gar else 0.0
                for p in profiles
            ],
            r_max,
        )
        return best_swept_degree(times)[0]
    finally:
        if span is not None:
            span.end()


def _pipemoe_spec(
    profiles: tuple[LayerProfile, ...],
    models: PerfModelSet,
    degree: int,
    gar_mode: GarMode,
    include_gar: bool,
    name: str,
) -> IterationSpec:
    forward = tuple(
        LayerPhaseSchedule(ctx=p.ctx_fw, degree=degree, dense_ms=p.dense_fw_ms)
        for p in profiles
    )
    backward = tuple(
        LayerPhaseSchedule(ctx=p.ctx_bw, degree=degree, dense_ms=p.dense_bw_ms)
        for p in profiles
    )
    grad_bytes = tuple(p.grad_bytes if include_gar else 0.0 for p in profiles)
    return IterationSpec(
        name=name,
        forward=forward,
        backward=backward,
        grad_bytes=grad_bytes,
        ar_model=models.allreduce,
        streams=TWO_STREAM,
        gar_mode=gar_mode,
    )


class Tutel(TrainingSystem):
    """Tutel + PipeMoE: two-stream pipelining, GAR exposed at the end."""

    name = "Tutel"
    _gar_mode = GarMode.END

    def build_iteration_spec(
        self,
        profiles: Sequence[LayerProfile],
        models: PerfModelSet,
        include_gar: bool = True,
        *,
        solver_context: SolverContext | None = None,
    ) -> IterationSpec:
        """Oracle-swept single degree, shared by forward and backward.

        ``profiles`` may be heterogeneous; Tutel still uses one global
        degree (its real-world limitation), swept against the whole
        stack's simulated makespan.
        """
        if solver_context is None:
            solver_context = SolverContext()
        key = tuple(profiles)
        degree = _oracle_degree(
            key, models, self.r_max, include_gar, solver_context
        )
        return _pipemoe_spec(
            key, models, degree, self._gar_mode, include_gar, self.name
        )


class TutelImproved(Tutel):
    """Tutel with Gradient-AllReduce overlapped with non-MoE backward."""

    name = "Tutel-Improved"
    _gar_mode = GarMode.DENSE_OVERLAP
