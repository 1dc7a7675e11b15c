"""FSMoE: the paper's full system, and its No-IIO ablation.

* per-phase pipeline degrees from Algorithm 1 (the batched exact sweep
  of :mod:`repro.core.fastsolve`; SLSQP kept for cross-checking) --
  forward with ``t_gar = 0``, backward with the AllReduce time the
  partition plan injects;
* adaptive gradient partitioning (§5): window fill + differential
  evolution over the residual;
* three streams (compute / intra-node / inter-node) so ESP collectives
  overlap AlltoAll (Fig. 3d).

``FSMoENoIIO`` keeps the degrees and the partitioning but serializes
intra- with inter-node communication on one stream (the paper's
"FSMoE-No-IIO" ablation, Table 5 and Fig. 6).
"""

from __future__ import annotations

from typing import Sequence

from ..core.context import SolverContext
from ..core.gradient_partition import (
    STEP2_SOLVERS,
    GeneralizedLayer,
    GradientPartitionPlan,
    plan_gradient_partition,
)
from ..core.fastsolve import solve_merged_phase_degree
from ..core.perf_model import PerfModelSet
from ..core.pipeline_degree import DEFAULT_MAX_DEGREE, solve_degrees
from ..core.schedules import (
    GarMode,
    IterationSpec,
    LayerPhaseSchedule,
    StreamMap,
    THREE_STREAM,
    TWO_STREAM,
)
from ..errors import SolverError
from ..models.transformer import LayerProfile
from ..obs.trace import maybe_span
from .base import TrainingSystem

#: bound on a context's memo of partition plans.
PARTITION_MEMO_SIZE = 1024

#: bound on a context's memo of merged-comm phase degrees.
MERGED_DEGREE_MEMO_SIZE = 4096


def _partition_plan(
    profiles: tuple[LayerProfile, ...],
    models: PerfModelSet,
    r_max: int,
    merged_comm: bool,
    solver: str,
    solver_context: SolverContext,
) -> GradientPartitionPlan:
    """The stack's gradient partition plan, memoized in the context."""

    def compute() -> GradientPartitionPlan:
        layers = [
            GeneralizedLayer(
                ctx=p.ctx_bw,
                dense_overlappable_ms=p.dense_bw_ms,
                grad_bytes=p.grad_bytes,
            )
            for p in profiles
        ]
        return plan_gradient_partition(
            layers,
            models.allreduce,
            r_max=r_max,
            merged_comm=merged_comm,
            solver=solver,
            solver_context=solver_context,
        )

    return solver_context.memo(
        "partition_plan",
        (profiles, models, r_max, merged_comm, solver),
        compute,
        PARTITION_MEMO_SIZE,
    )


class FSMoE(TrainingSystem):
    """The full FSMoE schedule (Fig. 3d).

    Args:
        r_max: cap on the pipeline degrees Algorithm 1 considers.
        solver: Step-2 gradient-partition solver -- ``"de"`` (the paper's
            differential evolution), ``"slsqp"`` (a much cheaper local
            solve with near-identical placements) or ``"none"`` (skip
            Step 2).  See
            :func:`~repro.core.gradient_partition.plan_gradient_partition`.
    """

    name = "FSMoE"
    _streams: StreamMap = THREE_STREAM
    _merged_comm = False

    def __init__(
        self, r_max: int = DEFAULT_MAX_DEGREE, solver: str = "de"
    ) -> None:
        super().__init__(r_max)
        if solver not in STEP2_SOLVERS:
            raise SolverError(
                f"unknown Step-2 solver {solver!r}; "
                f"choose from {STEP2_SOLVERS}"
            )
        self.solver = solver

    def fingerprint(self) -> tuple:
        """Cache identity: the base fingerprint plus the Step-2 solver."""
        return super().fingerprint() + ("solver", self.solver)

    def schedule_contexts(self, profiles: Sequence[LayerProfile]) -> tuple:
        """Both phases of every layer feed Algorithm 1."""
        return tuple(p.ctx_fw for p in profiles) + tuple(
            p.ctx_bw for p in profiles
        )

    def _phase_degrees(
        self,
        profiles: tuple[LayerProfile, ...],
        models: PerfModelSet,
        plan: GradientPartitionPlan | None,
        solver_context: SolverContext,
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-layer (forward, backward) degrees from Algorithm 1.

        A heterogeneous stack is one batched solve: every layer's
        contexts (forward, and backward when no partition plan supplies
        them) go through a single :func:`solve_degrees` call; the
        solver's memo deduplicates repeated layers.
        """
        contexts = [p.ctx_fw for p in profiles]
        if plan is None:
            contexts += [p.ctx_bw for p in profiles]
        solutions = solve_degrees(
            contexts, self.r_max, solver_context=solver_context
        )
        n = len(profiles)
        fw = tuple(s.degree for s in solutions[:n])
        if plan is not None:
            bw = tuple(s.degree for s in plan.solutions)
        else:
            bw = tuple(s.degree for s in solutions[n:])
        return fw, bw

    def build_iteration_spec(
        self,
        profiles: Sequence[LayerProfile],
        models: PerfModelSet,
        include_gar: bool = True,
        *,
        solver_context: SolverContext | None = None,
    ) -> IterationSpec:
        """Per-phase Algorithm-1 degrees + adaptive gradient partitioning.

        ``profiles`` may be heterogeneous: every layer gets its own
        Algorithm-1 degrees and its own slice of the gradient partition
        (the paper's per-layer flexibility, Table 5).
        """
        if solver_context is None:
            solver_context = SolverContext()
        key = tuple(profiles)
        plan = (
            _partition_plan(
                key,
                models,
                self.r_max,
                self._merged_comm,
                self.solver,
                solver_context,
            )
            if include_gar
            else None
        )
        fw_degrees, bw_degrees = self._phase_degrees(
            key, models, plan, solver_context
        )
        forward = tuple(
            LayerPhaseSchedule(
                ctx=p.ctx_fw, degree=fw_degrees[i], dense_ms=p.dense_fw_ms
            )
            for i, p in enumerate(key)
        )
        if plan is not None:
            backward = tuple(
                LayerPhaseSchedule(
                    ctx=p.ctx_bw.with_t_gar(plan.t_gar_ms[i]),
                    degree=bw_degrees[i],
                    dense_ms=p.dense_bw_ms,
                )
                for i, p in enumerate(key)
            )
            grad_bytes = tuple(p.grad_bytes for p in key)
            gar_mode = GarMode.ADAPTIVE
        else:
            backward = tuple(
                LayerPhaseSchedule(
                    ctx=p.ctx_bw, degree=bw_degrees[i], dense_ms=p.dense_bw_ms
                )
                for i, p in enumerate(key)
            )
            grad_bytes = tuple(0.0 for _ in key)
            gar_mode = GarMode.END
        return IterationSpec(
            name=self.name,
            forward=forward,
            backward=backward,
            grad_bytes=grad_bytes,
            ar_model=models.allreduce,
            streams=self._streams,
            gar_mode=gar_mode,
            plan=plan,
        )


def _merged_phase_degree(
    profiles: tuple[LayerProfile, ...],
    r_max: int,
    phase: str,
    solver_context: SolverContext,
) -> int:
    """:func:`sweep_merged_phase_degree`, memoized in the context."""
    return solver_context.memo(
        "merged_phase_degree",
        (profiles, r_max, phase),
        lambda: sweep_merged_phase_degree(profiles, r_max, phase),
        MERGED_DEGREE_MEMO_SIZE,
    )


def sweep_merged_phase_degree(
    profiles: tuple[LayerProfile, ...], r_max: int, phase: str
) -> int:
    """Best degree for one phase of the merged-comm (2-stream) schedule.

    Algorithm 1's closed forms assume a dedicated inter-node stream; on a
    merged comm stream they overestimate the benefit of chunking.  The
    No-IIO ablation therefore picks its per-phase degree by sweeping its
    *own* schedule's makespan -- still adaptive and per-phase, just
    against the correct stream model.

    The sweep is the scalar per-degree recurrence of
    :func:`~repro.core.fastsolve.merged_phase_times` over the whole
    stack, bit-identical (degree and makespan) to building and
    event-simulating one task graph per degree (the simulate-per-degree
    reference in ``tests/oracles``).  Traced as a ``sweep_degree`` span
    (``kind="merged_phase"``); the memoized caller only reaches it on a
    miss.
    """
    span = maybe_span(
        "sweep_degree",
        {"kind": "merged_phase", "layers": len(profiles), "r_max": int(r_max)},
    )
    try:
        if phase == "forward":
            ctxs = [p.ctx_fw for p in profiles]
            dense = [p.dense_fw_ms for p in profiles]
            dense_first = True
        else:
            # Backward executes the stack in reverse, dense after each
            # block.
            ctxs = [p.ctx_bw for p in reversed(profiles)]
            dense = [p.dense_bw_ms for p in reversed(profiles)]
            dense_first = False
        degree, _ = solve_merged_phase_degree(
            ctxs, dense, r_max, dense_first=dense_first
        )
        return degree
    finally:
        if span is not None:
            span.end()


class FSMoENoIIO(FSMoE):
    """FSMoE without the inter/intra-node communication overlap.

    Keeps the adaptive per-phase degrees and the gradient partitioning but
    serializes all communication on one stream.  Its degrees come from a
    per-phase sweep of the merged-comm schedule, its windows are sized
    with the merged-comm formula, and its in-pipeline AllReduce slices run
    at background priority (they fill the comm stream's expert-compute
    gaps instead of delaying combines).
    """

    name = "FSMoE-No-IIO"
    _streams = TWO_STREAM
    _merged_comm = True

    def _phase_degrees(
        self,
        profiles: tuple[LayerProfile, ...],
        models: PerfModelSet,
        plan: GradientPartitionPlan | None,
        solver_context: SolverContext,
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-phase degrees swept on the 2-stream schedule itself."""
        fw = _merged_phase_degree(
            profiles, self.r_max, "forward", solver_context
        )
        bw = _merged_phase_degree(
            profiles, self.r_max, "backward", solver_context
        )
        n = len(profiles)
        return (fw,) * n, (bw,) * n
