"""Common interface of all training systems."""

from __future__ import annotations

import abc
from typing import Sequence

from ..core.context import SolverContext
from ..core.perf_model import PerfModelSet
from ..core.pipeline_degree import DEFAULT_MAX_DEGREE
from ..core.schedules import IterationSpec, build_iteration_graph
from ..models.transformer import LayerProfile
from ..sim.engine import simulate
from ..sim.timeline import Timeline


class TrainingSystem(abc.ABC):
    """A scheduling strategy for training a stack of MoE layers.

    Concrete systems translate layer profiles into an
    :class:`~repro.core.schedules.IterationSpec`; everything else
    (simulation, phase splitting for pipeline parallelism, plan
    compilation) is shared.

    Stacks may be *heterogeneous*: ``profiles`` is one profile per
    generalized layer and the entries are free to describe different
    layer shapes (hidden size, expert count, top-k, routing function).

    Every scheduling method takes an optional ``solver_context``: the
    session's :class:`~repro.core.context.SolverContext`, whose memos
    and counters the system's solvers use.  A call without one gets a
    fresh context.
    """

    #: display name used in benchmark tables.
    name: str = "system"

    def __init__(self, r_max: int = DEFAULT_MAX_DEGREE) -> None:
        self.r_max = r_max

    def schedule_contexts(self, profiles: Sequence[LayerProfile]) -> tuple:
        """Pipeline contexts this system will hand to Algorithm 1.

        The plan compiler batch-solves these in one vectorized pass
        before :meth:`build_iteration_spec` runs, so a heterogeneous
        stack costs one array evaluation instead of one solve per layer.
        Systems that never consult Algorithm 1 (the fixed-degree
        baselines) return the default empty tuple.
        """
        return ()

    def fingerprint(self) -> tuple:
        """Plain-data identity of this system *configuration*.

        Two instances with equal fingerprints compile identical plans from
        identical inputs, so the fingerprint is what content-addressed
        plan caches (:class:`~repro.api.workspace.Workspace`) key on.
        Subclasses with extra scheduling knobs must extend the tuple.
        """
        return (type(self).__name__, self.name, self.r_max)

    @abc.abstractmethod
    def build_iteration_spec(
        self,
        profiles: Sequence[LayerProfile],
        models: PerfModelSet,
        include_gar: bool = True,
        *,
        solver_context: SolverContext | None = None,
    ) -> IterationSpec:
        """Assemble the iteration description for this system.

        Args:
            profiles: one profile per generalized layer, forward order;
                entries need not be identical (heterogeneous stacks).
            models: fitted performance models of the target cluster.
            include_gar: set False to exclude gradient synchronization
                (used by the pipeline-parallel model to charge it once).
            solver_context: the session's solver memos and counters.
        """

    def compile_plan(
        self,
        profiles: Sequence[LayerProfile],
        models: PerfModelSet,
        *,
        include_gar: bool = True,
        solver_context: SolverContext | None = None,
    ):
        """Compile a persistable :class:`~repro.planner.plan.IterationPlan`.

        The plan serializes to JSON and replays bit-identically without
        re-running profiling or the scheduling solvers; see
        :mod:`repro.planner`.
        """
        # Imported here, not at module top: the planner sits a layer
        # above the systems and importing it eagerly would be circular.
        from ..planner.plan import IterationPlan

        return IterationPlan.from_spec(
            self.build_iteration_spec(
                profiles, models, include_gar, solver_context=solver_context
            )
        )

    def iteration_time_ms(
        self,
        profiles: Sequence[LayerProfile],
        models: PerfModelSet,
        *,
        phase: str = "both",
        include_gar: bool = True,
        solver_context: SolverContext | None = None,
    ) -> float:
        """Simulated makespan of one iteration (or one phase)."""
        return self.timeline(
            profiles,
            models,
            phase=phase,
            include_gar=include_gar,
            solver_context=solver_context,
        ).makespan_ms

    def timeline(
        self,
        profiles: Sequence[LayerProfile],
        models: PerfModelSet,
        *,
        phase: str = "both",
        include_gar: bool = True,
        solver_context: SolverContext | None = None,
    ) -> Timeline:
        """Full execution trace (for Gantt rendering and inspection)."""
        spec = self.build_iteration_spec(
            profiles, models, include_gar, solver_context=solver_context
        )
        return simulate(build_iteration_graph(spec, phase=phase))

    def phase_times_ms(
        self,
        profiles: Sequence[LayerProfile],
        models: PerfModelSet,
        *,
        solver_context: SolverContext | None = None,
    ) -> tuple[float, float, float]:
        """(forward, backward-without-GAR, backward-with-GAR) makespans.

        The pipeline-parallel model consumes these to build the GPipe
        schedule with gradient work charged once at the flush.  The
        three schedules share one context (a fresh one when omitted).
        """
        if solver_context is None:
            solver_context = SolverContext()
        return tuple(
            self.iteration_time_ms(
                profiles,
                models,
                phase=phase,
                include_gar=include_gar,
                solver_context=solver_context,
            )
            for phase, include_gar in (
                ("forward", False),
                ("backward", False),
                ("backward", True),
            )
        )
