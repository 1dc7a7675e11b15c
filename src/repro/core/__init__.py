"""FSMoE's primary contribution: profiling-driven task scheduling.

* :mod:`~repro.core.perf_model` -- the linear alpha-beta performance models
  of paper Eq. 1 and §5.1, with least-squares fitting and r-squared;
* :mod:`~repro.core.profiler` -- the online microbenchmark pass (paper §3.2,
  Fig. 5) producing a fitted :class:`PerfModelSet`;
* :mod:`~repro.core.constraints` -- the seven feasibility predicates Q1-Q7
  of §4.2;
* :mod:`~repro.core.cases` -- the four schedule cases, their closed-form
  time objectives and the overlappable-time formulas of §5.2;
* :mod:`~repro.core.pipeline_degree` -- Algorithm 1
  (``FindOptimalPipelineDegree``): solver dispatch between the batched
  exact sweep and the paper's SLSQP relaxation;
* :mod:`~repro.core.fastsolve` -- the vectorized batched Algorithm-1
  solver (every integer degree of every context in one array pass) and
  the merged-comm degree sweeps (a scalar recurrence per degree);
* :mod:`~repro.core.context` -- :class:`SolverContext`, one planning
  session's solver memos, exact counters and Algorithm-1 choice;
* :mod:`~repro.core.gradient_partition` -- the two-step adaptive gradient
  partitioning of §5 (greedy fill + differential evolution);
* :mod:`~repro.core.schedules` -- task-graph builders for every schedule in
  Fig. 3 (default/DS-MoE, Tutel/PipeMoE, Tutel-Improved, PipeMoE+Lina,
  FSMoE-No-IIO, FSMoE).

The front-end/back-end workflow tying profiling to schedule construction
(§3.2) is :class:`~repro.planner.compiler.PlanCompiler`.
"""

from .perf_model import LinearPerfModel, PerfModelSet, fit_linear_model
from .profiler import ProfileResult, profile_cluster
from .constraints import ContextArrays, PipelineContext
from .cases import (
    Case,
    analytic_time,
    analytic_time_batch,
    classify,
    classify_batch,
    overlappable_time,
)
from .context import DEGREE_SOLVERS, SolverContext, SolverStats
from .pipeline_degree import (
    DegreeSolution,
    find_optimal_pipeline_degree,
    oracle_integer_degree,
    solve_degrees,
)
from .fastsolve import (
    best_swept_degree,
    merged_iteration_times,
    merged_phase_times,
    solve_degree,
    solve_degrees_batch,
    solve_merged_phase_degree,
)
from .gradient_partition import (
    STEP2_IMPLS,
    STEP2_SOLVERS,
    GarPlacement,
    GeneralizedLayer,
    GradientPartitionPlan,
    plan_gradient_partition,
)

__all__ = [
    "LinearPerfModel",
    "PerfModelSet",
    "fit_linear_model",
    "ProfileResult",
    "profile_cluster",
    "PipelineContext",
    "ContextArrays",
    "Case",
    "classify",
    "classify_batch",
    "analytic_time",
    "analytic_time_batch",
    "overlappable_time",
    "DegreeSolution",
    "DEGREE_SOLVERS",
    "find_optimal_pipeline_degree",
    "solve_degrees",
    "solve_degree",
    "solve_degrees_batch",
    "merged_phase_times",
    "merged_iteration_times",
    "solve_merged_phase_degree",
    "best_swept_degree",
    "SolverContext",
    "SolverStats",
    "oracle_integer_degree",
    "GarPlacement",
    "GeneralizedLayer",
    "GradientPartitionPlan",
    "plan_gradient_partition",
    "STEP2_SOLVERS",
    "STEP2_IMPLS",
]
