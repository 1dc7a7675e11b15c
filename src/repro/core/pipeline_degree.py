"""Algorithm 1: ``FindOptimalPipelineDegree`` (paper §4.3).

Two interchangeable solvers produce the integer pipeline degree:

* ``"batch"`` (default) -- the vectorized exact sweep of
  :mod:`repro.core.fastsolve`: every integer degree of every context is
  evaluated with the closed-form decision-tree time in one array pass.
  Exact (identical to :func:`oracle_integer_degree`) and ~4 orders of
  magnitude cheaper per context than SLSQP.
* ``"slsqp"`` -- the paper's continuous relaxation, kept for
  cross-checking: each of the four case objectives is minimized over
  ``r`` with SLSQP, subject to the case's region constraints (a case
  region is a union of conjunctions of Q1-Q7 predicates; each
  conjunction becomes a separate smooth sub-problem), and the best
  feasible candidate is rounded to its best neighbouring integer degree
  under the exact decision-tree time.

The choice belongs to the session's
:class:`~repro.core.context.SolverContext` (default ``"batch"``); the
cold-plan benchmark measures the SLSQP path end to end by planning
through a context built with ``degree_solver="slsqp"``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import SolverError
from ..obs.trace import maybe_span
from .cases import CASE_BRANCHES, Case, analytic_time, case_time, classify
from .constraints import PipelineContext
from .context import DEGREE_MEMO_SIZE, SolverContext

#: default cap on the pipeline degree; Tutel exposes degrees up to 8-16 and
#: chunk counts beyond this give diminishing returns while multiplying
#: startup costs.
DEFAULT_MAX_DEGREE = 16

_CONSTRAINT_TOL = 1e-7


@dataclass(frozen=True)
class DegreeSolution:
    """Result of Algorithm 1 for one layer/phase.

    Attributes:
        degree: chosen integer pipeline degree ``r``.
        time_ms: exact analytic MoE time at ``degree``.
        case: dominating case at ``degree``.
        continuous_degree: the unrounded SLSQP optimum that led to
            ``degree`` (useful for diagnostics).
        per_case_time_ms: best feasible objective value found per case
            (``inf`` when a case region is empty for this context).
    """

    degree: int
    time_ms: float
    case: Case
    continuous_degree: float
    per_case_time_ms: dict[Case, float]


def _margin_fn(ctx: PipelineContext, name: str, wanted: bool):
    margin = getattr(ctx, f"{name}_margin")
    if wanted:
        return lambda x: margin(float(x[0]))
    return lambda x: -margin(float(x[0]))


def _solve_branch(
    ctx: PipelineContext,
    case: Case,
    branch: tuple[tuple[str, bool], ...],
    r_max: float,
) -> tuple[float, float] | None:
    """SLSQP-minimize one case objective within one conjunction region.

    Returns:
        ``(r, t)`` for the best feasible point found, or None if every
        start fails or lands infeasible.
    """
    # Imported here: SciPy loads only for sessions that ask for SLSQP.
    from scipy.optimize import minimize

    constraints = [
        {"type": "ineq", "fun": _margin_fn(ctx, name, wanted)}
        for name, wanted in branch
    ]
    objective = lambda x: case_time(ctx, float(x[0]), case)  # noqa: E731
    best: tuple[float, float] | None = None
    starts = sorted({1.0, 2.0, 4.0, min(8.0, r_max), r_max})
    for r0 in starts:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = minimize(
                objective,
                x0=np.array([r0]),
                method="SLSQP",
                bounds=[(1.0, r_max)],
                constraints=constraints,
                options={"maxiter": 80, "ftol": 1e-10},
            )
        if not np.isfinite(result.fun):
            continue
        r = float(np.clip(result.x[0], 1.0, r_max))
        feasible = all(
            constraint["fun"]([r]) >= -_CONSTRAINT_TOL
            for constraint in constraints
        )
        if not feasible:
            continue
        t = float(case_time(ctx, r, case))
        if best is None or t < best[1]:
            best = (r, t)
    return best


def find_optimal_pipeline_degree(
    ctx: PipelineContext,
    r_max: int = DEFAULT_MAX_DEGREE,
    *,
    solver_context: SolverContext | None = None,
) -> DegreeSolution:
    """Run Algorithm 1 and return the best integer pipeline degree.

    Results are memoized in ``solver_context``: contexts are frozen
    value objects and the algorithm is pure, so repeated calls for
    identical layers (the common case -- every layer of a model shares
    one context) cost one solve.

    Args:
        ctx: layer/phase performance context (``t_gar`` already set: zero
            in forward, partition-plan value in backward).
        r_max: inclusive upper bound on the degree (must be >= 1).
        solver_context: the session's memos, counters and Algorithm-1
            implementation; None uses a fresh batched one.

    Raises:
        SolverError: if ``r_max < 1``.
    """
    return solve_degrees((ctx,), r_max, solver_context=solver_context)[0]


def solve_degrees(
    ctxs: Sequence[PipelineContext],
    r_max: int = DEFAULT_MAX_DEGREE,
    *,
    solver_context: SolverContext | None = None,
) -> tuple[DegreeSolution, ...]:
    """Algorithm-1 solutions for many contexts, batched when possible.

    The ``"batch"`` solver evaluates the whole batch in one array pass
    (:func:`~repro.core.fastsolve.solve_degrees_batch`); ``"slsqp"``
    falls back to per-context solves through the memoized SLSQP path.
    This is the single dispatch point every scheduling caller uses, so
    the context's ``degree_solver`` really flips the whole pipeline.

    Args:
        ctxs: pipeline contexts, any length.
        r_max: inclusive upper bound on the degree (must be >= 1).
        solver_context: the session's memos, counters and Algorithm-1
            implementation; None uses a fresh batched one.

    Raises:
        SolverError: if ``r_max < 1``.
    """
    if r_max < 1:
        raise SolverError(f"r_max must be >= 1, got {r_max}")
    if solver_context is None:
        solver_context = SolverContext()
    solver = solver_context.degree_solver
    span = maybe_span("solve_degrees")
    if span is not None:
        span.set(contexts=len(ctxs), solver=solver, r_max=int(r_max))
    try:
        if solver == "batch":
            # Imported lazily: fastsolve consumes DegreeSolution from this
            # module, so a top-level import would be circular.
            from .fastsolve import solve_degrees_batch

            return solve_degrees_batch(ctxs, r_max, solver_context)
        return tuple(
            solver_context.memo(
                "slsqp",
                (ctx, r_max),
                lambda ctx=ctx: _solve_slsqp(ctx, r_max),
                DEGREE_MEMO_SIZE,
            )
            for ctx in ctxs
        )
    finally:
        if span is not None:
            span.end()


def _solve_slsqp(ctx: PipelineContext, r_max: int) -> DegreeSolution:
    """Algorithm 1 by SLSQP over every case region, rounded exactly."""
    per_case: dict[Case, float] = {}
    candidates: list[float] = [1.0]
    best_continuous: tuple[float, float] | None = None
    for case, branches in CASE_BRANCHES.items():
        case_best: tuple[float, float] | None = None
        for branch in branches:
            solved = _solve_branch(ctx, case, branch, float(r_max))
            if solved is not None and (
                case_best is None or solved[1] < case_best[1]
            ):
                case_best = solved
        per_case[case] = case_best[1] if case_best else float("inf")
        if case_best is not None:
            candidates.append(case_best[0])
            if best_continuous is None or case_best[1] < best_continuous[1]:
                best_continuous = case_best

    # Round every continuous candidate to its integer neighbours and judge
    # them all with the exact decision-tree time.
    integer_candidates: set[int] = set()
    for r in candidates:
        integer_candidates.add(int(np.clip(math.floor(r), 1, r_max)))
        integer_candidates.add(int(np.clip(math.ceil(r), 1, r_max)))

    best_r = 1
    best_t = float("inf")
    for r in sorted(integer_candidates):
        t = analytic_time(ctx, float(r))
        if t < best_t - 1e-12:
            best_t = t
            best_r = r

    continuous = best_continuous[0] if best_continuous else float(best_r)
    return DegreeSolution(
        degree=best_r,
        time_ms=best_t,
        case=classify(ctx, float(best_r)),
        continuous_degree=continuous,
        per_case_time_ms=per_case,
    )


def oracle_integer_degree(
    ctx: PipelineContext, r_max: int = DEFAULT_MAX_DEGREE
) -> DegreeSolution:
    """Exhaustive integer sweep of the exact analytic time (test oracle).

    Used to validate that Algorithm 1's SLSQP answer matches a brute-force
    search (ablation E10 in DESIGN.md), and by baselines granted oracle
    tuning.
    """
    if r_max < 1:
        raise SolverError(f"r_max must be >= 1, got {r_max}")
    best_r, best_t = 1, float("inf")
    for r in range(1, r_max + 1):
        t = analytic_time(ctx, float(r))
        if t < best_t - 1e-12:
            best_t = t
            best_r = r
    return DegreeSolution(
        degree=best_r,
        time_ms=best_t,
        case=classify(ctx, float(best_r)),
        continuous_degree=float(best_r),
        per_case_time_ms={},
    )
