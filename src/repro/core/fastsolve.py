"""Batched Algorithm-1 solver: every (context, degree) pair in one pass.

The SLSQP implementation of Algorithm 1 (:mod:`repro.core.pipeline_degree`)
solves up to 4 cases x several conjunction branches x 5 starts per
context -- ~0.5 s each -- and cold planning multiplies that by every
distinct layer context and every point of the Step-2 interpolator grid.
But the decision variable is a bounded integer (``r`` in ``[1, r_max]``,
16 by default), so the *exact* optimum is a cheap exhaustive sweep when
the sweep is vectorized: :func:`solve_degrees_batch` packs all contexts
into ``(n_ctx, 1)`` coefficient columns (:class:`ContextArrays`),
evaluates the decision-tree time for every integer degree of every
context in one ``(n_ctx, n_r)`` array pass, and reduces with the oracle's
own tie-breaking.  The result per context is identical to
:func:`~repro.core.pipeline_degree.oracle_integer_degree` -- same degree,
bit-identical ``time_ms`` -- at roughly four orders of magnitude less
cost per context.

Solutions are memoized per session in the bounded LRU of a
:class:`~repro.core.context.SolverContext` keyed on ``(context,
r_max)``; its exact counters (contexts solved, cache hits, batch calls
and sizes) let sessions assert "this sweep solved N contexts in one
batch" the same way the planner's profile caches do.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SolverError
from .cases import Case, analytic_time_batch, classify_batch
from .constraints import ContextArrays, PipelineContext
from .context import SolverContext
# Safe non-lazy import: pipeline_degree only imports this module inside
# function bodies, so there is no import cycle at module level.
from .pipeline_degree import DEFAULT_MAX_DEGREE, DegreeSolution

#: same tie-break tolerance as the scalar oracle: a later degree must
#: beat the incumbent by more than this to win.
_TIE_TOL = 1e-12


def _evaluate_batch(ctxs: Sequence[PipelineContext], r_max: int):
    """Solve a batch of *distinct, uncached* contexts in one array pass.

    Returns one :class:`~repro.core.pipeline_degree.DegreeSolution` per
    context, in order.
    """
    arrays = ContextArrays.pack(ctxs)
    degrees = np.arange(1, r_max + 1, dtype=float).reshape(1, -1)
    cases = classify_batch(arrays, degrees)
    times = analytic_time_batch(arrays, degrees, cases=cases)

    # The oracle's sequential tie-break, vectorized across contexts: a
    # later degree only displaces the incumbent by beating it by > tol.
    n = len(ctxs)
    best_t = np.full(n, np.inf)
    best_idx = np.zeros(n, dtype=int)
    for j in range(r_max):
        better = times[:, j] < best_t - _TIE_TOL
        best_t = np.where(better, times[:, j], best_t)
        best_idx = np.where(better, j, best_idx)

    rows = np.arange(n)
    best_cases = cases[rows, best_idx]

    # Diagnostic per-case minima over the *integer* degrees where each
    # case's region applies (inf when a case never occurs for a context).
    per_case: dict[Case, np.ndarray] = {}
    for case in Case:
        masked = np.where(cases == case.value, times, np.inf)
        per_case[case] = masked.min(axis=1)

    return tuple(
        DegreeSolution(
            degree=int(best_idx[i]) + 1,
            time_ms=float(best_t[i]),
            case=Case(int(best_cases[i])),
            continuous_degree=float(int(best_idx[i]) + 1),
            per_case_time_ms={
                case: float(per_case[case][i]) for case in Case
            },
        )
        for i in range(n)
    )


def solve_degrees_batch(
    ctxs: Sequence[PipelineContext],
    r_max: int = DEFAULT_MAX_DEGREE,
    solver_context: SolverContext | None = None,
) -> tuple[DegreeSolution, ...]:
    """Exact Algorithm-1 solutions for a whole batch of contexts.

    Duplicated contexts are deduplicated before evaluation and every
    solution is memoized in ``solver_context``, so repeated layers (the
    common case: every layer of a model shares one context) cost one
    solve across the entire session.

    Args:
        ctxs: pipeline contexts, any length, duplicates welcome.
        r_max: inclusive upper bound on the degree (must be >= 1).
        solver_context: the session's memo and counters; None uses a
            fresh one.

    Returns:
        One :class:`~repro.core.pipeline_degree.DegreeSolution` per input
        context, in input order -- each identical (degree, bit-identical
        time) to :func:`~repro.core.pipeline_degree.oracle_integer_degree`.

    Raises:
        SolverError: if ``r_max < 1``.
    """
    if r_max < 1:
        raise SolverError(f"r_max must be >= 1, got {r_max}")
    if solver_context is None:
        solver_context = SolverContext()
    return solver_context.batch_degrees(
        [(ctx, r_max) for ctx in ctxs],
        lambda keys: _evaluate_batch([ctx for ctx, _ in keys], r_max),
    )


def solve_degree(
    ctx: PipelineContext,
    r_max: int = DEFAULT_MAX_DEGREE,
    solver_context: SolverContext | None = None,
) -> DegreeSolution:
    """Single-context convenience wrapper over :func:`solve_degrees_batch`."""
    return solve_degrees_batch((ctx,), r_max, solver_context)[0]


# -- merged-comm (No-IIO) sweep ----------------------------------------------
#
# Algorithm 1's closed forms assume a dedicated inter-node stream; the
# FSMoE-No-IIO ablation serializes intra- with inter-node communication on
# one stream, so its per-phase degree comes from sweeping its *own*
# schedule's makespan.  The sweep used to build and event-simulate one
# task graph per candidate degree; the functions below replace that with
# a closed recurrence over the merged comm stream, bit-identical to the
# discrete-event engine.  It runs on plain floats, one degree at a time:
# at r_max = 16 each step would touch a 16-element array, where NumPy's
# per-call overhead costs far more than the arithmetic, so an array
# formulation across degrees was ~10x slower than this scalar loop.
#
# Why a recurrence is exact: on the merged stream the engine's priorities
# enforce a fixed structure per MoE block.  All r dispatches run first
# (priority base..base+r-1 beats everything), then the stream alternates
# AllGathers with fused ReduceScatter+Combine pairs -- a combine always
# follows its reduce-scatter back-to-back because C(i) outranks every
# remaining AG/RS the moment RS(i) completes.  The only dynamic choice
# left is "next AllGather or next fused pair", and the engine resolves it
# by readiness (is E(f) finished when the stream frees?) plus one
# event-order tie: when E(f) ends exactly as the stream frees, RS(f) is
# already in the ready heap *unless* the op that freed the stream is
# AG(f) itself (inserted before E(f), so its completion pops first).
# Layer blocks never overlap (each dense op depends on every combine of
# the previous block), so a phase is the sequential composition of
# per-block recurrences -- with absolute times carried through so every
# float add and max happens in the engine's order.


def merged_phase_times(
    ctxs: Sequence[PipelineContext],
    dense_ms: Sequence[float],
    r_max: int = DEFAULT_MAX_DEGREE,
    *,
    dense_first: bool = True,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Makespans of one merged-comm phase at every degree ``1..r_max``.

    Evaluates the 2-stream (merged comm) schedule of a whole stack --
    ``ctxs``/``dense_ms`` in *execution* order -- at every integer
    pipeline degree, one scalar recurrence per degree.  Entry ``j`` of
    the result is bit-identical to ``simulate(build_iteration_graph(spec,
    phase)).makespan_ms`` at degree ``j + 1``.

    Args:
        ctxs: per-layer pipeline contexts, execution order (reverse the
            stack for a backward phase).
        dense_ms: per-layer non-MoE durations, same order.
        r_max: inclusive upper bound on the degree (must be >= 1).
        dense_first: True for a forward phase (dense precedes each MoE
            block), False for backward (dense follows it).
        start: per-degree entry times, for composing phases into a full
            iteration (None = the phase starts at 0).

    Returns:
        ``(r_max,)`` float64 array of phase makespans in ms.

    Raises:
        SolverError: if ``r_max < 1`` or the lengths disagree.
    """
    if r_max < 1:
        raise SolverError(f"r_max must be >= 1, got {r_max}")
    ctxs = list(ctxs)
    dense_ms = [float(dense) for dense in dense_ms]
    if len(ctxs) != len(dense_ms):
        raise SolverError(
            f"{len(ctxs)} contexts but {len(dense_ms)} dense durations"
        )
    layers = list(zip(ctxs, dense_ms))
    times = np.zeros(r_max)
    for j in range(r_max):
        t = 0.0 if start is None else float(start[j])
        for ctx, dense in layers:
            if dense_first:
                t = _merged_block_end(ctx, j + 1, t + dense)
            else:
                t = _merged_block_end(ctx, j + 1, t) + dense
        times[j] = t
    return times


def _merged_block_end(ctx: PipelineContext, r: int, entry: float) -> float:
    """Finish time of one MoE block on the merged stream at degree ``r``.

    ``entry`` is when the block's dispatches may start (the preceding
    dense op's finish).  Plain floats throughout: at the default
    ``r_max`` of 16 the recurrence is a few dozen adds and maxes per
    degree, far below the per-call overhead of array operations.
    """
    rf = float(r)
    # Per-chunk op times (LinearPerfModel.chunk_time_ms).
    t_d = float(ctx.a2a.chunk_time_ms(ctx.n_a2a, rf))
    t_g = float(ctx.ag.chunk_time_ms(ctx.n_ag, rf))
    t_s = float(ctx.rs.chunk_time_ms(ctx.n_rs, rf))
    t_e = float(ctx.exp.chunk_time_ms(ctx.n_exp, rf))
    # Dispatch prologue: D(0..r-1) back to back on the comm stream.
    t = entry
    for _ in range(r):
        t = t + t_d
    # AG / fused RS+C slots.  te[i] = end of E(i).
    te = [0.0] * r
    a = 0  # next AllGather index
    f = 0  # next fused RS+C index
    last_was_ag = False
    while f < r:
        te_f = te[f]
        # Exact-tie event order: E(f)'s completion pops before the op
        # that freed the stream unless that op is AG(f) itself.
        if a >= r or (
            f < a
            and (
                te_f < t
                or (te_f == t and not (last_was_ag and a == f + 1))
            )
        ):
            # Fused slot: RS(f) then C(f) back to back.
            t = (max(t, te_f) + t_s) + t_d
            f += 1
            last_was_ag = False
        else:
            # AllGather slot: also settles E(a)'s completion time.
            end_ag = t + t_g
            te_prev = te[a - 1] if a > 0 else entry
            te[a] = max(end_ag, te_prev) + t_e
            t = end_ag
            a += 1
            last_was_ag = True
    return t


def merged_iteration_times(
    ctxs_fw: Sequence[PipelineContext],
    dense_fw_ms: Sequence[float],
    ctxs_bw: Sequence[PipelineContext],
    dense_bw_ms: Sequence[float],
    gar_tail_ms: Sequence[float] = (),
    r_max: int = DEFAULT_MAX_DEGREE,
) -> np.ndarray:
    """Full-iteration merged-comm makespans at every degree ``1..r_max``.

    A whole training iteration on the 2-stream schedule with end-exposed
    gradient synchronization (the Tutel/PipeMoE shape, ``GarMode.END``):
    the forward phase, the backward phase entered at the forward's
    finish, then the serial Gradient-AllReduce tail.  The tail is
    degree-independent -- each AllReduce depends on its predecessor and
    starts at the last dense op's finish -- so it composes as plain
    sequential adds, in layer order, exactly like the task graph's.

    Args (all in *forward* stack order; the backward reversal happens
    here):
        ctxs_fw / dense_fw_ms: forward contexts and dense durations.
        ctxs_bw / dense_bw_ms: backward contexts and dense durations.
        gar_tail_ms: per-layer end-of-iteration AllReduce durations
            (entries <= 0 are skipped, like the graph builder does).
        r_max: inclusive upper bound on the degree.

    Returns:
        ``(r_max,)`` array of iteration makespans, bit-identical to the
        event-simulated ``phase="both"`` graph at each degree.
    """
    forward_end = merged_phase_times(
        ctxs_fw, dense_fw_ms, r_max, dense_first=True
    )
    times = merged_phase_times(
        list(reversed(list(ctxs_bw))),
        list(reversed(list(dense_bw_ms))),
        r_max,
        dense_first=False,
        start=forward_end,
    )
    for tail in gar_tail_ms:
        if tail > 0:
            times = times + tail
    return times


def best_swept_degree(times: Sequence[float]) -> tuple[int, float]:
    """The oracle's ascending tie-break over per-degree times.

    ``times[j]`` is the objective at degree ``j + 1``; a later degree
    only displaces the incumbent by beating it by more than the shared
    tolerance -- the single definition every swept-degree caller (the
    merged-comm pickers here, Tutel's oracle) reduces with.

    Returns:
        ``(degree, time)`` of the winner.
    """
    best_r, best_t = 1, float("inf")
    for j, t in enumerate(times):
        if t < best_t - _TIE_TOL:
            best_t = float(t)
            best_r = j + 1
    return best_r, best_t


def solve_merged_phase_degree(
    ctxs: Sequence[PipelineContext],
    dense_ms: Sequence[float],
    r_max: int = DEFAULT_MAX_DEGREE,
    *,
    dense_first: bool = True,
) -> tuple[int, float]:
    """Best shared degree for one merged-comm phase of a whole stack.

    Sweeps :func:`merged_phase_times` and reduces with
    :func:`best_swept_degree`, so the result matches the
    simulate-per-degree sweep exactly.

    Returns:
        ``(degree, phase_makespan_ms)`` at the chosen degree.
    """
    times = merged_phase_times(
        ctxs, dense_ms, r_max, dense_first=dense_first
    )
    return best_swept_degree(times)
