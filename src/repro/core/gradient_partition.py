"""Adaptive gradient partitioning for backpropagation (paper §5).

Backward through a stack of *generalized layers* (an MoE layer plus the
dense work before the next one) produces a stream of dense-parameter
gradients that must be AllReduced across DP workers.  Because both
Gradient-AllReduce and AlltoAll are inter-node, the AllReduce cannot simply
run concurrently with the MoE layer; FSMoE instead:

* **Step 1** (paper Eq. 3/4): slices gradients greedily into the
  *overlappable windows* of later-processed layers -- the idle inter-node
  stream time inside each MoE span (``t_olp_moe``, computed from the
  case formulas at ``t_gar = 0``) plus the dense backward time
  (``t_olp_dense``).  These slices ride for free.
* **Step 2** (paper Eq. 5): assigns the residual gradients to the MoE
  layers' ``t_gar`` slots, where they stretch the pipeline according to
  Algorithm 1's ``f_moe(t_gar)``, minimizing total stretched time plus the
  exposed tail AllReduce.  Solved with differential evolution, as in the
  paper (:mod:`repro.core.de`, the in-tree DE pinned to SciPy's in the
  tests).

The Step-2 objective is evaluated for a **whole DE population in one
NumPy pass**: the availability repair runs as a
per-layer recurrence over ``(candidates,)`` columns, every layer's
``f_moe`` curve is interpolated for all candidates at once, and the
AllReduce model is applied array-wise.  A scalar per-candidate path is
kept as the reference, reached only through an explicit
``step2_impl="scalar"`` argument; both paths execute the same IEEE
operation sequence per candidate, so the same seed yields bit-identical
plans (pinned in the tests).

Layers are indexed in *forward* order; backward processes index
``n_l - 1`` first.  A layer's own gradients only become available after
its backward finishes, so they can only ride in layers processed later
(paper constraint in Eq. 5); the plan enforces this availability by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import SolverError
from .cases import overlappable_time, overlappable_time_merged_comm
from .constraints import PipelineContext
from .context import SolverContext
from .de import differential_evolution
from .perf_model import LinearPerfModel
from .pipeline_degree import (
    DEFAULT_MAX_DEGREE,
    DegreeSolution,
    solve_degrees,
)

#: Step-2 solver choices accepted by :func:`plan_gradient_partition`.
#: ``"de"`` is the paper's differential evolution (global, slower),
#: ``"slsqp"`` a local gradient-based solve (order-of-magnitude faster,
#: near-identical placements on the Table-4 grid), ``"none"`` skips
#: Step 2 entirely (all residual gradients go to the tail).
STEP2_SOLVERS = ("de", "slsqp", "none")

#: Step-2 objective implementations.  ``"batch"`` (the default) evaluates
#: a whole DE population per NumPy pass; ``"scalar"`` is the one
#: candidate-at-a-time reference kept for cross-checking, selected with
#: the ``step2_impl`` argument of :func:`plan_gradient_partition`.
STEP2_IMPLS = ("batch", "scalar")


@dataclass(frozen=True)
class GeneralizedLayer:
    """One MoE layer plus its surrounding dense work, in the backward phase.

    Attributes:
        ctx: backward-phase pipeline context (``t_gar = 0``).
        dense_overlappable_ms: non-MoE backward time during which an
            AllReduce can run without contention (attention backward etc.;
            measurable before training, paper §5.2).
        grad_bytes: dense-parameter gradient bytes this layer produces.
    """

    ctx: PipelineContext
    dense_overlappable_ms: float
    grad_bytes: float

    def __post_init__(self) -> None:
        if self.dense_overlappable_ms < 0:
            raise SolverError(
                f"dense_overlappable_ms must be >= 0, "
                f"got {self.dense_overlappable_ms}"
            )
        if self.grad_bytes < 0:
            raise SolverError(f"grad_bytes must be >= 0, got {self.grad_bytes}")


@dataclass(frozen=True)
class GarPlacement:
    """Where every gradient byte is reduced (indices in forward order).

    Plain numbers only -- this is the part of a partition plan the
    task-graph builder consumes and the part
    :class:`~repro.planner.plan.IterationPlan` serializes, so persisted
    plans replay without re-running the partitioner.

    Attributes:
        moe_window_bytes: Step-1 bytes hidden in each layer's MoE bubbles.
        dense_window_bytes: Step-1 bytes hidden in each layer's dense
            backward.
        extra_bytes: Step-2 bytes assigned to each layer's ``t_gar`` slot.
        tail_bytes: residual reduced after the whole backward pass.
        t_gar_ms: AllReduce time injected into each layer's Algorithm-1
            call (covers window + extra bytes; the window part is absorbed
            for free by the case formulas).
    """

    moe_window_bytes: tuple[float, ...]
    dense_window_bytes: tuple[float, ...]
    extra_bytes: tuple[float, ...]
    tail_bytes: float
    t_gar_ms: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.moe_window_bytes)
        if not (
            len(self.dense_window_bytes)
            == len(self.extra_bytes)
            == len(self.t_gar_ms)
            == n
        ):
            raise SolverError(
                "GarPlacement per-layer tuples must have equal length"
            )

    @property
    def moe_ar_bytes(self) -> tuple[float, ...]:
        """Total AllReduce bytes placed inside each layer's MoE span."""
        return tuple(
            window + extra
            for window, extra in zip(self.moe_window_bytes, self.extra_bytes)
        )


@dataclass(frozen=True)
class GradientPartitionPlan:
    """A byte placement plus the solver state that produced it.

    The placement fields are exposed as read-through properties, so the
    plan reads exactly like its :class:`GarPlacement` with Algorithm-1
    solutions attached.

    Attributes:
        placement: where every gradient byte is reduced.
        solutions: per-layer Algorithm-1 results at the final ``t_gar``.
        tail_ms: exposed tail AllReduce time.
    """

    placement: GarPlacement
    solutions: tuple[DegreeSolution, ...]
    tail_ms: float

    @property
    def moe_window_bytes(self) -> tuple[float, ...]:
        """Step-1 bytes hidden in each layer's MoE bubbles."""
        return self.placement.moe_window_bytes

    @property
    def dense_window_bytes(self) -> tuple[float, ...]:
        """Step-1 bytes hidden in each layer's dense backward."""
        return self.placement.dense_window_bytes

    @property
    def extra_bytes(self) -> tuple[float, ...]:
        """Step-2 bytes assigned to each layer's ``t_gar`` slot."""
        return self.placement.extra_bytes

    @property
    def tail_bytes(self) -> float:
        """Residual reduced after the whole backward pass."""
        return self.placement.tail_bytes

    @property
    def t_gar_ms(self) -> tuple[float, ...]:
        """AllReduce time injected into each layer's Algorithm-1 call."""
        return self.placement.t_gar_ms

    @property
    def moe_ar_bytes(self) -> tuple[float, ...]:
        """Total AllReduce bytes placed inside each layer's MoE span."""
        return self.placement.moe_ar_bytes

    def total_estimated_backward_ms(self) -> float:
        """Analytic backward time: stretched MoE spans + exposed tail.

        Dense backward time is not included (it is common to every plan).
        """
        return sum(s.time_ms for s in self.solutions) + self.tail_ms


def _moe_windows_ms(
    layers: tuple[GeneralizedLayer, ...],
    r_max: int,
    merged_comm: bool,
    solver_context: SolverContext,
) -> tuple[float, ...]:
    """Overlappable inter-node idle time per layer at its t_gar=0 degree.

    All layers' zero-GAR Algorithm-1 solves go through one batched call.
    """
    zero_ctxs = [layer.ctx.with_t_gar(0.0) for layer in layers]
    solutions = solve_degrees(
        zero_ctxs, r_max, solver_context=solver_context
    )
    window = (
        overlappable_time_merged_comm if merged_comm else overlappable_time
    )
    return tuple(
        window(layer.ctx, float(solution.degree))
        for layer, solution in zip(layers, solutions)
    )


def _step1_fill(
    layers: tuple[GeneralizedLayer, ...],
    ar_model: LinearPerfModel,
    moe_windows_ms: tuple[float, ...],
) -> tuple[list[float], list[float], list[float]]:
    """Greedy window fill in backward order (paper Eq. 3/4).

    Every window inversion (the paper's ``g_inv``) happens in one array
    pass up front; only the data-dependent pending-byte recurrence walks
    the layers.  The recurrence itself has a reversed-cumsum closed form
    (``p = D + running-max(g - D)``) but re-associating the adds is not
    IEEE-bit-identical to the sequential fill, and committed plans pin the
    sequential bytes -- so the per-layer min/subtract steps stay ordered
    and the tests pin this function against the plain-Python reference.

    Returns:
        ``(moe_window_bytes, dense_window_bytes, residual_before)`` where
        ``residual_before[i]`` is the pending gradient volume when layer
        ``i``'s backward starts, after window absorption -- the
        availability bound for Step 2.
    """
    n = len(layers)
    moe_caps = ar_model.inverse_array(np.asarray(moe_windows_ms, dtype=float))
    dense_caps = ar_model.inverse_array(
        np.asarray(
            [layer.dense_overlappable_ms for layer in layers], dtype=float
        )
    )
    moe_bytes = [0.0] * n
    dense_bytes = [0.0] * n
    residual_before = [0.0] * n
    pending = 0.0
    for i in reversed(range(n)):
        take_moe = min(pending, float(moe_caps[i]))
        pending -= take_moe
        moe_bytes[i] = take_moe
        take_dense = min(pending, float(dense_caps[i]))
        pending -= take_dense
        dense_bytes[i] = take_dense
        residual_before[i] = pending
        pending += layers[i].grad_bytes
    return moe_bytes, dense_bytes, residual_before


class _MoETimeInterpolator:
    """Cached ``t_gar -> f_moe`` curves, one per distinct context.

    ``f_moe`` (Algorithm 1's optimal layer time as a function of injected
    AllReduce time) is continuous and non-decreasing; a 33-point grid per
    context keeps the differential-evolution objective cheap even for
    33-layer models where every layer shares one context.  All curves of
    a solve are prebuilt with :meth:`prepare` -- every distinct layer
    context x grid point lands in one batched Algorithm-1 call, so the
    DE/SLSQP objective only ever interpolates: scalars through
    :meth:`time_ms`, whole populations through :meth:`times_matrix`.
    """

    GRID_POINTS = 33

    def __init__(
        self, r_max: int, t_gar_max: float, solver_context: SolverContext
    ) -> None:
        self._r_max = r_max
        self._solver_context = solver_context
        self._t_max = max(t_gar_max, 1e-9)
        self._grid = np.linspace(0.0, self._t_max, self.GRID_POINTS)
        self._curves: dict[PipelineContext, np.ndarray] = {}

    def prepare(self, ctxs: Sequence[PipelineContext]) -> None:
        """Build the curves of every distinct uncached context at once."""
        pending = [
            ctx for ctx in dict.fromkeys(ctxs) if ctx not in self._curves
        ]
        if not pending:
            return
        batched = [
            ctx.with_t_gar(float(t)) for ctx in pending for t in self._grid
        ]
        solutions = solve_degrees(
            batched, self._r_max, solver_context=self._solver_context
        )
        times = np.array([s.time_ms for s in solutions]).reshape(
            len(pending), self.GRID_POINTS
        )
        for i, ctx in enumerate(pending):
            self._curves[ctx] = times[i]

    def time_ms(self, ctx: PipelineContext, t_gar: float) -> float:
        """Interpolated optimal layer time at ``t_gar``."""
        times = self._curves.get(ctx)
        if times is None:
            self.prepare((ctx,))
            times = self._curves[ctx]
        return float(np.interp(t_gar, self._grid, times))

    def times_matrix(
        self,
        ctxs: Sequence[PipelineContext],
        t_gar_matrix: np.ndarray,
    ) -> np.ndarray:
        """Interpolate all layers x candidates in one pass per layer.

        ``t_gar_matrix[:, i]`` holds every candidate's ``t_gar`` for
        ``ctxs[i]``; the result has the same shape, each entry
        bit-identical to the corresponding scalar :meth:`time_ms` call
        (``np.interp`` applies the same lerp per element either way).
        """
        self.prepare(ctxs)
        out = np.empty_like(t_gar_matrix, dtype=float)
        for i, ctx in enumerate(ctxs):
            out[:, i] = np.interp(
                t_gar_matrix[:, i], self._grid, self._curves[ctx]
            )
        return out


def _repair(
    proposal: np.ndarray, residual_before: list[float]
) -> np.ndarray:
    """Clip a Step-2 proposal to the availability prefix constraints.

    Processing order is backward (high index first); cumulative assignment
    up to layer ``i`` may not exceed the gradients already produced and
    still pending there.
    """
    n = len(residual_before)
    repaired = np.zeros(n)
    consumed = 0.0
    for i in reversed(range(n)):
        available = max(0.0, residual_before[i] - consumed)
        repaired[i] = min(max(0.0, proposal[i]), available)
        consumed += repaired[i]
    return repaired


def _repair_matrix(
    proposals: np.ndarray, residual_before: list[float]
) -> np.ndarray:
    """:func:`_repair` for a whole ``(candidates, n_layers)`` population.

    The consumed-bytes recurrence is data-dependent along the layer axis,
    so the loop walks layers (short) while every candidate's clip runs as
    one array op (wide) -- each row bit-identical to :func:`_repair` on
    that candidate, since ``np.minimum``/``np.maximum`` and the ordered
    adds mirror the scalar ``min``/``max`` exactly.
    """
    n = len(residual_before)
    repaired = np.zeros_like(proposals, dtype=float)
    consumed = np.zeros(proposals.shape[0])
    for i in reversed(range(n)):
        available = np.maximum(0.0, residual_before[i] - consumed)
        repaired[:, i] = np.minimum(
            np.maximum(0.0, proposals[:, i]), available
        )
        consumed = consumed + repaired[:, i]
    return repaired


def plan_gradient_partition(
    layers: list[GeneralizedLayer] | tuple[GeneralizedLayer, ...],
    ar_model: LinearPerfModel,
    *,
    r_max: int = DEFAULT_MAX_DEGREE,
    merged_comm: bool = False,
    solver: str | None = None,
    use_differential_evolution: bool = True,
    de_maxiter: int = 40,
    de_popsize: int = 12,
    seed: int = 0,
    step2_impl: str = "batch",
    solver_context: SolverContext | None = None,
) -> GradientPartitionPlan:
    """Produce the full two-step partitioning plan for one backward pass.

    Args:
        layers: generalized layers in forward order.
        ar_model: fitted Gradient-AllReduce model (bytes -> ms).
        r_max: pipeline-degree cap forwarded to Algorithm 1.
        merged_comm: size the MoE windows for a merged comm stream
            (FSMoE-No-IIO) instead of a dedicated inter-node stream.
        solver: Step-2 solver, one of :data:`STEP2_SOLVERS`, or ``None``
            to defer to the legacy flag.  ``"de"`` reproduces the paper
            (§5.3); ``"slsqp"`` trades the global search for a much
            cheaper local solve; ``"none"`` skips Step 2 (all residual
            gradients go to the tail).
        use_differential_evolution: legacy ablation switch.  Precedence
            with ``solver``: when ``solver`` is ``None`` (the default),
            ``False`` selects ``"none"`` and ``True`` selects ``"de"``;
            when ``solver="de"`` is passed explicitly, ``False`` still
            downgrades it to ``"none"`` (the historical behavior, which
            ablation callers rely on); an explicit ``"slsqp"`` or
            ``"none"`` is always honored as written.
        de_maxiter / de_popsize / seed: differential-evolution knobs
            (paper §5.3 uses DE since this runs once before training).
        step2_impl: Step-2 objective implementation, one of
            :data:`STEP2_IMPLS`.  Both implementations produce
            bit-identical plans for the same seed; ``"scalar"`` is the
            reference kept for cross-checking and timing.
        solver_context: the session's Algorithm-1 memos and counters
            (Step-2 objective passes are counted there too); None uses
            a fresh one.

    Raises:
        SolverError: for an empty layer list, unknown solver, or unknown
            implementation.
    """
    if not layers:
        raise SolverError("plan_gradient_partition needs at least one layer")
    if solver is not None and solver not in STEP2_SOLVERS:
        raise SolverError(
            f"unknown Step-2 solver {solver!r}; choose from {STEP2_SOLVERS}"
        )
    if step2_impl not in STEP2_IMPLS:
        raise SolverError(
            f"unknown Step-2 implementation {step2_impl!r}; "
            f"choose from {STEP2_IMPLS}"
        )
    if solver_context is None:
        solver_context = SolverContext()
    if solver is None:
        solver = "de" if use_differential_evolution else "none"
    elif solver == "de" and not use_differential_evolution:
        solver = "none"
    layer_tuple = tuple(layers)
    n = len(layer_tuple)

    moe_windows_ms = _moe_windows_ms(
        layer_tuple, r_max, merged_comm, solver_context
    )
    moe_window_bytes, dense_window_bytes, residual_before = _step1_fill(
        layer_tuple, ar_model, moe_windows_ms
    )
    total_residual = residual_before[0] + layer_tuple[0].grad_bytes
    # residual_before[0] excludes layer 0's own grads, which are produced
    # last and can never ride anywhere: they always reach the tail.

    extra = np.zeros(n)
    if solver != "none" and total_residual > 0 and n > 0:
        residual_cap = max(residual_before) if residual_before else 0.0
        if residual_cap > 0:
            t_gar_max = ar_model.time_ms(
                max(moe_window_bytes) + residual_cap
            )
            interp = _MoETimeInterpolator(r_max, t_gar_max, solver_context)
            ctxs = [layer.ctx for layer in layer_tuple]
            interp.prepare(ctxs)
            window_bytes = np.asarray(moe_window_bytes, dtype=float)

            def objective_bytes(proposal: np.ndarray) -> float:
                # One candidate.  Left-to-right accumulation, mirrored
                # op-for-op by the batched pass below so both paths yield
                # the same IEEE result per candidate.
                solver_context.record_step2(1)
                assigned = 0.0
                total = 0.0
                for i, layer in enumerate(layer_tuple):
                    assigned += float(proposal[i])
                    t_gar = ar_model.time_ms(
                        moe_window_bytes[i] + float(proposal[i])
                    )
                    total += interp.time_ms(layer.ctx, t_gar)
                tail = total_residual - assigned
                total += ar_model.time_ms(tail)
                return total

            def objective_bytes_batch(proposals: np.ndarray) -> np.ndarray:
                # A whole (candidates, n_layers) population in one pass.
                solver_context.record_step2(proposals.shape[0])
                t_gar = ar_model.time_ms_array(
                    window_bytes[None, :] + proposals
                )
                times = interp.times_matrix(ctxs, t_gar)
                assigned = np.zeros(proposals.shape[0])
                total = np.zeros(proposals.shape[0])
                for i in range(n):
                    assigned = assigned + proposals[:, i]
                    total = total + times[:, i]
                tail = total_residual - assigned
                return total + ar_model.time_ms_array(tail)

            if solver == "de":
                # The DE hands over a (candidates, n_layers) population
                # of unit-box proposals.
                if step2_impl == "batch":

                    def objective(u: np.ndarray) -> np.ndarray:
                        return objective_bytes_batch(
                            _repair_matrix(u * residual_cap, residual_before)
                        )

                else:

                    def objective(u: np.ndarray) -> np.ndarray:
                        return np.array([
                            objective_bytes(
                                _repair(row * residual_cap, residual_before)
                            )
                            for row in u
                        ])

                best = differential_evolution(
                    objective,
                    n,
                    maxiter=de_maxiter,
                    popsize=de_popsize,
                    seed=seed,
                )
                extra = _repair(best * residual_cap, residual_before)
            else:  # slsqp
                from scipy.optimize import minimize

                # Local solve over raw byte assignments.  Feasibility (the
                # availability prefix constraints _repair enforces) maps to
                # linear inequalities: gradients assigned to layers i..n-1
                # must already be pending when layer i's backward starts.
                constraints = [
                    {
                        "type": "ineq",
                        "fun": (
                            lambda x, i=i: residual_before[i]
                            - float(np.sum(x[i:]))
                        ),
                    }
                    for i in range(n)
                ]
                x0 = _repair(
                    np.full(n, total_residual / n), residual_before
                )
                result = minimize(
                    lambda x: objective_bytes(np.clip(x, 0.0, None)),
                    x0,
                    method="SLSQP",
                    bounds=[(0.0, residual_cap)] * n,
                    constraints=constraints,
                    options={"maxiter": 60, "ftol": 1e-6},
                )
                extra = _repair(result.x, residual_before)

    assigned = float(np.sum(extra))
    tail_bytes = max(0.0, total_residual - assigned)

    t_gar_ms = tuple(
        ar_model.time_ms(moe_window_bytes[i] + float(extra[i]))
        for i in range(n)
    )
    solutions = solve_degrees(
        [
            layer_tuple[i].ctx.with_t_gar(t_gar_ms[i])
            for i in range(n)
        ],
        r_max,
        solver_context=solver_context,
    )
    return GradientPartitionPlan(
        placement=GarPlacement(
            moe_window_bytes=tuple(moe_window_bytes),
            dense_window_bytes=tuple(dense_window_bytes),
            extra_bytes=tuple(float(x) for x in extra),
            tail_bytes=tail_bytes,
            t_gar_ms=t_gar_ms,
        ),
        solutions=solutions,
        tail_ms=ar_model.time_ms(tail_bytes),
    )
