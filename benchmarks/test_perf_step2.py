"""Step-2 partition-solver performance: batched vs scalar objective.

Runs the same differential-evolution Step-2 solve (Eq. 5) twice on the
§5 ablation stack (Mixtral-7B backward layers, Testbed A) -- once
through the default array-wise objective (``step2_impl="batch"``, one
NumPy pass per DE generation) and once through the per-candidate scalar
objective (``step2_impl="scalar"``) -- and records both wall times plus
the new Step-2 solver counters in ``benchmarks/results/perf_step2.txt``.

Assertions:

* both implementations return bit-identical plans (same seed, same
  trajectory -- the batched objective is an exact vectorization, not an
  approximation);
* the batched path is >= 5x faster than the scalar path;
* the counters prove the batching: both paths evaluate the same number
  of candidates, the batched one in far fewer objective calls.

:func:`measure_step2` is importable -- ``test_perf_cold_plan`` reuses
it to append a ``step2`` series to ``BENCH_planner.json`` (that file is
owned by the ``perf-planner`` artifact; two artifacts may not produce
one file).
"""

from __future__ import annotations

import time

from repro import standard_layout
from repro.api.registry import get_cluster
from repro.core.gradient_partition import (
    GeneralizedLayer,
    plan_gradient_partition,
)
from repro.models import MIXTRAL_7B, layer_spec_for
from repro.report import ArtifactResult, ReportConfig

#: the batched Step-2 objective must beat the scalar one by this factor.
MIN_SPEEDUP = 5.0


def _ablation_stack(store, cluster, num_layers):
    """The §5 ablation layers: Mixtral-7B backward on Testbed A."""
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    models = store.models(cluster, parallel)
    spec = layer_spec_for(
        MIXTRAL_7B, batch_size=1, seq_len=1024, num_experts=parallel.n_ep
    )
    profile = store.layer_profile(spec, parallel, models)
    layers = [
        GeneralizedLayer(
            ctx=profile.ctx_bw,
            dense_overlappable_ms=profile.dense_bw_ms,
            grad_bytes=profile.grad_bytes,
        )
        for _ in range(num_layers)
    ]
    return layers, models.allreduce


def measure_step2(store, cluster, *, num_layers=24, de_maxiter=40):
    """Time one Step-2 DE solve through both objective implementations.

    Both solves run in ``store``'s solver context.  Returns a dict with
    one entry per implementation (wall time plus the windowed ``step2_*``
    solver counters) and the derived cross-checks:
    ``speedup`` (scalar over batched wall time) and ``identical`` (the
    two plans compare equal, field for field).
    """
    layers, ar_model = _ablation_stack(store, cluster, num_layers)
    context = store.solver_context
    measured = {}
    plans = {}
    for impl in ("batch", "scalar"):
        before = context.stats
        start = time.perf_counter()
        plans[impl] = plan_gradient_partition(
            layers, ar_model, seed=0, de_maxiter=de_maxiter,
            step2_impl=impl, solver_context=context,
        )
        wall_s = time.perf_counter() - start
        window = context.stats - before
        measured[impl] = {
            "wall_s": wall_s,
            "objective_calls": window.step2_objective_calls,
            "candidates": window.step2_candidates,
        }
    if measured["batch"]["candidates"] == 0:
        raise ValueError(
            f"Step 2 was skipped on this stack ({num_layers} layers, "
            f"{cluster.name}): Step 1 absorbed every gradient byte, so "
            f"the timings would compare nothing"
        )
    measured["speedup"] = (
        measured["scalar"]["wall_s"] / measured["batch"]["wall_s"]
    )
    measured["identical"] = plans["batch"] == plans["scalar"]
    measured["num_layers"] = num_layers
    measured["de_maxiter"] = de_maxiter
    return measured


def produce(workspace, config: ReportConfig) -> ArtifactResult:
    """Measure the Step-2 objective implementations head to head.

    The timings are machine-dependent, so the artifact is registered as
    non-deterministic.
    """
    cluster = get_cluster("A")
    num_layers = MIXTRAL_7B.num_layers if config.full else 24
    measured = measure_step2(
        workspace.store, cluster, num_layers=num_layers
    )
    batch, scalar = measured["batch"], measured["scalar"]
    lines = [
        f"Step-2 DE solve, {num_layers}-layer Mixtral-7B backward "
        f"(Testbed A), maxiter={measured['de_maxiter']}:",
        f"  batch : {batch['wall_s'] * 1e3:8.1f} ms  "
        f"({batch['candidates']} candidates in "
        f"{batch['objective_calls']} objective calls)",
        f"  scalar: {scalar['wall_s'] * 1e3:8.1f} ms  "
        f"({scalar['candidates']} candidates in "
        f"{scalar['objective_calls']} objective calls)",
        f"  speedup: {measured['speedup']:.1f}x, plans identical: "
        f"{measured['identical']}",
    ]
    return ArtifactResult(
        artifact="perf-step2",
        outputs={"perf_step2.txt": "\n".join(lines) + "\n"},
        data=measured,
    )


def test_step2_batch_vs_scalar(workspace, report_config, emit_result,
                               benchmark):
    result = benchmark.pedantic(
        produce, args=(workspace, report_config), rounds=1, iterations=1
    )
    emit_result(result)

    batch, scalar = result.data["batch"], result.data["scalar"]
    assert result.data["identical"], (
        "batched and scalar Step-2 produced different plans"
    )
    # Both paths walk the same DE trajectory candidate for candidate;
    # the batched one folds each generation into one array pass.
    assert batch["candidates"] == scalar["candidates"] > 0
    assert batch["objective_calls"] < scalar["objective_calls"]
    assert scalar["objective_calls"] == scalar["candidates"]
    assert result.data["speedup"] >= MIN_SPEEDUP, (
        f"batched Step-2 only {result.data['speedup']:.1f}x faster "
        f"than scalar (floor {MIN_SPEEDUP}x)"
    )
