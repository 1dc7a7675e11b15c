"""Cold-planning performance: the batched Algorithm-1 solver vs SLSQP.

Plans the Fig. 7-shaped grid (varied sequence length L x varied world
size P) twice from a fully cold state -- each on a new profile store,
whose solver context starts empty: once with the default batched exact
solver, once with the paper's SLSQP path (``degree_solver="slsqp"``) --
plus a warm re-run against the populated store, and records all three
wall-times in ``benchmarks/results/BENCH_planner.json``, alongside a
``step2`` series (batched vs scalar partition objective, measured by
:func:`benchmarks.test_perf_step2.measure_step2`).

Assertions:

* the batched path is >= 5x faster than the SLSQP path on the same
  machine (in practice it is orders of magnitude faster);
* both solvers plan iterations within 2% of each other (the batched
  sweep is exact; SLSQP is the near-optimal relaxation);
* with ``REPRO_PERF_SMOKE=1`` (the CI perf-smoke step), cold batched
  planning must not regress more than 3x over the committed baseline in
  ``BENCH_planner.json`` (with a 1 s absolute floor so machine-speed
  differences at the millisecond scale cannot trip it).
"""

from __future__ import annotations

import json
import platform
import time

from repro import FSMoE, PlanCompiler, ProfileStore
from repro.api.registry import get_cluster
from repro.models import get_model_preset, layer_spec_for
from repro.report import ArtifactResult, ReportConfig

from .conftest import RESULTS_DIR
from .test_perf_step2 import measure_step2

RESULTS_PATH = RESULTS_DIR / "BENCH_planner.json"

#: cold planning must beat the SLSQP path by at least this factor.
MIN_SPEEDUP = 5.0

#: CI regression guard: cold batched planning may grow at most this much
#: over the recorded baseline (plus an absolute floor, below).
MAX_REGRESSION = 3.0
REGRESSION_FLOOR_S = 1.0


def _fig7_grid(full: bool):
    """Varied L x varied P, Mixtral-7B on Testbed-A subsets."""
    seq_lens = (512, 1024, 2048) if full else (512, 1024)
    world_sizes = (16, 32, 48) if full else (16, 32)
    clusters = [get_cluster("A", total_gpus=g) for g in world_sizes]
    preset = get_model_preset("Mixtral-7B")
    specs = [
        layer_spec_for(preset, batch_size=1, seq_len=s, num_experts=4)
        for s in seq_lens
    ]
    return specs, clusters


def _plan_grid(specs, clusters, store):
    """Makespans of the grid, planned serially on ``store``.

    Grid order is clusters (outer) x specs; each point compiles a
    2-layer stack under FSMoE and simulates the plan.
    """
    system = FSMoE(solver="slsqp")
    makespans = []
    for cluster in clusters:
        compiler = PlanCompiler(cluster, store=store)
        for spec in specs:
            plan = compiler.compile([spec] * 2, system)
            makespans.append(plan.makespan_ms())
    return makespans


def _cold_plan(specs, clusters, solver: str):
    """One fully cold sweep of the grid under the given degree solver.

    The sweep runs on a new store, so its solver context starts empty
    and its counters describe exactly this run (including the true
    largest batch).
    """
    start = time.perf_counter()
    store = ProfileStore(degree_solver=solver)
    makespans = _plan_grid(specs, clusters, store)
    return time.perf_counter() - start, makespans, store


def produce(workspace, config: ReportConfig) -> ArtifactResult:
    """Measure cold/warm/SLSQP planning and build the JSON baseline.

    The timings are machine-dependent, so the artifact is registered as
    non-deterministic: ``repro report`` rewrites the files, ``repro
    report --check`` skips them.
    """
    specs, clusters = _fig7_grid(config.full)

    cold_batch_s, batch_times, batch_store = _cold_plan(
        specs, clusters, "batch"
    )
    batch_stats = batch_store.solver_context.stats

    # Warm re-run against the populated profile store and solver memos.
    start = time.perf_counter()
    warm_times = _plan_grid(specs, clusters, batch_store)
    warm_s = time.perf_counter() - start

    cold_slsqp_s, slsqp_times, _ = _cold_plan(specs, clusters, "slsqp")

    # The Step-2 partition solver head to head (batched vs scalar
    # objective) on the full Testbed A (the grid's subsets leave no
    # Step-2 residual to solve for); perf-step2's own artifact asserts
    # on these numbers, this baseline just records them alongside the
    # planner timings.
    step2 = measure_step2(batch_store, get_cluster("A"))

    # Cross-check: the exact sweep and the relaxation agree closely.
    max_gap = max(
        abs(batch - slsqp) / slsqp
        for batch, slsqp in zip(batch_times, slsqp_times)
    )
    warm_identical = warm_times == batch_times

    speedup = cold_slsqp_s / cold_batch_s
    payload = {
        "grid": {
            "seq_lens": sorted({s.seq_len for s in specs}),
            "world_sizes": sorted({c.total_gpus for c in clusters}),
            "points": len(batch_times),
            "num_layers": 2,
        },
        "cold_batch_s": round(cold_batch_s, 4),
        "warm_batch_s": round(warm_s, 4),
        "cold_slsqp_s": round(cold_slsqp_s, 4),
        "speedup_vs_slsqp": round(speedup, 1),
        "solver": {
            "solves": batch_stats.solves,
            "cache_hits": batch_stats.cache_hits,
            "batch_calls": batch_stats.batch_calls,
            "max_batch_size": batch_stats.max_batch_size,
        },
        "step2": {
            "num_layers": step2["num_layers"],
            "de_maxiter": step2["de_maxiter"],
            "batch_s": round(step2["batch"]["wall_s"], 4),
            "scalar_s": round(step2["scalar"]["wall_s"], 4),
            "speedup": round(step2["speedup"], 1),
            "objective_calls": step2["batch"]["objective_calls"],
            "candidates": step2["batch"]["candidates"],
        },
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    summary = (
        f"cold sweep ({len(batch_times)} points): "
        f"batch {cold_batch_s * 1e3:.1f} ms, "
        f"slsqp {cold_slsqp_s * 1e3:.1f} ms "
        f"({speedup:.0f}x), warm {warm_s * 1e3:.1f} ms"
    )
    return ArtifactResult(
        artifact="perf-planner",
        outputs={
            "perf_cold_plan.txt": summary + "\n",
            "BENCH_planner.json": json.dumps(payload, indent=2) + "\n",
        },
        data={
            "cold_batch_s": cold_batch_s,
            "speedup": speedup,
            "max_gap": max_gap,
            "warm_identical": warm_identical,
        },
    )


def test_cold_plan_batch_vs_slsqp(workspace, report_config, emit_result,
                                  benchmark):
    baseline = None
    if RESULTS_PATH.exists():
        baseline = json.loads(RESULTS_PATH.read_text())

    result = benchmark.pedantic(
        produce, args=(workspace, report_config), rounds=1, iterations=1
    )
    emit_result(result)

    assert result.data["max_gap"] <= 0.02
    assert result.data["warm_identical"]
    assert result.data["speedup"] >= MIN_SPEEDUP

    if report_config.smoke and baseline is not None:
        limit = max(
            MAX_REGRESSION * float(baseline["cold_batch_s"]),
            REGRESSION_FLOOR_S,
        )
        assert result.data["cold_batch_s"] <= limit, (
            f"cold planning regressed: {result.data['cold_batch_s']:.3f} s "
            f"vs recorded baseline {baseline['cold_batch_s']} s "
            f"(limit {limit:.3f} s)"
        )
