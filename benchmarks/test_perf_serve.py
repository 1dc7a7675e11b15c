"""Serving performance: the coalescing PlanService vs serial plan() loops.

Drives one deterministic duplicate-heavy request stream (many concurrent
users asking for a small set of distinct plans -- the serving shape the
ROADMAP's north star describes) through three execution models:

* ``serial_session``   -- one long-lived :class:`Workspace`, one
  blocking ``plan()`` call per request: the best a caller can do
  without the serving layer in one process;
* ``serial_per_request`` -- a fresh ``Workspace(root)`` per request:
  what independent one-shot callers sharing a root actually pay
  (measured on a subsample, reported as a rate);
* ``service``          -- the same stream submitted concurrently to one
  :class:`PlanService` and gathered.

Each mode opens its own workspaces, so it starts with its own empty
solver context and never inherits another's warm caches.  Results land in
``benchmarks/results/BENCH_serve.json``.

Assertions:

* plans from the service are bit-identical to the serial path;
* a pure duplicate burst deduplicates 100% beyond the first request;
* coalesced throughput >= 5x the serial session loop
  (>= 3x under ``REPRO_PERF_SMOKE=1``, where the stream is scaled down
  for CI wall-clock friendliness).
"""

from __future__ import annotations

import json
import platform
import tempfile
import time
from pathlib import Path

from repro import Workspace
from repro.report import ArtifactResult, ReportConfig
from repro.serve import (
    PlanService,
    duplicate_heavy_requests,
    run_serial_per_request,
    run_serial_session,
    run_service,
)

from .conftest import RESULTS_DIR

RESULTS_PATH = RESULTS_DIR / "BENCH_serve.json"

#: committed-run floor: coalesced service vs the serial session loop.
MIN_SPEEDUP = 5.0

#: CI smoke floor (scaled-down stream, shared runners).
SMOKE_MIN_SPEEDUP = 3.0


def _workload(config: ReportConfig) -> tuple[int, int, int]:
    """(total, distinct, depth) for the current run size."""
    if config.full:
        return 4000, 4, 12
    if config.smoke:
        return 600, 4, 8
    return 2500, 4, 12


def produce(workspace, config: ReportConfig) -> ArtifactResult:
    """Measure serving throughput and build the JSON baseline.

    Timing-dependent (registered non-deterministic); smoke runs omit
    the committed ``BENCH_serve.json`` so CI never rewrites the
    full-size baseline with scaled-down numbers.
    """
    total, distinct, depth = _workload(config)
    requests = duplicate_heavy_requests(total, distinct, depth=depth)

    with tempfile.TemporaryDirectory(prefix="repro-perf-serve-") as tmp:
        scratch = Path(tmp)
        serial = run_serial_session(requests, scratch / "serial")

        served = run_service(requests, scratch / "service")

        # The per-request baseline re-opens the workspace every call; a
        # subsample gives its rate without dominating the benchmark's
        # wall time (the stream is duplicate-heavy, so the subsample
        # still mixes every distinct request).
        per_request_n = min(total, 200)
        per_request = run_serial_per_request(
            requests[:per_request_n], scratch / "per-request"
        )

    bit_identical = all(
        mine.to_json() == theirs.to_json()
        for mine, theirs in zip(served.plans, serial.plans)
    )
    stats = served.stats
    speedup = serial.wall_s / served.wall_s
    speedup_per_request = served.throughput_rps / per_request.throughput_rps
    payload = {
        "workload": {
            "total_requests": total,
            "distinct_requests": distinct,
            "stack_depth": depth,
            "duplicate_fraction": round(1.0 - distinct / total, 4),
        },
        "serial_session_s": round(serial.wall_s, 4),
        "serial_session_rps": round(serial.throughput_rps, 1),
        "serial_per_request_s": round(per_request.wall_s, 4),
        "serial_per_request_n": per_request_n,
        "serial_per_request_rps": round(per_request.throughput_rps, 1),
        "service_s": round(served.wall_s, 4),
        "service_rps": round(served.throughput_rps, 1),
        "speedup_vs_serial": round(speedup, 1),
        "speedup_vs_per_request": round(speedup_per_request, 1),
        "bit_identical": bit_identical,
        "service": {
            "requests": stats.requests,
            "resolved": stats.resolved,
            "dedup_hits": stats.dedup_hits,
            "dedup_rate": round(stats.dedup_rate, 4),
            "batches": stats.batches,
            "max_batch": stats.max_batch,
            "mean_batch": round(stats.mean_batch, 1),
            "p50_latency_ms": round(stats.p50_latency_ms, 3),
            "p95_latency_ms": round(stats.p95_latency_ms, 3),
        },
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    summary = (
        f"serve ({total} requests, {distinct} distinct): "
        f"serial {serial.wall_s:.3f} s "
        f"({serial.throughput_rps:.0f} req/s), "
        f"service {served.wall_s:.3f} s "
        f"({served.throughput_rps:.0f} req/s, {speedup:.1f}x), "
        f"per-request sessions {per_request.throughput_rps:.0f} req/s "
        f"({speedup_per_request:.1f}x), "
        f"dedup {100.0 * stats.dedup_rate:.1f}%"
    )
    outputs = {"perf_serve.txt": summary + "\n"}
    if not config.smoke:
        outputs["BENCH_serve.json"] = json.dumps(payload, indent=2) + "\n"
    return ArtifactResult(
        artifact="perf-serve",
        outputs=outputs,
        data={
            "total": total,
            "bit_identical": bit_identical,
            "speedup": speedup,
            "speedup_per_request": speedup_per_request,
            "stats": stats,
        },
    )


def test_serve_throughput_vs_serial(workspace, report_config, emit_result,
                                    benchmark):
    result = benchmark.pedantic(
        produce, args=(workspace, report_config), rounds=1, iterations=1
    )
    emit_result(result)

    # bit-identical plans, request by request
    assert result.data["bit_identical"]

    stats = result.data["stats"]
    total = result.data["total"]
    assert stats.completed == total and stats.failed == 0
    assert stats.dedup_hits + stats.resolved == total

    floor = SMOKE_MIN_SPEEDUP if report_config.smoke else MIN_SPEEDUP
    speedup = result.data["speedup"]
    assert speedup >= floor, (
        f"coalesced service is only {speedup:.2f}x the serial loop "
        f"(required >= {floor}x)"
    )
    # the one-shot-caller baseline must lose to the service by even more
    assert result.data["speedup_per_request"] >= floor


def test_serve_duplicate_burst_dedups_fully(tmp_path, report_config):
    """A burst of one identical request resolves exactly once."""
    burst = 100 if report_config.smoke else 200
    requests = duplicate_heavy_requests(burst, 1, depth=4)
    workspace = Workspace(tmp_path / "burst")
    start = time.perf_counter()
    with PlanService(workspace, flush_ms=50.0) as service:
        futures = [service.submit(req) for req in requests]
        plans = [future.result() for future in futures]
        stats = service.stats_snapshot()
    wall = time.perf_counter() - start
    assert stats.resolved == 1, stats
    assert stats.dedup_hits == burst - 1  # 100% dedup beyond the first
    assert workspace.stats.plan_misses == 1
    first = plans[0].to_json()
    assert all(plan.to_json() == first for plan in plans)
    assert wall < 30.0
