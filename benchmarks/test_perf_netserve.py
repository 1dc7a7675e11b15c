"""Network serving performance: the wire tier at 10-100x PR-9 streams.

Drives the deterministic duplicate-heavy workload *over TCP* against a
:class:`~repro.serve.net.NetServer`:

* a **closed-loop mixed-priority** phase -- K persistent
  :class:`NetClient` threads, interactive and batch lanes mixed by the
  seeded :func:`~repro.serve.protocol.retry_priorities` coin -- the
  fleet-of-controllers shape (this phase, at 500 requests, is also the
  CI netserve smoke);
* an **open-loop** phase at a fixed arrival rate (25k requests in the
  committed run, 10x the in-process ``BENCH_serve`` stream) where
  latency is measured from each request's *scheduled* arrival, so
  queueing delay is charged to the server, never hidden by generator
  throttling.

Results land in ``benchmarks/results/BENCH_netserve.json`` with p95
latency and the shed rate.

Assertions (both run sizes):

* every request is answered; zero internal (5xx-class) errors and zero
  client-side failures;
* the exact network invariant ``requests == completed + failed + shed
  + drained`` and service invariant ``dedup_hits + resolved ==
  completed``;
* the duplicate-heavy stream deduplicates >= 95% server-side.
"""

from __future__ import annotations

import json
import platform
import tempfile
from pathlib import Path

from repro import NetServer, Workspace
from repro.report import ArtifactResult, ReportConfig
from repro.serve import (
    duplicate_heavy_wire_requests,
    retry_priorities,
    run_net_closed_loop,
    run_net_open_loop,
)

from .conftest import RESULTS_DIR

RESULTS_PATH = RESULTS_DIR / "BENCH_netserve.json"

#: server-side dedup floor over the duplicate-heavy stream.
MIN_DEDUP_RATE = 0.95

#: offered open-loop arrival rate (requests per second) -- chosen just
#: under the single-loop server's measured ~1k req/s capacity so p95
#: reflects serving latency, not unbounded overload queueing.
OPEN_LOOP_RATE_RPS = 800.0


def _workload(config: ReportConfig) -> tuple[int, int, int, int]:
    """(closed_total, open_total, distinct, depth) for the run size."""
    if config.full:
        return 2000, 100_000, 4, 8
    if config.smoke:
        return 500, 2000, 4, 8
    return 1000, 25_000, 4, 8


def produce(workspace, config: ReportConfig) -> ArtifactResult:
    """Measure wire-tier throughput/latency and build the JSON baseline.

    Timing-dependent (registered non-deterministic); smoke runs omit
    the committed ``BENCH_netserve.json`` so CI never rewrites the
    full-size baseline with scaled-down numbers.
    """
    closed_total, open_total, distinct, depth = _workload(config)

    with tempfile.TemporaryDirectory(prefix="repro-perf-net-") as tmp:
        server = NetServer(
            Workspace(Path(tmp) / "ws"), flush_ms=2.0, workers=2
        )
        address = server.start()
        try:
            closed_payloads = duplicate_heavy_wire_requests(
                closed_total, distinct, depth=depth
            )
            closed = run_net_closed_loop(
                address,
                closed_payloads,
                clients=4,
                priorities=retry_priorities(closed_total, seed=1),
            )
            open_payloads = duplicate_heavy_wire_requests(
                open_total, distinct, depth=depth, seed=2
            )
            open_loop = run_net_open_loop(
                address,
                open_payloads,
                rate_rps=OPEN_LOOP_RATE_RPS,
                clients=16,
            )
            net = server.stats_snapshot()
            service = server.service.stats_snapshot()
        finally:
            server.close()

    shed_rate = net.shed / net.requests if net.requests else 0.0
    payload = {
        "workload": {
            "closed_loop_requests": closed_total,
            "open_loop_requests": open_total,
            "open_loop_rate_rps": OPEN_LOOP_RATE_RPS,
            "distinct_requests": distinct,
            "stack_depth": depth,
            "clients_closed": 4,
            "clients_open": 16,
        },
        "closed_loop": {
            "wall_s": round(closed.wall_s, 4),
            "throughput_rps": round(closed.throughput_rps, 1),
            "p50_latency_ms": round(closed.p50_ms, 3),
            "p95_latency_ms": round(closed.p95_ms, 3),
            "completed": closed.completed,
            "shed_gave_up": closed.shed_gave_up,
            "failed": closed.failed,
        },
        "open_loop": {
            "wall_s": round(open_loop.wall_s, 4),
            "throughput_rps": round(open_loop.throughput_rps, 1),
            "p50_latency_ms": round(open_loop.p50_ms, 3),
            "p95_latency_ms": round(open_loop.p95_ms, 3),
            "completed": open_loop.completed,
            "late_sends": open_loop.late_sends,
            "shed_gave_up": open_loop.shed_gave_up,
            "failed": open_loop.failed,
        },
        "server": {
            "requests": net.requests,
            "completed": net.completed,
            "shed": net.shed,
            "shed_rate": round(shed_rate, 4),
            "drained": net.drained,
            "dropped": net.dropped,
            "internal_errors": net.internal_errors,
            "protocol_errors": net.protocol_errors,
            "backpressure_waits": net.backpressure_waits,
            "lanes": {
                lane.name: {
                    "admitted": lane.admitted,
                    "shed": lane.shed,
                    "peak_depth": lane.peak_depth,
                }
                for lane in net.lanes
            },
        },
        "service": {
            "requests": service.requests,
            "resolved": service.resolved,
            "dedup_hits": service.dedup_hits,
            "dedup_rate": round(service.dedup_rate, 4),
            "batches": service.batches,
            "max_batch": service.max_batch,
            "p50_latency_ms": round(service.p50_latency_ms, 3),
            "p95_latency_ms": round(service.p95_latency_ms, 3),
        },
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    summary = (
        f"netserve: closed loop {closed_total} requests x4 clients "
        f"{closed.throughput_rps:.0f} req/s "
        f"(p95 {closed.p95_ms:.1f} ms), "
        f"open loop {open_total} requests @ {OPEN_LOOP_RATE_RPS:.0f} rps "
        f"{open_loop.throughput_rps:.0f} req/s "
        f"(p95 {open_loop.p95_ms:.1f} ms, "
        f"{open_loop.late_sends} late sends), "
        f"dedup {100.0 * service.dedup_rate:.1f}%, "
        f"shed rate {100.0 * shed_rate:.2f}%"
    )
    outputs = {"perf_netserve.txt": summary + "\n"}
    if not config.smoke:
        outputs["BENCH_netserve.json"] = (
            json.dumps(payload, indent=2) + "\n"
        )
    return ArtifactResult(
        artifact="perf-netserve",
        outputs=outputs,
        data={
            "closed": closed,
            "open": open_loop,
            "net": net,
            "service": service,
            "closed_total": closed_total,
            "open_total": open_total,
        },
    )


def test_netserve_wire_throughput(workspace, report_config, emit_result,
                                  benchmark):
    result = benchmark.pedantic(
        produce, args=(workspace, report_config), rounds=1, iterations=1
    )
    emit_result(result)

    closed = result.data["closed"]
    open_loop = result.data["open"]
    net = result.data["net"]
    service = result.data["service"]
    total = result.data["closed_total"] + result.data["open_total"]

    # every request answered, none lost to client-side failures
    assert closed.completed + closed.shed_gave_up == closed.requests
    assert closed.failed == 0
    assert open_loop.completed + open_loop.shed_gave_up \
        == open_loop.requests
    assert open_loop.failed == 0

    # zero 5xx-class errors over the whole run
    assert net.internal_errors == 0
    assert net.protocol_errors == 0

    # the exact tier invariants
    assert net.requests == (
        net.completed + net.failed + net.shed + net.drained
    ), net.to_dict()
    assert service.dedup_hits + service.resolved == service.completed
    assert net.requests >= total  # retries only add server-side requests

    # the duplicate-heavy stream deduplicates server-side
    assert service.dedup_rate >= MIN_DEDUP_RATE, (
        f"server-side dedup {100 * service.dedup_rate:.2f}% "
        f"(required >= {100 * MIN_DEDUP_RATE:.0f}%)"
    )
