"""repro.serve: concurrent plan serving over a Workspace.

The serving layer between the planner and "heavy traffic": a
:class:`PlanService` coalesces concurrent plan requests into batches
(drained on arrival: whatever queued while the last batch resolved),
deduplicates identical requests onto one resolution per
batch (single-flight across threads and -- through the workspace's
advisory file locks -- across processes), answers repeats from the
workspace's L1 tier at submit, and answers each caller's
:class:`~concurrent.futures.Future` with the same content-addressed
plans ``Workspace.plan`` would return one at a time.

:class:`NetServer` puts that service on the network -- a JSON-lines
wire protocol (:mod:`repro.serve.protocol`, on the RPC kernel
:mod:`repro.rpc` the cache server shares) with priority lanes,
per-client fairness, shed-with-``retry_after_ms`` backpressure and
graceful drain -- and :class:`NetClient` is its persistent,
retry-with-backoff counterpart.

Quickstart (in-process)::

    from repro import Workspace
    from repro.serve import Client, PlanService

    service = PlanService(Workspace("~/.repro-ws"))  # drains on arrival
    client = Client(service)
    future = client.submit(stack, system, cluster)   # non-blocking
    plan = future.result()
    print(service.stats)                              # exact counters
    service.close()

Quickstart (over the wire)::

    from repro import Workspace
    from repro.serve import NetClient, NetServer

    with NetServer(Workspace("~/.repro-ws")) as server:
        client = NetClient(server.address)
        reply = client.plan({"cluster": "A", "system": "fsmoe",
                             "stack": {"model": "GPT2-XL"}})
        print(reply["result"]["makespan_ms"], server.stats)

``python -m repro serve`` exposes the same service from the shell
(JSON-lines requests in, JSON results out), ``repro serve --listen``
/ ``--connect`` run it over TCP, and ``repro serve --demo`` runs the
closed-loop load generator against it.
"""

from .client import Client
from .loadgen import (
    LoadResult,
    NetLoadResult,
    duplicate_heavy_requests,
    duplicate_heavy_wire_requests,
    run_net_closed_loop,
    run_net_open_loop,
    run_serial_per_request,
    run_serial_session,
    run_service,
)
from .net import (
    DEFAULT_LANE_CAPACITY,
    DEFAULT_SHED_RETRY_MS,
    LANE_WEIGHTS,
    LANES,
    LaneStats,
    NetClient,
    NetServer,
    NetStats,
)
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_SCHEMA_VERSION,
    RETRYABLE_CODES,
    Backoff,
    encode_frame,
    error_response,
    ok_response,
    parse_plan_payload,
    plan_summary,
    retry_priorities,
)
from ..api.request import PlanRequest
from .service import DEFAULT_CAPACITY, DEFAULT_FLUSH_MS, PlanService
from .stats import ServiceStats

__all__ = [
    "Backoff",
    "Client",
    "DEFAULT_CAPACITY",
    "DEFAULT_FLUSH_MS",
    "DEFAULT_LANE_CAPACITY",
    "DEFAULT_SHED_RETRY_MS",
    "LANES",
    "LANE_WEIGHTS",
    "LaneStats",
    "LoadResult",
    "MAX_LINE_BYTES",
    "NetClient",
    "NetLoadResult",
    "NetServer",
    "NetStats",
    "PROTOCOL_SCHEMA_VERSION",
    "PlanRequest",
    "PlanService",
    "RETRYABLE_CODES",
    "ServiceStats",
    "duplicate_heavy_requests",
    "duplicate_heavy_wire_requests",
    "encode_frame",
    "error_response",
    "ok_response",
    "parse_plan_payload",
    "plan_summary",
    "retry_priorities",
    "run_net_closed_loop",
    "run_net_open_loop",
    "run_serial_per_request",
    "run_serial_session",
    "run_service",
]
