"""Load generation for the plan-serving layer, in-process and networked.

One deterministic duplicate-heavy workload, five ways to run it:

* :func:`run_serial_session` -- the best a caller can do *without* the
  serving layer in one long-lived process: a single
  :class:`~repro.api.workspace.Workspace` and one ``plan()`` call per
  request, in order.
* :func:`run_serial_per_request` -- what independent one-shot callers
  (CLI invocations, stateless handlers) sharing a root actually do: a
  fresh ``Workspace(root)`` per request.
* :func:`run_service` -- the same stream through a
  :class:`~repro.serve.service.PlanService`: every request submitted
  up front (a closed loop of concurrent callers), then gathered.
* :func:`run_net_closed_loop` -- the stream over the wire against a
  :class:`~repro.serve.net.NetServer`: K client threads, each with its
  own persistent :class:`~repro.serve.net.NetClient`, each sending its
  share back-to-back (latency includes queueing behind one's own
  connection).
* :func:`run_net_open_loop` -- the honest load test: requests are
  *scheduled* at a fixed arrival rate and latency is measured from the
  scheduled arrival, so a slow server accrues queueing delay instead
  of silently throttling the generator (late sends are counted, not
  hidden).

The in-process drivers return resolved plans in request order so
callers can assert bit-identical results; the network drivers return a
:class:`NetLoadResult` of exact outcome counters and the full latency
sample.  ``benchmarks/test_perf_serve.py``,
``benchmarks/test_perf_netserve.py`` and ``repro serve --demo`` all
drive these helpers.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from ..api.registry import get_cluster
from ..api.workspace import Workspace
from ..config import MoELayerSpec
from ..errors import ConfigError, QueueFullError, ServiceError
from ..planner.plan import IterationPlan
from ..systems.registry import get_system
from ..api.request import PlanRequest
from .service import PlanService
from .stats import ServiceStats, percentile


def duplicate_heavy_requests(
    total: int,
    distinct: int,
    *,
    seed: int = 0,
    depth: int = 12,
    cluster: str = "A",
    total_gpus: int = 16,
) -> list[PlanRequest]:
    """A deterministic duplicate-heavy request stream.

    ``distinct`` unique requests -- alternating systems over layer specs
    of varied sequence length -- repeated and shuffled to ``total``
    entries with a seeded RNG.  Every distinct request appears at least
    once.

    Raises:
        ConfigError: when ``total < distinct`` or either is < 1.
    """
    if distinct < 1 or total < distinct:
        raise ConfigError(
            f"need total >= distinct >= 1, got total={total} "
            f"distinct={distinct}"
        )
    spec_cluster = get_cluster(cluster, total_gpus=total_gpus)
    systems = ("tutel", "dsmoe", "fsmoe-no-iio", "fsmoe")
    base: list[PlanRequest] = []
    for i in range(distinct):
        layer = MoELayerSpec(
            batch_size=1,
            seq_len=256 + 64 * (i // len(systems)),
            embed_dim=1024,
            num_experts=spec_cluster.num_nodes,
            num_heads=8,
        )
        system = get_system(systems[i % len(systems)], solver="slsqp")
        base.append(
            PlanRequest(
                stack=(layer,) * depth,
                system=system,
                cluster=spec_cluster,
            )
        )
    rng = random.Random(seed)
    stream = base + [
        base[rng.randrange(distinct)] for _ in range(total - distinct)
    ]
    rng.shuffle(stream)
    return stream


@dataclass(frozen=True)
class LoadResult:
    """One driver run over a request stream.

    Attributes:
        wall_s: end-to-end wall time for the whole stream.
        plans: resolved plans, request order.
        requests: stream length.
        stats: serving counters (service runs only).
    """

    wall_s: float
    plans: tuple[IterationPlan, ...]
    requests: int
    stats: ServiceStats | None = None

    @property
    def throughput_rps(self) -> float:
        """Requests resolved per second of wall time."""
        if self.wall_s <= 0:
            return float("inf")
        return self.requests / self.wall_s


def run_serial_session(
    requests: list[PlanRequest], root, **workspace_kw
) -> LoadResult:
    """One long-lived workspace, one blocking ``plan()`` per request."""
    workspace = Workspace(root, **workspace_kw)
    start = time.perf_counter()
    plans = tuple(
        workspace.plan(
            req.stack, req.system, req.cluster,
            parallel=req.parallel, gate_kind=req.gate_kind,
            routing_overhead=req.routing_overhead,
            include_gar=req.include_gar, noise=req.noise, seed=req.seed,
        )
        for req in requests
    )
    wall = time.perf_counter() - start
    return LoadResult(wall_s=wall, plans=plans, requests=len(requests))


def run_serial_per_request(
    requests: list[PlanRequest], root, **workspace_kw
) -> LoadResult:
    """A fresh ``Workspace(root)`` per request (one-shot callers)."""
    start = time.perf_counter()
    plans = tuple(
        Workspace(root, **workspace_kw).plan(
            req.stack, req.system, req.cluster,
            parallel=req.parallel, gate_kind=req.gate_kind,
            routing_overhead=req.routing_overhead,
            include_gar=req.include_gar, noise=req.noise, seed=req.seed,
        )
        for req in requests
    )
    wall = time.perf_counter() - start
    return LoadResult(wall_s=wall, plans=plans, requests=len(requests))


def run_service(
    requests: list[PlanRequest],
    root,
    *,
    workspace_kw: dict | None = None,
    **service_kw,
) -> LoadResult:
    """The whole stream through one PlanService, closed-loop.

    Every request is submitted before the first result is awaited (the
    concurrent-clients shape), then the plans are gathered in order and
    the service is drained and closed.  Unless the caller sets one, the
    queue capacity is sized to the stream so submitting everything up
    front cannot trip the backlog bound.
    """
    workspace = Workspace(root, **(workspace_kw or {}))
    service_kw.setdefault("capacity", max(len(requests), 1))
    start = time.perf_counter()
    with PlanService(workspace, **service_kw) as service:
        futures = [service.submit(req) for req in requests]
        plans = tuple(future.result() for future in futures)
        stats = service.stats_snapshot()
    wall = time.perf_counter() - start
    return LoadResult(
        wall_s=wall, plans=plans, requests=len(requests), stats=stats
    )


def duplicate_heavy_wire_requests(
    total: int,
    distinct: int,
    *,
    seed: int = 0,
    depth: int = 12,
    cluster: str = "A",
    total_gpus: int = 16,
) -> list[dict]:
    """:func:`duplicate_heavy_requests` as wire ``plan`` payloads.

    The same deterministic stream (same systems, layers, repeats and
    shuffle for a given seed), but each entry is the JSON payload a
    :class:`~repro.serve.net.NetClient` sends -- so a wire run hits the
    server-side coalescer with exactly the dedup profile of the
    in-process drivers.

    Raises:
        ConfigError: when ``total < distinct`` or either is < 1.
    """
    if distinct < 1 or total < distinct:
        raise ConfigError(
            f"need total >= distinct >= 1, got total={total} "
            f"distinct={distinct}"
        )
    spec_cluster = get_cluster(cluster, total_gpus=total_gpus)
    systems = ("tutel", "dsmoe", "fsmoe-no-iio", "fsmoe")
    base: list[dict] = []
    for i in range(distinct):
        base.append(
            {
                "cluster": {"name": cluster, "total_gpus": total_gpus},
                "system": systems[i % len(systems)],
                "solver": "slsqp",
                "stack": {
                    "layers": [
                        {
                            "batch_size": 1,
                            "seq_len": 256 + 64 * (i // len(systems)),
                            "embed_dim": 1024,
                            "num_experts": spec_cluster.num_nodes,
                            "num_heads": 8,
                        }
                    ],
                    "num_layers": depth,
                },
            }
        )
    rng = random.Random(seed)
    stream = base + [
        base[rng.randrange(distinct)] for _ in range(total - distinct)
    ]
    rng.shuffle(stream)
    return stream


@dataclass(frozen=True)
class NetLoadResult:
    """One network driver run: exact outcomes plus the latency sample.

    Attributes:
        wall_s: end-to-end wall time for the whole stream.
        requests: payloads sent (or scheduled).
        completed: requests answered with a plan result.
        shed_gave_up: requests still shed after the client's whole
            retry budget (closed loop) -- the server said try later and
            the driver ran out of patience.
        failed: requests refused for any other reason (transport
            exhausted, protocol refusal, plan failure).
        late_sends: open-loop sends that left after their scheduled
            arrival instant (generator fell behind the target rate; 0
            for closed-loop runs).
        latencies_ms: one latency per completed request -- send-to-answer
            for the closed loop, *scheduled-arrival*-to-answer for the
            open loop (queueing delay included).
    """

    wall_s: float
    requests: int
    completed: int
    shed_gave_up: int
    failed: int
    late_sends: int
    latencies_ms: tuple[float, ...]

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of wall time."""
        if self.wall_s <= 0:
            return float("inf")
        return self.completed / self.wall_s

    @property
    def p50_ms(self) -> float:
        """Median latency over the completed requests."""
        return percentile(list(self.latencies_ms), 50.0)

    @property
    def p95_ms(self) -> float:
        """95th-percentile latency over the completed requests."""
        return percentile(list(self.latencies_ms), 95.0)


def _net_worker(
    make_client,
    jobs: list[tuple[int, float | None, dict, str]],
    out: dict,
    stop: threading.Event,
) -> None:
    """One driver thread: its own client, its share of the stream.

    ``jobs`` rows are ``(index, scheduled_at_or_None, payload,
    priority)``; a scheduled time makes this an open-loop worker that
    sleeps until each arrival instant and measures latency from it.
    """
    completed = failed = shed = late = 0
    latencies: list[float] = []
    client = make_client()
    try:
        for _, scheduled, payload, priority in jobs:
            if stop.is_set():
                break
            if scheduled is not None:
                now = time.perf_counter()
                if now < scheduled:
                    time.sleep(scheduled - now)
                else:
                    late += 1
                origin = scheduled
            else:
                origin = time.perf_counter()
            try:
                client.plan(payload, priority=priority)
            except QueueFullError:
                shed += 1
                continue
            except ServiceError:
                failed += 1
                continue
            completed += 1
            latencies.append((time.perf_counter() - origin) * 1000.0)
    finally:
        client.close()
    out["completed"] = completed
    out["failed"] = failed
    out["shed"] = shed
    out["late"] = late
    out["latencies"] = latencies


def _run_net(
    address: str,
    jobs: list[tuple[int, float | None, dict, str]],
    *,
    clients: int,
    client_kw: dict | None,
) -> NetLoadResult:
    """Fan ``jobs`` over ``clients`` worker threads and merge outcomes."""
    from .net import NetClient  # here to keep module import light

    if clients < 1:
        raise ConfigError(f"clients must be >= 1, got {clients}")
    kw = dict(client_kw or {})

    def make_client() -> NetClient:
        return NetClient(address, **kw)

    shares = [jobs[k::clients] for k in range(clients)]
    outs: list[dict] = [{} for _ in shares]
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=_net_worker,
            args=(make_client, share, out, stop),
            name=f"repro-loadgen-{k}",
            daemon=True,
        )
        for k, (share, out) in enumerate(zip(shares, outs))
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    latencies: list[float] = []
    for out in outs:
        latencies.extend(out.get("latencies", ()))
    return NetLoadResult(
        wall_s=wall,
        requests=len(jobs),
        completed=sum(out.get("completed", 0) for out in outs),
        shed_gave_up=sum(out.get("shed", 0) for out in outs),
        failed=sum(out.get("failed", 0) for out in outs),
        late_sends=sum(out.get("late", 0) for out in outs),
        latencies_ms=tuple(latencies),
    )


def run_net_closed_loop(
    address: str,
    payloads: list[dict],
    *,
    clients: int = 4,
    priorities: list[str] | None = None,
    client_kw: dict | None = None,
) -> NetLoadResult:
    """The stream over the wire, K concurrent back-to-back clients.

    Each of ``clients`` threads owns a persistent
    :class:`~repro.serve.net.NetClient` and sends its round-robin share
    of ``payloads`` as fast as the server answers.  ``priorities``
    (parallel to ``payloads``; default all ``interactive``) steers each
    request's lane -- pair with
    :func:`~repro.serve.protocol.retry_priorities` for a mixed-lane
    stream.

    Raises:
        ConfigError: for ``clients < 1`` or a priorities length
            mismatch.
    """
    if priorities is not None and len(priorities) != len(payloads):
        raise ConfigError(
            f"priorities length {len(priorities)} != payloads length "
            f"{len(payloads)}"
        )
    jobs = [
        (
            i,
            None,
            payload,
            priorities[i] if priorities is not None else "interactive",
        )
        for i, payload in enumerate(payloads)
    ]
    return _run_net(address, jobs, clients=clients, client_kw=client_kw)


def run_net_open_loop(
    address: str,
    payloads: list[dict],
    *,
    rate_rps: float,
    clients: int = 8,
    priorities: list[str] | None = None,
    client_kw: dict | None = None,
) -> NetLoadResult:
    """The stream at a fixed arrival rate, latency from scheduled time.

    Request ``i`` is scheduled at ``i / rate_rps`` seconds after the
    run starts and its latency is measured from that instant, whether
    the send actually left on time or not -- so server slowdowns show
    up as latency (and ``late_sends``), never as a quietly reduced
    offered load.  The stream is dealt round-robin to ``clients``
    workers; each worker's share stays in scheduled order.

    Raises:
        ConfigError: for a non-positive rate, ``clients < 1``, or a
            priorities length mismatch.
    """
    if rate_rps <= 0:
        raise ConfigError(f"rate_rps must be > 0, got {rate_rps}")
    if priorities is not None and len(priorities) != len(payloads):
        raise ConfigError(
            f"priorities length {len(priorities)} != payloads length "
            f"{len(payloads)}"
        )
    base = time.perf_counter() + 0.05  # let every worker reach the line
    jobs = [
        (
            i,
            base + i / rate_rps,
            payload,
            priorities[i] if priorities is not None else "interactive",
        )
        for i, payload in enumerate(payloads)
    ]
    return _run_net(address, jobs, clients=clients, client_kw=client_kw)
