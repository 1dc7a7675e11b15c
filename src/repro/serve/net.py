"""The network serving tier: an asyncio JSON-lines front on PlanService.

:class:`NetServer` puts the wire protocol of
:mod:`repro.serve.protocol` on one coalescing
:class:`~repro.serve.service.PlanService`:

* **transport** -- the RPC kernel :class:`~repro.rpc.LineServer`
  (framing with the ``oversized-line`` refusal and resync, the frame
  gate, the ``internal`` last line of defense, the background-loop
  lifecycle and the transport counters), shared with the L3
  :class:`~repro.cache.remote.CacheServer`;
* **backpressure that sheds, never raises** -- requests queue in
  bounded priority lanes; a full lane (or per-client bound) answers
  ``shed`` with ``retry_after_ms`` instead of surfacing
  :class:`~repro.errors.QueueFullError`, and a full service backlog
  pauses the dispatcher rather than dropping work;
* **priority lanes and per-client fairness** -- an ``interactive`` and
  a ``batch`` lane drained weighted round-robin, each lane round-robin
  across client connections, so one chatty client cannot starve the
  rest;
* **graceful drain** -- ``close(drain=True)`` stops accepting, answers
  everything already admitted, and refuses latecomers with
  ``draining`` + ``retry_after_ms``;
* **observability** -- a per-request span (started on the reader task,
  ended on the responder) when the workspace traces, and exact
  counters (:class:`NetStats`, per-lane depth gauges and shed counters
  included) that the ``stats`` op returns and the ``metrics`` op
  renders under ``repro.net.*`` from the same snapshot.

Every behavior is an exact counter (:class:`NetStats`); the invariant
``requests == completed + failed + shed + drained`` holds at every
quiescent instant and the fault-injection suite asserts it exactly.

:class:`NetClient` is the sync counterpart: the kernel's
:class:`~repro.rpc.LineClient` (one persistent socket, reconnects
through :class:`~repro.rpc.Backoff`) plus overload retries through the
same policy, honoring the server's ``retry_after_ms``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from collections import deque
from dataclasses import dataclass

from ..api.request import PlanRequest
from ..cache import LRUCache
from ..errors import (
    ConfigError,
    ProtocolError,
    QueueFullError,
    ReproError,
    ServiceClosedError,
    ServiceError,
)
from ..obs.export import render_prometheus
from ..obs.metrics import (
    Stats,
    counter,
    gauge,
    label,
    nested,
    stats_samples,
)
from ..rpc import LineClient, LineServer, Peer
from .protocol import (
    E_BAD_REQUEST,
    E_DRAINING,
    E_INTERNAL,
    E_PLAN_FAILED,
    E_SHED,
    E_UNKNOWN_OP,
    MAX_LINE_BYTES,
    PROTOCOL_SCHEMA_VERSION,
    RETRYABLE_CODES,
    Backoff,
    error_response,
    ok_response,
    parse_plan_payload,
    plan_summary,
)
from .service import PlanService

#: the server's priority lanes, in declaration order.
LANES = ("interactive", "batch")

#: weighted round-robin drain ratio between the lanes.
LANE_WEIGHTS = {"interactive": 4, "batch": 1}

#: default bound on each lane's queued (admitted, undispatched) requests.
DEFAULT_LANE_CAPACITY = 1024

#: default ``retry_after_ms`` hint on an interactive-lane shed; the
#: batch lane scales it by its weight ratio (lower priority waits
#: longer before retrying).
DEFAULT_SHED_RETRY_MS = 50.0

#: dispatcher pause while the PlanService backlog is at capacity.
_BACKPRESSURE_PAUSE_S = 0.002


@dataclass(frozen=True)
class LaneStats(Stats):
    """Exact counters of one priority lane.

    Attributes:
        name: the lane (``interactive`` or ``batch``).
        admitted: requests accepted into the lane's queues.
        shed: requests refused because the lane (or the submitting
            client's per-client bound) was full.
        depth: currently queued requests (a gauge).
        peak_depth: high-water queue depth.
    """

    name: str = label()
    admitted: int = counter(help="requests admitted")
    shed: int = counter(help="requests shed at a full lane")
    depth: int = gauge(help="queued requests in this lane")
    peak_depth: int = gauge(help="high-water queue depth of this lane")


@dataclass(frozen=True)
class NetStats(Stats):
    """Exact counters of one :class:`NetServer`.

    The kernel's :class:`~repro.rpc.TransportStats` fields
    (``connections`` through ``protocol_errors``) plus the plan lanes.

    Attributes:
        connections: client connections accepted, lifetime.
        open_connections: currently connected clients (a gauge).
        frames: request lines received (including refused ones).
        requests: well-formed ``plan`` requests received.
        completed: plan requests answered with a result (including
            answers whose delivery failed because the client had gone
            away -- see ``dropped``).
        failed: plan requests answered with a non-retryable error
            (malformed payload, failed resolution, or a server fault).
        internal_errors: the 5xx class -- unexpected server defects,
            also counted in ``failed``.
        shed: plan requests refused at a full lane with ``shed``.
        drained: plan requests refused with ``draining`` (shutdown).
        dropped: responses that could not be written because the client
            disconnected first (their requests still count by outcome).
        protocol_errors: refused frames and malformed plan payloads
            (``bad-json``/``bad-frame``/``bad-schema``/``unknown-op``/
            ``oversized-line``/``bad-request``).
        backpressure_waits: dispatcher pauses because the PlanService
            backlog was at capacity (held, not shed).
        lanes: per-lane counters, in :data:`LANES` order.

    The accounting invariant ``requests == completed + failed + shed +
    drained`` holds whenever no request is in flight.
    """

    connections: int = 0
    open_connections: int = gauge()
    frames: int = 0
    requests: int = 0
    completed: int = 0
    failed: int = 0
    internal_errors: int = 0
    shed: int = 0
    drained: int = 0
    dropped: int = 0
    protocol_errors: int = 0
    backpressure_waits: int = 0
    lanes: tuple[LaneStats, ...] = nested((), prefix="repro.net.lane.")

    @property
    def accounted(self) -> int:
        """``completed + failed + shed + drained`` (== ``requests`` at rest)."""
        return self.completed + self.failed + self.shed + self.drained


@dataclass
class _Pending:
    """One admitted plan request awaiting dispatch/response."""

    peer: Peer
    request_id: object
    request: PlanRequest
    priority: str
    detail: str
    digest: bool
    span: object  # Span | None


class _Lane:
    """One bounded priority lane: per-client FIFOs, round-robin drain.

    Touched only from the server's event loop (push, push_front, pop);
    the counter fields are plain ints so cross-thread stats snapshots
    read them atomically.
    """

    def __init__(self, name: str, capacity: int, per_client: int) -> None:
        self.name = name
        self.capacity = capacity
        self.per_client = per_client
        self.queues: dict[int, deque] = {}  # only non-empty deques
        self.order: deque[int] = deque()
        self.depth = 0
        self.peak_depth = 0
        self.admitted = 0
        self.shed = 0

    def push(self, item: _Pending) -> bool:
        """Admit one request; False (a shed) when a bound is hit."""
        queue = self.queues.get(item.peer.client)
        if self.depth >= self.capacity or (
            queue is not None and len(queue) >= self.per_client
        ):
            self.shed += 1
            return False
        self._queue(item.peer.client, self.order.append).append(item)
        self.admitted += 1
        return True

    def push_front(self, item: _Pending) -> None:
        """Requeue a popped request at the front (backpressure hold)."""
        self._queue(item.peer.client, self.order.appendleft).appendleft(item)

    def _queue(self, client: int, enroll) -> deque:
        """``client``'s queue, ``enroll``-ing a new one in the order;
        counts the item about to join it."""
        queue = self.queues.get(client)
        if queue is None:
            queue = self.queues[client] = deque()
            enroll(client)
        self.depth += 1
        self.peak_depth = max(self.peak_depth, self.depth)
        return queue

    def pop(self) -> _Pending | None:
        """The next request, round-robin across clients; None when empty."""
        while self.order:
            client = self.order.popleft()
            queue = self.queues.get(client)
            if not queue:
                self.queues.pop(client, None)
                continue
            item = queue.popleft()
            self.depth -= 1
            if queue:
                self.order.append(client)
            else:
                self.queues.pop(client, None)
            return item
        return None

    def stats(self) -> LaneStats:
        """This lane's exact counters."""
        return LaneStats(
            name=self.name,
            admitted=self.admitted,
            shed=self.shed,
            depth=self.depth,
            peak_depth=self.peak_depth,
        )


class NetServer(LineServer):
    """Serve the plan wire protocol from one PlanService.

    The server is the RPC kernel :class:`~repro.rpc.LineServer` -- an
    asyncio event loop on a background thread (:meth:`start`), so it
    embeds in tests and synchronous programs the same way
    :class:`~repro.cache.remote.CacheServer` does -- plus the plan op,
    its lanes and dispatcher; ``repro serve --listen`` starts one and
    blocks on :meth:`wait`.

    Args:
        workspace: when given, the server creates (and owns -- closes
            on :meth:`close`) a :class:`PlanService` over it, passing
            ``service_kw`` through (``flush_ms``, ``capacity``,
            ``workers``, ...).
        service: an existing service to front instead (the caller keeps
            ownership).  Exactly one of ``workspace``/``service``.
        host: bind address (default loopback).
        port: bind port (0 picks a free one; see :attr:`address`).
        lane_capacity: bound on each lane's queued requests; beyond it
            requests shed with ``retry_after_ms``.
        per_client: bound on one client's queued requests per lane
            (default: a quarter of the lane, at least 1), the fairness
            backstop against a single flooding connection.
        shed_retry_ms: base ``retry_after_ms`` hint for interactive
            sheds; the batch lane scales it by the lane weight ratio.
        max_line_bytes: request-line bound; longer lines are refused
            with ``oversized-line`` and skipped.

    :meth:`close` with ``drain=True`` answers everything already
    admitted first; with ``drain=False`` queued requests are answered
    ``draining`` at once.  Latecomers get ``draining`` either way, and an
    owned service is closed with the same ``drain``.

    Raises:
        ConfigError: for neither/both of ``workspace``/``service`` or a
            non-positive bound.
    """

    stats_type = NetStats
    thread_name = "repro-net-server"

    def __init__(
        self,
        workspace=None,
        *,
        service: PlanService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        lane_capacity: int = DEFAULT_LANE_CAPACITY,
        per_client: int | None = None,
        shed_retry_ms: float = DEFAULT_SHED_RETRY_MS,
        max_line_bytes: int = MAX_LINE_BYTES,
        **service_kw,
    ) -> None:
        if (workspace is None) == (service is None):
            raise ConfigError(
                "NetServer needs exactly one of workspace= and service="
            )
        if lane_capacity < 1:
            raise ConfigError(
                f"lane_capacity must be >= 1, got {lane_capacity}"
            )
        if per_client is None:
            per_client = max(1, lane_capacity // 4)
        if per_client < 1:
            raise ConfigError(f"per_client must be >= 1, got {per_client}")
        if shed_retry_ms <= 0:
            raise ConfigError(
                f"shed_retry_ms must be > 0, got {shed_retry_ms}"
            )
        if service is not None and service_kw:
            raise ConfigError(
                f"service_kw {sorted(service_kw)} only apply when the "
                f"server creates the service (workspace=...)"
            )
        super().__init__(
            host,
            port,
            schema=PROTOCOL_SCHEMA_VERSION,
            max_line_bytes=max_line_bytes,
        )
        self._owns_service = service is None
        self._service = (
            PlanService(workspace, **service_kw) if service is None
            else service
        )
        self._shed_retry_ms = float(shed_retry_ms)
        self._lanes = {
            name: _Lane(name, lane_capacity, per_client) for name in LANES
        }
        max_weight = max(LANE_WEIGHTS.values())
        self._retry_ms = {
            name: self._shed_retry_ms * (max_weight / LANE_WEIGHTS[name])
            for name in LANES
        }
        self._lane_cycle = tuple(
            itertools.chain.from_iterable(
                (name,) * LANE_WEIGHTS[name] for name in LANES
            )
        )
        self._cycle_pos = 0
        self._parse_cache = LRUCache(1024, None)
        self._dispatcher: asyncio.Task | None = None
        self._inflight: set[asyncio.Task] = set()
        self._wake: asyncio.Event | None = None
        self._draining = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def service(self) -> PlanService:
        """The fronted (or owned) :class:`PlanService`."""
        return self._service

    async def _on_start(self) -> None:
        self._wake = asyncio.Event()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def _on_drain(self, drain: bool, deadline: float) -> None:
        self._draining = True
        if drain:
            while (
                any(lane.depth for lane in self._lanes.values())
                or self._inflight
            ) and time.monotonic() < deadline:
                self._wake.set()
                await asyncio.sleep(0.005)
        else:
            for lane in self._lanes.values():
                while (item := lane.pop()) is not None:
                    self._refuse_item(
                        item, "drained", E_DRAINING,
                        "server is shutting down", "drained",
                    )
            if self._inflight:
                await asyncio.wait(
                    self._inflight,
                    timeout=max(0.0, deadline - time.monotonic()),
                )
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            await asyncio.gather(
                self._dispatcher, return_exceptions=True
            )

    def _on_close(self, drain: bool) -> None:
        if self._owns_service:
            self._service.close(drain=drain)

    # -- stats ---------------------------------------------------------------

    def stats_snapshot(self) -> NetStats:
        """Exact network-tier counters at this instant (thread-safe)."""
        return self._snapshot(
            lanes=tuple(self._lanes[name].stats() for name in LANES)
        )

    #: property alias mirroring ``PlanService.stats``.
    stats = property(stats_snapshot)

    def exposition(self) -> str:
        """The server's ``repro.net.*`` counters as Prometheus text."""
        return render_prometheus(
            stats_samples(self.stats_snapshot(), "repro.net.")
        )

    # -- ops -----------------------------------------------------------------

    def handle(self, request: dict, peer: Peer | None) -> dict | None:
        """Answer ``ping``/``stats``/``metrics``; admit ``plan`` to a lane."""
        request_id = request.get("id")
        op = request.get("op")
        if op == "plan":
            return self._admit_plan(peer, request_id, request)
        if op == "ping":
            return ok_response(request_id, pong=True)
        if op == "stats":
            service = self._service.stats_snapshot()
            return ok_response(
                request_id,
                net=self.stats_snapshot().to_dict(),
                service={
                    "requests": service.requests,
                    "completed": service.completed,
                    "failed": service.failed,
                    "rejected": service.rejected,
                    "dedup_hits": service.dedup_hits,
                    "resolved": service.resolved,
                    "batches": service.batches,
                    "max_batch": service.max_batch,
                    "p50_latency_ms": service.p50_latency_ms,
                    "p95_latency_ms": service.p95_latency_ms,
                },
            )
        if op == "metrics":
            return ok_response(request_id, exposition=self.exposition())
        return self.refuse(E_UNKNOWN_OP, f"unknown op {op!r}", request_id)

    def _parse_payload(self, payload: object):
        """Parse (with a small memo: wire streams repeat heavily).

        The memo holds the parsed :class:`~repro.api.request.PlanRequest`
        itself, so a repeat payload reuses its identity too: the digest
        is computed once per distinct payload while it stays memoized.
        """
        key = None
        if isinstance(payload, dict):
            try:
                key = json.dumps(payload, sort_keys=True)
            except (TypeError, ValueError):
                key = None
        if key is not None:
            cached = self._parse_cache.get(key)
            if cached is not None:
                return cached
        request = parse_plan_payload(payload)
        if key is not None:
            self._parse_cache.put(key, request)
        return request

    def _admit_plan(
        self, peer: Peer, request_id: object, data: dict
    ) -> dict | None:
        """Queue one plan request (None) or answer its refusal."""
        self._counts.inc("requests")
        priority = data.get("priority", "interactive")
        if priority not in self._lanes:
            return self.refuse(
                E_BAD_REQUEST,
                f"unknown priority {priority!r}; expected one of "
                f"{list(LANES)}",
                request_id,
                "failed",
            )
        detail = data.get("detail", "summary")
        if detail not in ("summary", "plan"):
            return self.refuse(
                E_BAD_REQUEST,
                f"unknown detail {detail!r}; expected 'summary' or 'plan'",
                request_id,
                "failed",
            )
        if self._draining:
            self._counts.inc("drained")
            return error_response(
                E_DRAINING,
                "server is draining and takes no new requests",
                request_id=request_id,
                retry_after_ms=self._retry_ms[priority],
            )
        try:
            request = self._parse_payload(data.get("request"))
        except ReproError as exc:
            # ConfigError for malformed shapes, RegistryError for
            # unknown system/cluster names, TopologyError for layouts
            # the cluster cannot host -- all the payload's own fault.
            return self.refuse(E_BAD_REQUEST, str(exc), request_id, "failed")
        except Exception as exc:
            self._counts.inc("failed", "internal_errors")
            return error_response(
                E_INTERNAL,
                f"{type(exc).__name__}: {exc}",
                request_id=request_id,
            )
        tracer = self._service.workspace.tracer
        span = (
            tracer.start_detached(
                "net.request",
                {"priority": priority, "client": peer.client},
            )
            if tracer is not None
            else None
        )
        item = _Pending(
            peer=peer,
            request_id=request_id,
            request=request,
            priority=priority,
            detail=detail,
            digest=bool(data.get("digest", False)),
            span=span,
        )
        if not self._lanes[priority].push(item):
            self._counts.inc("shed")
            if span is not None:
                span.set(outcome="shed").end()
            return error_response(
                E_SHED,
                f"{priority} lane is full; retry after the hint",
                request_id=request_id,
                retry_after_ms=self._retry_ms[priority],
            )
        self._wake.set()
        return None

    # -- dispatch ------------------------------------------------------------

    def _next_pending(self) -> _Pending | None:
        """Weighted round-robin across lanes; None when all are empty."""
        cycle = self._lane_cycle
        for step in range(len(cycle)):
            index = (self._cycle_pos + step) % len(cycle)
            item = self._lanes[cycle[index]].pop()
            if item is not None:
                self._cycle_pos = (index + 1) % len(cycle)
                return item
        return None

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = self._next_pending()
            if item is None:
                self._wake.clear()
                await self._wake.wait()
                continue
            try:
                future = self._service.submit(item.request)
            except QueueFullError:
                # the service backlog is the hard bound; hold the
                # already-admitted request and retry after a pause
                # instead of shedding admitted work.
                self._counts.inc("backpressure_waits")
                self._lanes[item.priority].push_front(item)
                await asyncio.sleep(_BACKPRESSURE_PAUSE_S)
                continue
            except ServiceClosedError as exc:
                self._refuse_item(
                    item, "drained", E_DRAINING, str(exc), "drained"
                )
            except Exception as exc:
                self._refuse_item(
                    item, "internal", E_INTERNAL,
                    f"{type(exc).__name__}: {exc}",
                    "failed", "internal_errors",
                )
            else:
                task = loop.create_task(
                    self._deliver(item, asyncio.wrap_future(future))
                )
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)

    async def _deliver(
        self, item: _Pending, afuture: asyncio.Future
    ) -> None:
        try:
            plan = await afuture
        except asyncio.CancelledError:
            raise
        except ServiceClosedError as exc:
            self._refuse_item(
                item, "drained", E_DRAINING, str(exc), "drained"
            )
            return
        except ReproError as exc:
            self._refuse_item(
                item, "plan-failed", E_PLAN_FAILED, str(exc), "failed"
            )
            return
        except Exception as exc:
            self._refuse_item(
                item, "internal", E_INTERNAL,
                f"{type(exc).__name__}: {exc}",
                "failed", "internal_errors",
            )
            return
        self._counts.inc("completed")
        response = ok_response(item.request_id)
        if item.detail == "plan":
            response["plan"] = plan.to_dict()
        elif plan._simulated():
            response["result"] = plan_summary(plan)
        else:
            # a plan's first summary simulates it (milliseconds of CPU):
            # keep that off the loop; later summaries read the memo
            loop = asyncio.get_running_loop()
            response["result"] = await loop.run_in_executor(
                None, plan_summary, plan
            )
        if item.digest:
            response["digest"] = item.request.digest
        self._respond(item, response, outcome="completed")

    def _refuse_item(
        self, item: _Pending, outcome: str, code: str, message: str,
        *counts: str,
    ) -> None:
        """Count ``counts`` and answer an admitted request's refusal."""
        self._counts.inc(*counts)
        retry_after_ms = (
            self._retry_ms[item.priority] if code in RETRYABLE_CODES
            else None
        )
        self._respond(
            item,
            error_response(
                code, message, request_id=item.request_id,
                retry_after_ms=retry_after_ms,
            ),
            outcome=outcome,
        )

    def _respond(
        self, item: _Pending, response: dict, *, outcome: str
    ) -> None:
        delivered = item.peer.send(response)
        if not delivered:
            self._counts.inc("dropped")
        if item.span is not None:
            item.span.set(outcome=outcome, delivered=delivered).end()


class NetClient(LineClient):
    """Sync client on one :class:`NetServer`: persistent socket, retries.

    The kernel's :class:`~repro.rpc.LineClient` -- one connection
    guarded by a lock (thread-safe, one in-flight request at a time),
    lazily opened and re-opened with backoff after transport failures.
    Overload refusals (``shed``/``draining``) retry through the same
    :class:`~repro.rpc.Backoff`, never below the server's
    ``retry_after_ms`` hint; exhausted overload retries surface as
    :class:`~repro.errors.QueueFullError`, exhausted transport retries
    as plain :class:`~repro.errors.ServiceError`, and protocol refusals
    (bad schema/request/op) as :class:`~repro.errors.ProtocolError`.

    Args:
        address: the server's ``host:port``.
        schema: protocol schema stamped on every frame.
        timeout_s: per-operation socket timeout.
        retries: transport reconnect attempts *and* overload retry
            budget (each counted separately).
        backoff: the retry-delay policy (default: a fresh
            :class:`~repro.rpc.Backoff`); inject a seeded one for
            deterministic tests.

    Raises:
        ConfigError: for a malformed address or negative ``retries``.
    """

    def __init__(
        self,
        address: str,
        *,
        schema: int = PROTOCOL_SCHEMA_VERSION,
        timeout_s: float = 30.0,
        retries: int = 5,
        backoff: Backoff | None = None,
    ) -> None:
        super().__init__(
            address,
            schema=schema,
            timeout_s=timeout_s,
            retries=retries,
            backoff=backoff if backoff is not None else Backoff(),
        )

    def _checked(self, response: dict) -> dict:
        """Raise the mapped error for a refusal; pass a success through."""
        if response.get("ok"):
            return response
        error = response.get("error") or {}
        code = error.get("code")
        message = error.get("message", "")
        if code in RETRYABLE_CODES:
            raise QueueFullError(
                f"server shed the request ({code}): {message}"
            )
        if code == E_PLAN_FAILED:
            raise ServiceError(message or "plan resolution failed")
        raise ProtocolError(
            f"server refused the request ({code!r}): {message}"
        )

    def plan(
        self,
        payload: dict,
        *,
        priority: str = "interactive",
        detail: str = "summary",
        request_id: object = None,
        digest: bool = False,
    ) -> dict:
        """Submit one plan payload; returns the server's success envelope.

        ``payload`` is the ``repro serve --requests`` line schema
        (validated server-side).  Overload refusals retry with backoff,
        honoring the server's ``retry_after_ms``, up to the retry
        budget.

        Raises:
            QueueFullError: shed/draining persisted past the budget.
            ServiceError: transport exhausted, or the plan itself
                failed to resolve.
            ProtocolError: the server refused the frame (bad schema,
                malformed payload) -- retrying verbatim cannot help.
        """
        frame = {
            "op": "plan",
            "schema": self.schema,
            "id": request_id,
            "priority": priority,
            "detail": detail,
            "request": payload,
        }
        if digest:
            frame["digest"] = True
        attempt = 0
        while True:
            response = self._roundtrip(frame)
            if not response.get("ok"):
                error = response.get("error") or {}
                if (
                    error.get("code") in RETRYABLE_CODES
                    and attempt < self._retries
                ):
                    self._backoff.wait(
                        attempt,
                        floor_ms=float(
                            response.get("retry_after_ms") or 0.0
                        ),
                    )
                    attempt += 1
                    continue
            return self._checked(response)

    def ping(self) -> bool:
        """True when the server answers the ``ping`` op."""
        response = self._checked(
            self._roundtrip({"op": "ping", "schema": self.schema})
        )
        return bool(response.get("pong"))

    def stats(self) -> dict:
        """The server's ``stats`` body: ``{"net": ..., "service": ...}``."""
        response = self._checked(
            self._roundtrip({"op": "stats", "schema": self.schema})
        )
        return {
            "net": response.get("net", {}),
            "service": response.get("service", {}),
        }

    def metrics(self) -> str:
        """The server's Prometheus exposition (``repro.net.*``)."""
        response = self._checked(
            self._roundtrip({"op": "metrics", "schema": self.schema})
        )
        exposition = response.get("exposition")
        return exposition if isinstance(exposition, str) else ""
