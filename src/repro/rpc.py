"""The one RPC kernel: a JSON-lines server and client over TCP.

Both network services are this kernel plus an op table: the shared L3
cache (:class:`~repro.cache.remote.CacheServer`, client
:class:`~repro.cache.remote.RemoteTier`) and the plan server
(:class:`~repro.serve.net.NetServer`, client
:class:`~repro.serve.net.NetClient`).  The kernel owns the framing
(one UTF-8 JSON object per ``\\n``-terminated line, hand-buffered so an
over-bound line gets exactly one ``oversized-line`` refusal and the
connection resyncs at the next newline), the frame gate (JSON, object,
``schema``), the :func:`ok_response`/:func:`error_response` envelopes
with the transport ``E_*`` codes, the ``internal`` last line of
defense, the background-loop lifecycle, the transport counters
(:class:`TransportStats`), :class:`Backoff`, and one client
(:class:`LineClient`).  Requests on one connection are answered in
order.

It needs only the standard library, repro's error types and its stats
schema -- never :mod:`repro.api` or :mod:`repro.serve` -- so the cache
package builds on it without an import cycle.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, ServiceClosedError, ServiceError
from .obs.metrics import CounterCell, Stats, gauge

#: a client's bound on one response line (64 MiB): a longer one is a
#: broken peer, and the connection is dropped instead of buffering it.
MAX_RESPONSE_BYTES = 64 * 1024 * 1024

#: the size of a server's read buffer, which every socket read on any
#: of its connections fills in place.
READ_BUFFER_BYTES = 64 * 1024

# -- stable transport error codes (see docs/SERVING.md) ---------------------

#: the line is not valid JSON.
E_BAD_JSON = "bad-json"
#: the line parsed, but is not a JSON object.
E_BAD_FRAME = "bad-frame"
#: the envelope's ``schema`` is missing or not this server's version.
E_BAD_SCHEMA = "bad-schema"
#: the envelope's ``op`` is not one this server speaks.
E_UNKNOWN_OP = "unknown-op"
#: the request line exceeded the server's line bound and was discarded.
E_OVERSIZED = "oversized-line"
#: the op's arguments are malformed (a plan payload, ``priority`` or
#: ``detail``; a cache ``key`` or ``value``).
E_BAD_REQUEST = "bad-request"
#: a server defect (the 5xx class); never expected, always counted.
E_INTERNAL = "internal"


def encode_frame(obj: dict) -> bytes:
    """One protocol object as its on-wire line (UTF-8 JSON + newline)."""
    return json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n"


def ok_response(request_id: object = None, **fields: object) -> dict:
    """A success envelope echoing ``request_id``, with ``fields`` merged."""
    response: dict = {"ok": True, "id": request_id}
    response.update(fields)
    return response


def error_response(
    code: str,
    message: str,
    *,
    request_id: object = None,
    retry_after_ms: float | None = None,
) -> dict:
    """A refusal envelope: stable ``code``, human ``message``.

    ``retry_after_ms`` is attached only for retryable refusals, telling
    a well-behaved client how long to wait before resubmitting the
    identical frame.
    """
    response: dict = {
        "ok": False,
        "id": request_id,
        "error": {"code": code, "message": message},
    }
    if retry_after_ms is not None:
        response["retry_after_ms"] = round(float(retry_after_ms), 3)
    return response


def parse_address(address: str) -> tuple[str, int]:
    """Split ``"host:port"`` into a connectable pair.

    Raises:
        ConfigError: for a malformed address.
    """
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ConfigError(
            f"address {address!r} is not of the form 'host:port'"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ConfigError(
            f"address {address!r} has a non-integer port"
        ) from None


class Backoff:
    """Capped exponential retry delays with seeded jitter.

    The one retry-delay policy of the networking layer: every
    :class:`LineClient` reconnects through it, and
    :class:`~repro.serve.net.NetClient` also honors the server's
    ``retry_after_ms`` with it.  Attempt ``k`` sleeps ``base_ms *
    factor**k`` capped at ``max_ms``, scaled by a jitter factor uniform
    in ``[1 - jitter, 1 + jitter]``, and never below the caller's
    ``floor_ms``.

    Both the random source and the sleeper are injectable, so tests pin
    the exact delay sequence with a seeded :class:`random.Random` and a
    recording fake sleeper instead of sleeping for real.

    Args:
        base_ms: first-attempt delay.
        factor: per-attempt growth (>= 1).
        max_ms: delay cap before jitter.
        jitter: relative jitter half-width in ``[0, 1)``; 0 disables.
        rng: random source for the jitter (default: a fresh
            process-seeded :class:`random.Random`).
        sleep: the sleeper, taking seconds (default: ``time.sleep``).

    Raises:
        ConfigError: for a non-positive ``base_ms``, ``factor < 1``,
            ``max_ms < base_ms``, or ``jitter`` outside ``[0, 1)``.
    """

    def __init__(
        self,
        *,
        base_ms: float = 25.0,
        factor: float = 2.0,
        max_ms: float = 2000.0,
        jitter: float = 0.25,
        rng: random.Random | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if base_ms <= 0:
            raise ConfigError(f"base_ms must be > 0, got {base_ms}")
        if factor < 1.0:
            raise ConfigError(f"factor must be >= 1, got {factor}")
        if max_ms < base_ms:
            raise ConfigError(
                f"max_ms must be >= base_ms, got {max_ms} < {base_ms}"
            )
        if not 0.0 <= jitter < 1.0:
            raise ConfigError(f"jitter must be in [0, 1), got {jitter}")
        self.base_ms = float(base_ms)
        self.factor = float(factor)
        self.max_ms = float(max_ms)
        self.jitter = float(jitter)
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep

    def delay_ms(self, attempt: int, *, floor_ms: float = 0.0) -> float:
        """The delay before retry number ``attempt`` (0-based), in ms."""
        delay = min(self.base_ms * self.factor ** attempt, self.max_ms)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return max(delay, float(floor_ms))

    def wait(self, attempt: int, *, floor_ms: float = 0.0) -> float:
        """Sleep for :meth:`delay_ms`; returns the delay actually slept."""
        delay = self.delay_ms(attempt, floor_ms=floor_ms)
        self._sleep(delay / 1000.0)
        return delay


@dataclass(frozen=True)
class TransportStats(Stats):
    """Exact transport counters of one :class:`LineServer`.

    Attributes:
        connections: client connections accepted, lifetime.
        open_connections: currently connected clients (a gauge).
        frames: request lines received (including refused ones;
            blank and oversized lines excluded).
        protocol_errors: refused frames (``bad-json``/``bad-frame``/
            ``bad-schema``/``unknown-op``/``oversized-line``/
            ``bad-request``).
        internal_errors: the 5xx class -- unexpected server defects.
    """

    connections: int = 0
    open_connections: int = gauge()
    frames: int = 0
    protocol_errors: int = 0
    internal_errors: int = 0


class Peer(asyncio.BufferedProtocol):
    """One client connection: hand-buffered framing, in-order answers.

    The transport reads into the server's one read buffer (see
    :meth:`get_buffer`): a plain protocol's transport would allocate a
    fresh 256 KiB ``bytes`` per read, which glibc serves with an
    ``mmap``/``munmap`` pair and page faults while its mmap threshold
    sits at the default 128 KiB.  :meth:`buffer_updated` copies what was
    read out before the loop services another socket, so the server's
    connections can share that buffer and an open connection holds no
    read buffer of its own.

    Each complete line is answered as soon as it is read, on the loop,
    with no task or future in between.  A line over the server's bound
    gets one ``oversized-line`` refusal and its tail is skipped up to
    the next newline.  While the transport's write buffer is over its
    high-water mark the connection stops reading, so a client that does
    not read its answers cannot make the server buffer without bound.

    Attributes:
        client: a server-unique connection id.
    """

    def __init__(self, server: "LineServer") -> None:
        self.client = next(server._client_ids)
        self._server = server
        self._transport: asyncio.Transport | None = None
        self._buf = bytearray()
        self._discarding = False  # inside the tail of an oversized line

    def connection_made(self, transport) -> None:
        """Count and register the accepted connection."""
        self._transport = transport
        self._server._counts.inc("connections")
        self._server._peers.add(self)

    def connection_lost(self, exc) -> None:
        """Unregister the connection."""
        self._server._peers.discard(self)

    def pause_writing(self) -> None:
        """Stop reading requests while answers back up."""
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        """Read requests again once the answers drained."""
        self._transport.resume_reading()

    def get_buffer(self, sizehint: int) -> memoryview:
        """The server's read buffer, for the transport to fill."""
        return self._server._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        """Frame the ``nbytes`` just read into lines; answer each
        complete one."""
        server = self._server
        bound = server._max_line_bytes
        buf = self._buf
        buf += server._read_buffer[:nbytes]
        start = 0
        while (newline := buf.find(b"\n", start)) >= 0:
            line = bytes(buf[start:newline])
            start = newline + 1
            if self._discarding:
                self._discarding = False
            elif len(line) > bound:
                self._refuse_oversized()
            elif line.strip():
                server._counts.inc("frames")
                try:
                    response = server.handle_line(line, self)
                except Exception as exc:
                    # the last line of defense: a defect while handling
                    # one frame answers `internal`, never kills the
                    # connection.
                    server._counts.inc("internal_errors")
                    response = error_response(
                        E_INTERNAL, f"{type(exc).__name__}: {exc}"
                    )
                if response is not None:
                    self.send(response)
        del buf[:start]
        if self._discarding:
            buf.clear()
        elif len(buf) > bound:
            self._refuse_oversized()
            self._discarding = True
            buf.clear()

    def _refuse_oversized(self) -> None:
        bound = self._server._max_line_bytes
        self.send(
            self._server.refuse(
                E_OVERSIZED, f"request line exceeds {bound} bytes"
            )
        )

    def send(self, response: dict) -> bool:
        """Write one response frame; False when the client is gone."""
        transport = self._transport
        if transport.is_closing():
            return False
        transport.write(encode_frame(response))
        return not transport.is_closing()

    def close(self) -> None:
        """Close the connection once its buffered answers are written."""
        self._transport.close()


class LineServer:
    """A JSON-lines server on an asyncio loop in a background thread.

    A subclass supplies the op table (:meth:`handle`) and, if it keeps
    work beyond one frame, the lifecycle hooks :meth:`_on_start`,
    :meth:`_on_drain` and :meth:`_on_close`.  :meth:`handle_line` is
    the whole path of one frame -- decode, object check, ``schema``
    gate, op -- and works without a running loop.

    Args:
        host: bind address.
        port: bind port (0 picks a free one; see :attr:`address`).
        schema: the protocol schema version served; frames carrying any
            other are refused ``bad-schema``.
        max_line_bytes: request-line bound; longer lines are refused
            ``oversized-line`` and skipped.

    Raises:
        ConfigError: for ``max_line_bytes < 2``.
    """

    #: the stats type of :meth:`_snapshot`; declares at least
    #: :class:`TransportStats`' fields.
    stats_type: type = TransportStats
    #: the name of the loop thread.
    thread_name = "repro-line-server"

    def __init__(
        self, host: str, port: int, *, schema: int, max_line_bytes: int
    ) -> None:
        if max_line_bytes < 2:
            raise ConfigError(
                f"max_line_bytes must be >= 2, got {max_line_bytes}"
            )
        self.schema = schema
        self._host = host
        self._port = port
        self._max_line_bytes = max_line_bytes
        self._counts = CounterCell(self.stats_type)
        self._client_ids = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._aserver: asyncio.AbstractServer | None = None
        self._peers: set[Peer] = set()
        # shared by every connection (see :class:`Peer`)
        self._read_buffer = memoryview(bytearray(READ_BUFFER_BYTES))
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: BaseException | None = None
        self._bound: tuple[str, int] | None = None
        self._closed = False

    # -- one frame -----------------------------------------------------------

    def handle_line(
        self, line: bytes, peer: Peer | None = None
    ) -> dict | None:
        """One request line -> its response (None: answered later)."""
        try:
            request = json.loads(line)
        except ValueError:
            return self.refuse(E_BAD_JSON, "invalid JSON")
        if not isinstance(request, dict):
            return self.refuse(E_BAD_FRAME, "expected a JSON object")
        if request.get("schema") != self.schema:
            return self.refuse(
                E_BAD_SCHEMA,
                f"schema {request.get('schema')!r} refused; this "
                f"server speaks schema {self.schema}",
                request.get("id"),
            )
        return self.handle(request, peer)

    def handle(self, request: dict, peer: Peer | None) -> dict | None:
        """Answer one gated request object (the subclass's op table)."""
        raise NotImplementedError

    def refuse(
        self, code: str, message: str, request_id: object = None, *also: str
    ) -> dict:
        """Count a protocol error (and the counters ``also``); its refusal."""
        self._counts.inc("protocol_errors", *also)
        return error_response(code, message, request_id=request_id)

    def _snapshot(self, **rest):
        """The exact counters now, ``open_connections`` filled in."""
        return self._counts.snapshot(
            open_connections=len(self._peers), **rest
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> str:
        """The connectable ``host:port`` (with the bound port resolved)."""
        if self._bound is None:
            raise ServiceError(f"{type(self).__name__} has not been started")
        host, port = self._bound
        return f"{host}:{port}"

    def start(self) -> str:
        """Serve on a background thread; returns the bound address."""
        if self._closed:
            raise ServiceClosedError(f"{type(self).__name__} is closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._thread_main, name=self.thread_name, daemon=True
            )
            self._thread.start()
            self._started.wait()
            if self._startup_error is not None:
                self._thread.join()
                self._thread = None
                raise self._startup_error
        return self.address

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._startup())
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        loop.run_forever()
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()

    async def _startup(self) -> None:
        self._aserver = await asyncio.get_running_loop().create_server(
            lambda: Peer(self), self._host, self._port
        )
        self._bound = self._aserver.sockets[0].getsockname()[:2]
        await self._on_start()

    async def _on_start(self) -> None:
        """Hook: the listener is bound (runs on the loop)."""

    def wait(self, timeout_s: float | None = None) -> bool:
        """Block until :meth:`close` finishes (the CLI's foreground mode)."""
        return self._stopped.wait(timeout_s)

    def close(self, *, drain: bool = True, timeout_s: float = 60.0) -> None:
        """Stop serving and release the socket (idempotent).

        Args:
            drain: let :meth:`_on_drain` answer the work already
                admitted before connections are cut.
            timeout_s: bound on the drain phase.
        """
        if self._closed:
            return
        self._closed = True
        if self._thread is not None and self._loop is not None:
            future = asyncio.run_coroutine_threadsafe(
                self._shutdown(drain, timeout_s), self._loop
            )
            try:
                future.result(timeout=timeout_s + 5.0)
            finally:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=10.0)
        self._on_close(drain)
        self._stopped.set()

    async def _shutdown(self, drain: bool, timeout_s: float) -> None:
        self._aserver.close()
        await self._on_drain(drain, time.monotonic() + timeout_s)
        for peer in list(self._peers):
            peer.close()
        await self._aserver.wait_closed()

    async def _on_drain(self, drain: bool, deadline: float) -> None:
        """Hook: the listener is closed; settle admitted work by
        ``deadline`` (``time.monotonic``) before connections are cut."""

    def _on_close(self, drain: bool) -> None:
        """Hook: the loop has stopped (runs on the closing thread)."""

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=True)


class LineClient:
    """Sync client on one :class:`LineServer`: one persistent socket.

    Thread-safe: one connection guarded by a lock (one request in
    flight at a time), opened lazily and re-opened after a transport
    failure, waiting a :class:`Backoff` delay between attempts so a
    restarting server is not hammered in lockstep by every client.

    Args:
        address: the server's ``host:port``.
        schema: schema version the subclass stamps on its requests.
        timeout_s: per-operation socket timeout.
        retries: reconnect attempts after the first failure of a call.
        backoff: the delay policy between those attempts.

    Raises:
        ConfigError: for a malformed address or negative ``retries``.
    """

    def __init__(
        self,
        address: str,
        *,
        schema: int,
        timeout_s: float,
        retries: int,
        backoff: Backoff,
    ) -> None:
        self.address = address
        self._host, self._port = parse_address(address)
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        self.schema = schema
        self.timeout_s = timeout_s
        self._retries = retries
        self._backoff = backoff
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._file = None

    def _drop(self) -> None:
        for resource in (self._file, self._sock):
            if resource is not None:
                try:
                    resource.close()
                except OSError:  # pragma: no cover - close race
                    pass
        self._sock = None
        self._file = None

    def _roundtrip(self, request: dict) -> dict:
        """One frame out, one response object back, reconnecting.

        Raises:
            ServiceError: when every attempt failed (refused connection,
                timeout, closed or oversized or undecodable response).
        """
        payload = encode_frame(request)
        last: Exception | None = None
        with self._lock:
            for attempt in range(self._retries + 1):
                try:
                    if self._sock is None:
                        self._sock = socket.create_connection(
                            (self._host, self._port), timeout=self.timeout_s
                        )
                        self._file = self._sock.makefile("rb")
                    self._sock.sendall(payload)
                    line = self._file.readline(MAX_RESPONSE_BYTES + 1)
                    if not line.endswith(b"\n"):
                        raise OSError(
                            f"response line exceeds {MAX_RESPONSE_BYTES} "
                            f"bytes" if len(line) > MAX_RESPONSE_BYTES
                            else "server closed the connection"
                        )
                    response = json.loads(line)
                    if not isinstance(response, dict):
                        raise ValueError("non-object response")
                    return response
                except (OSError, ValueError) as exc:
                    last = exc
                    self._drop()
                    if attempt < self._retries:
                        self._backoff.wait(attempt)
        raise ServiceError(
            f"server {self.address} unreachable after "
            f"{self._retries + 1} attempt(s): {last}"
        )

    def close(self) -> None:
        """Drop the connection (the client reconnects on next use)."""
        with self._lock:
            self._drop()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
