"""The optional L3 tier: a tiny shared content-addressed cache server.

A fleet of planner/server processes (``repro report --jobs N`` on many
machines, several ``repro serve`` workers) warms each other through one
:class:`CacheServer`: the first process to compile a plan publishes its
content-addressed document, every later process fetches it instead of
compiling.  The wire format is the same JSON-lines idiom the serving
CLI already speaks -- one request object per line, one response object
per line, over a plain TCP socket:

* ``{"op": "get",  "key": K, "schema": V}`` ->
  ``{"ok": true, "hit": true, "value": TEXT}`` or
  ``{"ok": true, "hit": false}``
* ``{"op": "put",  "key": K, "value": TEXT, "schema": V}`` ->
  ``{"ok": true, "stored": true}``
* ``{"op": "stat", "schema": V}`` ->
  ``{"ok": true, "entries": N, "bytes": N, "hits": N, "misses": N,
  "evictions": N}``
* ``{"op": "metrics", "schema": V}`` ->
  ``{"ok": true, "exposition": TEXT}`` -- the same counters as
  Prometheus text exposition under ``repro.cache.server.*``
  (rendered by :mod:`repro.obs.export`; what ``repro metrics
  --remote`` prints).

Values are opaque text (the callers store the exact on-disk cache
documents, schema version and full content key included); keys are the
same digests that name ``plans/<digest>.json``.  A ``schema`` mismatch
is *refused* on every operation -- a cross-version fleet degrades to
cache misses, never to misread entries -- and the store itself is a
bounded :class:`~repro.cache.lru.LRUCache`, so the server's memory is
capped by entries and bytes with LRU eviction.

:class:`RemoteTier` is the client side: best-effort by design.  Every
transport failure (server gone, timeout, garbage response) turns into a
miss and an error counter tick; the planning path never fails because
the cache fleet did.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

from ..errors import ConfigError
from ..obs.export import render_prometheus
from ..obs.metrics import stats_samples
from .lru import LRUCache

#: on-wire schema of the remote-tier protocol *and* the cached
#: documents; bumped together with the workspace's on-disk format.
CACHE_SCHEMA_VERSION = 1

#: default client-side socket timeout: a wedged cache server must cost
#: a bounded stall, after which the tier degrades to misses.
DEFAULT_TIMEOUT_S = 5.0

#: refuse absurd single lines instead of buffering them (64 MiB).
MAX_LINE_BYTES = 64 * 1024 * 1024


def parse_address(address: str) -> tuple[str, int]:
    """Split ``"host:port"`` into a connectable pair.

    Raises:
        ConfigError: for a malformed address.
    """
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ConfigError(
            f"remote cache address {address!r} is not of the form "
            f"'host:port'"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ConfigError(
            f"remote cache address {address!r} has a non-integer port"
        ) from None


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: JSON-lines requests until EOF."""

    def handle(self) -> None:  # noqa: D102 - socketserver contract
        server: CacheServer = self.server  # type: ignore[assignment]
        while True:
            try:
                line = self.rfile.readline(MAX_LINE_BYTES)
            except OSError:
                return
            if not line:
                return
            response = server.handle_line(line)
            try:
                self.wfile.write(
                    json.dumps(response).encode("utf-8") + b"\n"
                )
            except OSError:
                return


class CacheServer(socketserver.ThreadingTCPServer):
    """A bounded, content-addressed, shared cache over a TCP socket.

    Args:
        host: bind address (default loopback).
        port: bind port (0 picks a free one; see :attr:`address`).
        max_entries: LRU entry bound of the in-memory store.
        max_bytes: LRU approximate-byte bound of the store.
        schema: protocol/document schema version served; requests
            carrying any other version are refused.

    Use either :meth:`start` (background thread, for tests and
    embedding) or :meth:`serve_forever` (blocking, what ``repro cache
    serve`` runs); :meth:`close` stops and releases the socket.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_entries: int = 4096,
        max_bytes: int | None = 256 * 1024 * 1024,
        schema: int = CACHE_SCHEMA_VERSION,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.schema = schema
        self.store = LRUCache(max_entries, max_bytes)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        """The connectable ``host:port`` (with the bound port resolved)."""
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    def handle_line(self, line: bytes) -> dict:
        """One request line -> one response object (exposed for tests)."""
        try:
            request = json.loads(line)
        except ValueError:
            return {"ok": False, "error": "invalid JSON request"}
        if not isinstance(request, dict):
            return {"ok": False, "error": "expected a JSON object"}
        if request.get("schema") != self.schema:
            return {
                "ok": False,
                "error": (
                    f"schema {request.get('schema')!r} refused; this "
                    f"server speaks schema {self.schema}"
                ),
            }
        op = request.get("op")
        if op == "get":
            key = request.get("key")
            if not isinstance(key, str):
                return {"ok": False, "error": "get lacks a string 'key'"}
            value = self.store.get(key)
            if value is None:
                return {"ok": True, "hit": False}
            return {"ok": True, "hit": True, "value": value}
        if op == "put":
            key, value = request.get("key"), request.get("value")
            if not isinstance(key, str) or not isinstance(value, str):
                return {
                    "ok": False,
                    "error": "put lacks string 'key'/'value'",
                }
            self.store.put(key, value, size=len(value))
            return {"ok": True, "stored": True}
        if op == "stat":
            stats = self.store.stats
            return {
                "ok": True,
                "entries": stats.entries,
                "bytes": stats.bytes,
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
            }
        if op == "metrics":
            return {"ok": True, "exposition": self.exposition()}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def exposition(self) -> str:
        """The server's own counters as Prometheus text exposition.

        The store's :class:`~repro.cache.stats.TierStats` under the
        ``repro.cache.server.*`` namespace (exact, scrape-ready).
        """
        return render_prometheus(
            stats_samples(self.store.stats, "repro.cache.server.")
        )

    def start(self) -> str:
        """Serve on a daemon thread; returns the connectable address."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever,
                name="repro-cache-server",
                daemon=True,
            )
            self._thread.start()
        return self.address

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._thread is not None:
            # shutdown() waits on serve_forever(); it deadlocks when the
            # serving loop was never started (direct handle_line users).
            self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class RemoteTier:
    """Client handle on one :class:`CacheServer` (or a compatible peer).

    Thread-safe: one persistent connection guarded by a lock, lazily
    opened and re-opened once per call after a failure.  Every
    operational failure degrades to a miss (get), a no-op (put) or None
    (stat) -- the planning path must never fail because the shared tier
    did.  The caller counts those degradations through the returned
    outcomes (None/False), keeping tier counters exact.

    Args:
        address: the server's ``host:port``.
        schema: schema version stamped on every request.
        timeout_s: per-operation socket timeout.
        retries: reconnect attempts after the first failure of a call
            (the historical behavior is 1: retry once on a fresh
            connection, then degrade).
        backoff: delay policy between those attempts -- the same
            :class:`~repro.serve.protocol.Backoff` the serving-tier
            :class:`~repro.serve.NetClient` uses (default: short jittered
            delays capped at 200 ms, sized for a cache that must degrade
            fast).  Inject one with a recording ``sleep`` for
            deterministic tests.

    Raises:
        ConfigError: for a malformed address or negative ``retries``.
    """

    def __init__(
        self,
        address: str,
        *,
        schema: int = CACHE_SCHEMA_VERSION,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        retries: int = 1,
        backoff=None,
    ) -> None:
        self.address = address
        self._host, self._port = parse_address(address)
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        self.schema = schema
        self.timeout_s = timeout_s
        self._retries = retries
        if backoff is None:
            from ..serve.protocol import Backoff

            backoff = Backoff(base_ms=10.0, max_ms=200.0)
        self._backoff = backoff
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._file = None

    def _connect(self) -> None:
        sock = socket.create_connection(
            (self._host, self._port), timeout=self.timeout_s
        )
        self._sock = sock
        self._file = sock.makefile("rb")

    def _drop(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - close race
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close race
                pass
        self._sock = None
        self._file = None

    def _roundtrip(self, request: dict) -> dict | None:
        """Send one request, read one response; None on any failure.

        Retries on a fresh connection up to the retry budget, waiting a
        backoff-with-jitter delay between attempts so a restarting
        server is not hammered in lockstep by every client; exhausted
        budgets degrade to None (a miss), never an exception.
        """
        payload = json.dumps(request).encode("utf-8") + b"\n"
        with self._lock:
            for attempt in range(self._retries + 1):
                try:
                    if self._sock is None:
                        self._connect()
                    self._sock.sendall(payload)
                    line = self._file.readline(MAX_LINE_BYTES)
                    if not line:
                        raise OSError("server closed the connection")
                    response = json.loads(line)
                    if not isinstance(response, dict):
                        raise ValueError("non-object response")
                    return response
                except (OSError, ValueError):
                    self._drop()
                    if attempt >= self._retries:
                        return None
                    self._backoff.wait(attempt)
        return None  # pragma: no cover - loop always returns

    def get(self, key: str) -> str | None:
        """The cached text for ``key``; None on miss *or* any failure."""
        response = self._roundtrip(
            {"op": "get", "key": key, "schema": self.schema}
        )
        if response is None or not response.get("ok"):
            return None
        if not response.get("hit"):
            return None
        value = response.get("value")
        return value if isinstance(value, str) else None

    def put(self, key: str, value: str) -> bool:
        """Publish ``key``; False when refused or unreachable."""
        response = self._roundtrip(
            {"op": "put", "key": key, "value": value, "schema": self.schema}
        )
        return bool(response and response.get("ok"))

    def stat(self) -> dict | None:
        """The server's occupancy/counter snapshot; None when unreachable."""
        response = self._roundtrip({"op": "stat", "schema": self.schema})
        if response is None or not response.get("ok"):
            return None
        return response

    def metrics(self) -> str | None:
        """The server's Prometheus exposition; None when unreachable."""
        response = self._roundtrip({"op": "metrics", "schema": self.schema})
        if response is None or not response.get("ok"):
            return None
        exposition = response.get("exposition")
        return exposition if isinstance(exposition, str) else None

    def close(self) -> None:
        """Drop the connection (the tier reconnects on next use)."""
        with self._lock:
            self._drop()
