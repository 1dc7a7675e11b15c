"""The optional L3 tier: a tiny shared content-addressed cache server.

A fleet of planner/server processes (``repro report`` runs on many
machines, several ``repro serve`` workers) warms each other through one
:class:`CacheServer`: the first process to compile a plan publishes its
content-addressed document, every later process fetches it instead of
compiling.  The wire is the JSON-lines transport of :mod:`repro.rpc`
that the plan server speaks too -- one request object per line, one
response object per line, over a plain TCP socket:

* ``{"op": "get",  "key": K, "schema": V}`` ->
  ``{"ok": true, "hit": true, "value": TEXT}`` or
  ``{"ok": true, "hit": false}``
* ``{"op": "put",  "key": K, "value": TEXT, "schema": V}`` ->
  ``{"ok": true, "stored": true}``
* ``{"op": "stat", "schema": V}`` ->
  ``{"ok": true, "entries": N, "bytes": N, "hits": N, "misses": N,
  "evictions": N}``
* ``{"op": "metrics", "schema": V}`` ->
  ``{"ok": true, "exposition": TEXT}`` -- the store's counters and the
  transport's as Prometheus text exposition under
  ``repro.cache.server.*`` (rendered by :mod:`repro.obs.export`; what
  ``repro metrics --remote`` prints).

Every refusal is the kernel's structured envelope, ``{"ok": false,
"id": null, "error": {"code": C, "message": M}}``, with the codes of
:mod:`repro.rpc` (``bad-json``, ``bad-frame``, ``bad-schema``,
``unknown-op``, ``oversized-line``, ``bad-request``, ``internal``).

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

import threading

from ..errors import ServiceError
from ..obs.export import render_prometheus
from ..obs.metrics import stats_samples
from ..rpc import (
    E_BAD_REQUEST,
    E_UNKNOWN_OP,
    Backoff,
    LineClient,
    LineServer,
    Peer,
)
from .lru import LRUCache

#: on-wire schema of the remote-tier protocol *and* the cached
#: documents; bumped together with the workspace's on-disk format.
CACHE_SCHEMA_VERSION = 1

#: default client-side socket timeout: a wedged cache server must cost
#: a bounded stall, after which the tier degrades to misses.
DEFAULT_TIMEOUT_S = 5.0

#: refuse absurd single request lines instead of buffering them (64 MiB).
MAX_LINE_BYTES = 64 * 1024 * 1024


class CacheServer(LineServer):
    """A bounded, content-addressed, shared cache over a TCP socket.

    Args:
        host: bind address (default loopback).
        port: bind port (0 picks a free one; see :attr:`address`).
        max_entries: LRU entry bound of the in-memory store.
        max_bytes: LRU approximate-byte bound of the store.
        schema: protocol/document schema version served; requests
            carrying any other version are refused.

    :meth:`start` serves on a background thread and returns the
    address; ``repro cache serve`` then blocks on :meth:`wait`, and
    :meth:`close` stops and releases the socket.
    """

    thread_name = "repro-cache-server"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_entries: int = 4096,
        max_bytes: int | None = 256 * 1024 * 1024,
        schema: int = CACHE_SCHEMA_VERSION,
    ) -> None:
        super().__init__(
            host, port, schema=schema, max_line_bytes=MAX_LINE_BYTES
        )
        self.store = LRUCache(max_entries, max_bytes)

    def handle_line(self, line: bytes, peer: Peer | None = None) -> dict:
        """One request line -> one response object (exposed for tests).

        The cache's whole request path -- decode, gate, op -- so a
        wrapper on this method times everything the server does for one
        request.
        """
        return super().handle_line(line, peer)

    def handle(self, request: dict, peer: Peer | None) -> dict:
        """Answer one gated ``get``/``put``/``stat``/``metrics`` request."""
        op = request.get("op")
        if op == "get":
            key = request.get("key")
            if not isinstance(key, str):
                return self.refuse(E_BAD_REQUEST, "get lacks a string 'key'")
            value = self.store.get(key)
            if value is None:
                return {"ok": True, "hit": False}
            return {"ok": True, "hit": True, "value": value}
        if op == "put":
            key, value = request.get("key"), request.get("value")
            if not isinstance(key, str) or not isinstance(value, str):
                return self.refuse(
                    E_BAD_REQUEST, "put lacks string 'key'/'value'"
                )
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
        return self.refuse(
            E_UNKNOWN_OP, f"unknown op {op!r}", request.get("id")
        )

    def exposition(self) -> str:
        """The server's own counters as Prometheus text exposition.

        The store's :class:`~repro.cache.stats.TierStats` and the
        transport's :class:`~repro.rpc.TransportStats`, under the
        ``repro.cache.server.*`` namespace (exact, scrape-ready).
        """
        prefix = "repro.cache.server."
        return render_prometheus(
            stats_samples(self.store.stats, prefix)
            + stats_samples(self._snapshot(), prefix)
        )


class RemoteTier(LineClient):
    """Client handle on one :class:`CacheServer` (or a compatible peer).

    Thread-safe: one persistent connection guarded by a lock, lazily
    opened and re-opened after a failure (:class:`~repro.rpc.LineClient`).
    Every operational failure degrades to a miss (get), a no-op (put) or
    None (stat) -- the planning path must never fail because the shared
    tier did.  The caller counts those degradations through the returned
    outcomes (None/False, and :meth:`last_get_failed` after a get),
    keeping tier counters exact.

    Args:
        address: the server's ``host:port``.
        schema: schema version stamped on every request.
        timeout_s: per-operation socket timeout.
        retries: reconnect attempts after the first failure of a call
            (the historical behavior is 1: retry once on a fresh
            connection, then degrade).
        backoff: delay policy between those attempts -- the one
            :class:`~repro.rpc.Backoff` every client uses (default:
            short jittered delays capped at 200 ms, sized for a cache
            that must degrade fast).  Inject one with a recording
            ``sleep`` for deterministic tests.

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
        backoff: Backoff | None = None,
    ) -> None:
        super().__init__(
            address,
            schema=schema,
            timeout_s=timeout_s,
            retries=retries,
            backoff=(
                backoff if backoff is not None
                else Backoff(base_ms=10.0, max_ms=200.0)
            ),
        )
        self._last_get = threading.local()

    def _call(self, op: str, **fields: str) -> dict | None:
        """The success response to ``op``; None when refused or unreachable."""
        try:
            response = self._roundtrip(
                {"op": op, "schema": self.schema, **fields}
            )
        except ServiceError:
            return None
        return response if response.get("ok") else None

    def get(self, key: str) -> str | None:
        """The cached text for ``key``; None on miss *or* any failure.

        :meth:`last_get_failed` then tells the two apart.
        """
        response = self._call("get", key=key)
        hit = response is not None and bool(response.get("hit"))
        value = response.get("value") if hit else None
        text = value if isinstance(value, str) else None
        self._last_get.failed = response is None or (hit and text is None)
        return text

    def last_get_failed(self) -> bool:
        """Whether the calling thread's last :meth:`get` failed.

        A get refused by the server, unanswered, or answered with a hit
        that carries no text failed; a plain miss did not.  Per thread,
        so concurrent callers each read their own outcome.
        """
        return getattr(self._last_get, "failed", False)

    def put(self, key: str, value: str) -> bool:
        """Publish ``key``; False when refused or unreachable."""
        return self._call("put", key=key, value=value) is not None

    def stat(self) -> dict | None:
        """The server's occupancy/counter snapshot; None when unreachable."""
        return self._call("stat")

    def metrics(self) -> str | None:
        """The server's Prometheus exposition; None when unreachable."""
        response = self._call("metrics")
        exposition = None if response is None else response.get("exposition")
        return exposition if isinstance(exposition, str) else None
