"""Closed-loop wire clients: plan requests, ``stats``, and cache preload.

The clients speak the JSON-lines protocols directly over sockets, so
the load generator shares no code path with the server it measures.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Callable

#: per-operation socket timeout; a timed-out request counts as failed.
TIMEOUT_S = 30.0


def _address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    return host, int(port)


class Connection:
    """One blocking JSON-lines connection: a frame out, a line back."""

    def __init__(self, address: str) -> None:
        self.sock = socket.create_connection(
            _address(address), timeout=TIMEOUT_S
        )
        self.file = self.sock.makefile("rb")

    def roundtrip(self, frame: bytes) -> bytes:
        """Send one frame; the response line (raises on a closed socket)."""
        self.sock.sendall(frame)
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def frame(obj: dict) -> bytes:
    """One protocol object as its line."""
    return json.dumps(obj).encode("utf-8") + b"\n"


def closed_loop(
    address: str,
    frames: list[bytes],
    order: list[int],
    check: Callable[[int, dict], bool],
) -> dict:
    """Send ``frames[i]`` for every ``i`` in ``order`` from one caller
    that waits for each answer before sending the next request.

    One caller makes a run a sequential chain (caller, server, cache
    server).  With two callers the run-to-run spread of the wire metrics
    on a shared 2-core host was 30-60% of the median; with one it was
    about 10%.

    A request's latency runs from writing its frame to reading its
    response line; ``check(i, response)`` then decides whether it counts
    as a checked answer.  Errors, timeouts and failed checks count as
    failed.
    """
    latencies_ms: list[float] = []
    errors: list[str] = []
    conn: Connection | None = None
    started = time.perf_counter()
    try:
        for item in order:
            try:
                if conn is None:
                    conn = Connection(address)
                begin = time.perf_counter()
                line = conn.roundtrip(frames[item])
                elapsed = time.perf_counter() - begin
                response = json.loads(line)
                if not isinstance(response, dict):
                    raise ValueError("response is not a JSON object")
            except (OSError, ValueError) as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
                if conn is not None:
                    conn.close()
                    conn = None
                continue
            if check(item, response):
                latencies_ms.append(elapsed * 1e3)
            else:
                errors.append(f"check failed: {line[:200]!r}")
    finally:
        if conn is not None:
            conn.close()
    return {
        "attempted": len(order),
        "answered": len(latencies_ms),
        "failed": len(order) - len(latencies_ms),
        "errors": errors[:5],
        "latencies_ms": latencies_ms,
        "wall_s": time.perf_counter() - started,
    }


def server_stats(address: str) -> dict:
    """The plan server's ``stats`` op body."""
    conn = Connection(address)
    try:
        response = json.loads(
            conn.roundtrip(frame({"op": "stats", "schema": 1}))
        )
    finally:
        conn.close()
    if response.get("ok") is not True:
        raise RuntimeError(f"stats op refused: {response}")
    return response


def preload(address: str, documents: dict[str, str], batch: int = 64) -> None:
    """Publish every ``key -> text`` document to a cache server.

    Raises:
        RuntimeError: when the server does not store a document.
    """
    conn = Connection(address)
    try:
        items = list(documents.items())
        for start in range(0, len(items), batch):
            chunk = items[start:start + batch]
            conn.sock.sendall(
                b"".join(
                    frame({"op": "put", "key": k, "value": v, "schema": 1})
                    for k, v in chunk
                )
            )
            for key, _ in chunk:
                response = json.loads(conn.file.readline() or b"{}")
                if response.get("stored") is not True:
                    raise RuntimeError(f"cache server refused {key}")
    finally:
        conn.close()
