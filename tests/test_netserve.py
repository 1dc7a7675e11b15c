"""Wire-protocol conformance for the network serving tier.

Every malformed input -- broken JSON, non-object frames, wrong schema,
unknown ops, oversized lines, truncated frames, seeded random fuzz --
must get a structured error response on a live connection, never a hang
or a dead server.  The transport half of that contract belongs to the
RPC kernel (:mod:`repro.rpc`), so the transport conformance tests run
against both servers built on it: :class:`NetServer` and the cache
tier's :class:`~repro.cache.remote.CacheServer`.  The shared
:class:`~repro.rpc.Backoff` policy is pinned with injected RNG and
sleepers so the retry behavior of :class:`NetClient` and
:class:`RemoteTier` is deterministic.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time

import pytest

from repro import (
    Backoff,
    ConfigError,
    NetClient,
    NetServer,
    PlanRequest,
    ProtocolError,
    QueueFullError,
    ServiceError,
    Workspace,
)
from repro import rpc
from repro.cache import remote
from repro.cache.remote import CACHE_SCHEMA_VERSION, CacheServer, RemoteTier
from repro.serve.protocol import (
    E_BAD_FRAME,
    E_BAD_JSON,
    E_BAD_REQUEST,
    E_BAD_SCHEMA,
    E_OVERSIZED,
    E_PLAN_FAILED,
    E_UNKNOWN_OP,
    PROTOCOL_SCHEMA_VERSION,
    retry_priorities,
)
from tests.helpers import count_identity_calls

TINY_PAYLOAD = {
    "cluster": "B",
    "system": "tutel",
    "solver": "slsqp",
    "stack": {
        "layers": [
            {
                "batch_size": 1,
                "seq_len": 256,
                "embed_dim": 512,
                "num_experts": 8,
                "num_heads": 8,
            }
        ],
        "num_layers": 2,
    },
}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One NetServer shared by the module (tests only read counters
    relatively or poke the protocol, so sharing is safe and fast)."""
    workspace = Workspace(tmp_path_factory.mktemp("netserve") / "ws")
    with NetServer(workspace, flush_ms=1.0, max_line_bytes=64 * 1024) as srv:
        yield srv


@pytest.fixture()
def raw(server):
    """A raw socket + buffered reader on the server."""
    host, port = server.address.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=30.0)
    reader = sock.makefile("rb")
    yield sock, reader
    reader.close()
    sock.close()


def send_line(sock, payload: bytes) -> None:
    sock.sendall(payload if payload.endswith(b"\n") else payload + b"\n")


def read_response(reader) -> dict:
    line = reader.readline()
    assert line, "server closed the connection instead of answering"
    response = json.loads(line)
    assert isinstance(response, dict)
    return response


def error_code(response: dict) -> str:
    assert response["ok"] is False
    return response["error"]["code"]


class TestProtocolConformance:
    def test_malformed_json_gets_structured_error(self, raw):
        sock, reader = raw
        send_line(sock, b"this is not json")
        assert error_code(read_response(reader)) == E_BAD_JSON

    def test_non_object_frame_is_refused(self, raw):
        sock, reader = raw
        for frame in (b"[1, 2, 3]", b'"hello"', b"17", b"null", b"true"):
            send_line(sock, frame)
            assert error_code(read_response(reader)) == E_BAD_FRAME

    def test_missing_and_wrong_schema_are_refused(self, raw):
        sock, reader = raw
        send_line(sock, json.dumps({"op": "ping"}).encode())
        assert error_code(read_response(reader)) == E_BAD_SCHEMA
        send_line(sock, json.dumps({"op": "ping", "schema": 99}).encode())
        response = read_response(reader)
        assert error_code(response) == E_BAD_SCHEMA
        assert str(PROTOCOL_SCHEMA_VERSION) in response["error"]["message"]

    def test_unknown_op_is_refused_and_echoes_id(self, raw):
        sock, reader = raw
        send_line(
            sock,
            json.dumps(
                {"op": "mystery", "schema": PROTOCOL_SCHEMA_VERSION,
                 "id": "req-7"}
            ).encode(),
        )
        response = read_response(reader)
        assert error_code(response) == E_UNKNOWN_OP
        assert response["id"] == "req-7"

    def test_truncated_frame_then_close_leaves_server_alive(self, server):
        host, port = server.address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)), timeout=10.0)
        # half a JSON object, no newline, then a hard close
        sock.sendall(b'{"op": "plan", "schema": 1, "request": {"clu')
        sock.close()
        client = NetClient(server.address)
        assert client.ping() is True
        client.close()

    def test_blank_lines_are_ignored(self, raw):
        sock, reader = raw
        sock.sendall(b"\n\n   \n")
        send_line(
            sock,
            json.dumps(
                {"op": "ping", "schema": PROTOCOL_SCHEMA_VERSION}
            ).encode(),
        )
        assert read_response(reader)["pong"] is True

    def test_bad_plan_payloads_get_bad_request(self, raw):
        sock, reader = raw
        payloads = [
            None,
            [1, 2],
            {},
            {"cluster": "B"},
            {**TINY_PAYLOAD, "mystery": 1},
            {**TINY_PAYLOAD, "cluster": "no-such-cluster"},
            {**TINY_PAYLOAD, "system": "no-such-system"},
            {**TINY_PAYLOAD, "gate": "no-such-gate"},
            {**TINY_PAYLOAD, "seed": "not-a-number"},
        ]
        for payload in payloads:
            send_line(
                sock,
                json.dumps(
                    {
                        "op": "plan",
                        "schema": PROTOCOL_SCHEMA_VERSION,
                        "request": payload,
                    }
                ).encode(),
            )
            assert error_code(read_response(reader)) == E_BAD_REQUEST

    def test_bad_priority_and_detail_are_refused(self, raw):
        sock, reader = raw
        for field, value in (("priority", "urgent"), ("detail", "everything")):
            send_line(
                sock,
                json.dumps(
                    {
                        "op": "plan",
                        "schema": PROTOCOL_SCHEMA_VERSION,
                        field: value,
                        "request": TINY_PAYLOAD,
                    }
                ).encode(),
            )
            assert error_code(read_response(reader)) == E_BAD_REQUEST

    def test_protocol_errors_are_counted_not_requests(self, server, raw):
        sock, reader = raw
        before = server.stats_snapshot()
        send_line(sock, b"not json")
        read_response(reader)
        after = server.stats_snapshot()
        assert after.protocol_errors == before.protocol_errors + 1
        assert after.requests == before.requests

    def test_plan_roundtrip_and_digest(self, server):
        client = NetClient(server.address)
        try:
            response = client.plan(TINY_PAYLOAD, digest=True)
            assert response["ok"] is True
            result = response["result"]
            assert result["system"] == "Tutel"
            assert result["num_layers"] == 2
            assert result["makespan_ms"] > 0
            assert isinstance(response["digest"], str)
            # the digest matches what the workspace derives locally
            from repro.serve.protocol import parse_plan_payload

            request = parse_plan_payload(TINY_PAYLOAD)
            direct = PlanRequest(
                request.stack, request.system, request.cluster,
                gate_kind=request.gate_kind,
            )
            assert response["digest"] == direct.digest
        finally:
            client.close()

    def test_detail_plan_matches_direct_workspace_plan(self, server):
        client = NetClient(server.address)
        try:
            response = client.plan(TINY_PAYLOAD, detail="plan")
            from repro.serve.protocol import parse_plan_payload

            request = parse_plan_payload(TINY_PAYLOAD)
            direct = server.service.workspace.plan(
                request.stack, request.system, request.cluster,
                gate_kind=request.gate_kind,
            )
            assert response["plan"] == direct.to_dict()
        finally:
            client.close()

    def test_impossible_plan_is_plan_failed_not_a_crash(self, server):
        client = NetClient(server.address)
        try:
            bad = {**TINY_PAYLOAD, "routing_overhead": -1e9}
            with pytest.raises((ServiceError, ProtocolError)) as info:
                client.plan(bad)
            assert not isinstance(info.value, QueueFullError)
            assert client.ping() is True
        finally:
            client.close()

    def test_stats_and_metrics_ops(self, server):
        client = NetClient(server.address)
        try:
            client.plan(TINY_PAYLOAD)
            stats = client.stats()
            assert stats["net"]["requests"] >= 1
            assert stats["net"]["completed"] >= 1
            assert "interactive" in stats["net"]["lanes"]
            assert stats["service"]["requests"] >= 1
            exposition = client.metrics()
            assert "repro_net_requests" in exposition
            assert "repro_net_lane_interactive_depth" in exposition
        finally:
            client.close()


@pytest.fixture(params=["net", "cache"])
def line_server(request, monkeypatch):
    """Each server on the RPC kernel: its address, a frame it answers
    with ``ok``, and its request-line bound."""
    if request.param == "net":
        net = request.getfixturevalue("server")
        ping = {"op": "ping", "schema": PROTOCOL_SCHEMA_VERSION}
        yield net.address, ping, 64 * 1024
        return
    monkeypatch.setattr(remote, "MAX_LINE_BYTES", 1024)
    cache = CacheServer()
    stat = {"op": "stat", "schema": CACHE_SCHEMA_VERSION}
    try:
        yield cache.start(), stat, 1024
    finally:
        cache.close()


def connect(address: str):
    """A raw socket and buffered reader on ``address``."""
    host, port = address.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=30.0)
    return sock, sock.makefile("rb")


class TestTransportConformance:
    """The kernel's transport contract, against both servers; `-k
    conformance` selects these."""

    def test_oversized_line_is_refused_and_connection_resyncs(
        self, line_server
    ):
        address, answered, bound = line_server
        sock, reader = connect(address)
        try:
            sock.sendall(b"x" * max(128 * 1024, 2 * bound) + b"\n")
            refusal = read_response(reader)
            assert error_code(refusal) == E_OVERSIZED
            assert str(bound) in refusal["error"]["message"]
            # exactly one refusal: the next frame gets its own answer
            send_line(sock, json.dumps(answered).encode())
            assert read_response(reader)["ok"] is True
        finally:
            reader.close()
            sock.close()

    def test_refusals_carry_stable_codes(self, line_server):
        address, answered, _ = line_server
        sock, reader = connect(address)
        try:
            cases = [
                (b"this is not json", E_BAD_JSON),
                (b"[1, 2, 3]", E_BAD_FRAME),
                (json.dumps({"op": answered["op"]}).encode(), E_BAD_SCHEMA),
            ]
            for frame, code in cases:
                send_line(sock, frame)
                assert error_code(read_response(reader)) == code
            send_line(
                sock,
                json.dumps(
                    {"op": "mystery", "schema": answered["schema"],
                     "id": "req-7"}
                ).encode(),
            )
            response = read_response(reader)
            assert error_code(response) == E_UNKNOWN_OP
            assert response["id"] == "req-7"
            # blank lines are skipped, not answered
            sock.sendall(b"\n  \n")
            send_line(sock, json.dumps(answered).encode())
            assert read_response(reader)["ok"] is True
        finally:
            reader.close()
            sock.close()

    def test_connections_share_the_servers_one_read_buffer(self):
        """Interleaved partial frames on many connections all frame
        correctly, and every connection reads into one buffer."""
        server = CacheServer()
        clients = [connect(server.start()) for _ in range(64)]
        try:
            frame = json.dumps(
                {"op": "stat", "schema": CACHE_SCHEMA_VERSION}
            ).encode() + b"\n"
            half = len(frame) // 2
            for sock, _ in clients:
                sock.sendall(frame[:half])
            for sock, _ in reversed(clients):
                sock.sendall(frame[half:])
            for _, reader in clients:
                assert read_response(reader)["ok"] is True
            peers = list(server._peers)
            assert len(peers) == len(clients)
            shared = peers[0].get_buffer(-1)
            assert len(shared) == rpc.READ_BUFFER_BYTES
            assert all(peer.get_buffer(-1) is shared for peer in peers)
        finally:
            for sock, reader in clients:
                reader.close()
                sock.close()
            server.close()



def fuzz_roundtrip(address: str, frames: list[bytes]) -> None:
    """Send frames, then prove the server still answers a ping."""
    host, port = address.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=30.0)
    reader = sock.makefile("rb")
    try:
        for frame in frames:
            sock.sendall(frame)
            if frame.endswith(b"\n") and frame.strip():
                response = reader.readline()
                assert response, "server hung up mid-fuzz"
                decoded = json.loads(response)
                assert isinstance(decoded, dict)
                assert "ok" in decoded
        sock.sendall(
            json.dumps(
                {"op": "ping", "schema": PROTOCOL_SCHEMA_VERSION}
            ).encode()
            + b"\n"
        )
        # drain until the pong: unterminated junk may have queued one
        # refusal ahead of it.
        for _ in range(4):
            response = json.loads(reader.readline())
            if response.get("pong") is True:
                break
        else:  # pragma: no cover - failure path
            raise AssertionError("no pong after fuzz frames")
    finally:
        reader.close()
        sock.close()


def random_frames(seed: int, count: int = 40) -> list[bytes]:
    """Seeded adversarial frames: random bytes, always newline-bounded."""
    rng = random.Random(seed)
    frames = []
    for _ in range(count):
        size = rng.randrange(1, 200)
        body = bytes(
            rng.randrange(1, 256) for _ in range(size)
        ).replace(b"\n", b" ")
        frames.append(body + b"\n")
    return frames


def mutated_frames(seed: int, count: int = 40) -> list[bytes]:
    """Seeded structure-aware mutations of a valid plan frame."""
    rng = random.Random(seed)
    base = json.dumps(
        {
            "op": "plan",
            "schema": PROTOCOL_SCHEMA_VERSION,
            "request": TINY_PAYLOAD,
        }
    ).encode()
    frames = []
    for _ in range(count):
        body = bytearray(base)
        for _ in range(rng.randrange(1, 6)):
            kind = rng.randrange(3)
            pos = rng.randrange(len(body))
            if kind == 0:  # flip
                byte = rng.randrange(32, 127)
                body[pos] = byte if byte != 0x0A else 0x20
            elif kind == 1 and len(body) > 2:  # delete
                del body[pos]
            else:  # insert
                body.insert(pos, rng.randrange(32, 127))
        frames.append(bytes(body).replace(b"\n", b" ") + b"\n")
    return frames


FUZZ_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)


class TestFuzz:
    """The seeded fuzz budget; `-k fuzz` selects exactly these."""

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_random_bytes_never_kill_the_server(self, server, seed):
        fuzz_roundtrip(server.address, random_frames(seed))

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_mutated_plan_frames_never_kill_the_server(
        self, server, seed
    ):
        fuzz_roundtrip(server.address, mutated_frames(seed))

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_cache_server_mirrors_the_discipline(self, seed):
        cache_server = CacheServer()
        cache_server.start()
        try:
            host, port = cache_server.address.rsplit(":", 1)
            sock = socket.create_connection(
                (host, int(port)), timeout=30.0
            )
            reader = sock.makefile("rb")
            try:
                for frame in random_frames(seed, count=25):
                    sock.sendall(frame)
                    response = reader.readline()
                    assert response, "cache server hung up mid-fuzz"
                    decoded = json.loads(response)
                    assert isinstance(decoded, dict)
                # still serves the real protocol afterwards
                sock.sendall(
                    json.dumps(
                        {"op": "stat", "schema": 1}
                    ).encode()
                    + b"\n"
                )
                decoded = json.loads(reader.readline())
                assert decoded["ok"] is True
            finally:
                reader.close()
                sock.close()
        finally:
            cache_server.close()

    def test_fuzz_counters_stay_consistent(self, server):
        before = server.stats_snapshot()
        fuzz_roundtrip(server.address, random_frames(99))
        after = server.stats_snapshot()
        window = {
            "requests": after.requests - before.requests,
            "accounted": after.accounted - before.accounted,
            "internal": after.internal_errors - before.internal_errors,
        }
        assert window["internal"] == 0
        assert window["requests"] == window["accounted"]


class TestBackoff:
    def test_deterministic_delay_sequence(self):
        slept = []
        backoff = Backoff(
            base_ms=10.0, factor=2.0, max_ms=100.0, jitter=0.0,
            sleep=slept.append,
        )
        for attempt in range(5):
            backoff.wait(attempt)
        assert slept == [0.01, 0.02, 0.04, 0.08, 0.1]  # capped at max

    def test_jitter_is_seeded_and_bounded(self):
        delays = [
            Backoff(
                base_ms=100.0, max_ms=100.0, jitter=0.5,
                rng=random.Random(7), sleep=lambda s: None,
            ).delay_ms(0)
            for _ in range(20)
        ]
        assert len(set(delays)) == 1  # same seed, same delay
        assert all(50.0 <= delay <= 150.0 for delay in delays)
        spread = [
            Backoff(
                base_ms=100.0, max_ms=100.0, jitter=0.5,
                rng=random.Random(seed), sleep=lambda s: None,
            ).delay_ms(0)
            for seed in range(20)
        ]
        assert len(set(spread)) > 1  # different seeds actually jitter

    def test_floor_ms_honors_retry_after(self):
        backoff = Backoff(
            base_ms=1.0, max_ms=10.0, jitter=0.0, sleep=lambda s: None
        )
        assert backoff.delay_ms(0, floor_ms=250.0) == 250.0
        assert backoff.delay_ms(0) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            Backoff(base_ms=0.0)
        with pytest.raises(ConfigError):
            Backoff(factor=0.5)
        with pytest.raises(ConfigError):
            Backoff(base_ms=10.0, max_ms=5.0)
        with pytest.raises(ConfigError):
            Backoff(jitter=1.0)

    def test_retry_priorities_is_deterministic(self):
        first = retry_priorities(100, batch_fraction=0.25, seed=3)
        again = retry_priorities(100, batch_fraction=0.25, seed=3)
        assert first == again
        assert set(first) == {"interactive", "batch"}
        assert retry_priorities(10, batch_fraction=0.0) == (
            ["interactive"] * 10
        )
        with pytest.raises(ConfigError):
            retry_priorities(10, batch_fraction=1.5)


class TestRemoteTierBackoff:
    def test_unreachable_server_waits_between_attempts(self):
        slept = []
        backoff = Backoff(
            base_ms=10.0, factor=2.0, max_ms=200.0, jitter=0.0,
            sleep=slept.append,
        )
        tier = RemoteTier(
            "127.0.0.1:1", retries=3, backoff=backoff, timeout_s=0.2
        )
        assert tier.get("some-key") is None  # degrades, never raises
        assert slept == [0.01, 0.02, 0.04]

    def test_zero_retries_never_sleeps(self):
        slept = []
        backoff = Backoff(base_ms=10.0, jitter=0.0, sleep=slept.append)
        tier = RemoteTier(
            "127.0.0.1:1", retries=0, backoff=backoff, timeout_s=0.2
        )
        assert tier.get("k") is None
        assert slept == []

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigError):
            RemoteTier("127.0.0.1:1", retries=-1)

    def test_live_server_needs_no_backoff(self):
        cache_server = CacheServer()
        cache_server.start()
        try:
            slept = []
            tier = RemoteTier(
                cache_server.address,
                backoff=Backoff(
                    base_ms=1.0, jitter=0.0, sleep=slept.append
                ),
            )
            assert tier.put("k", "v") is True
            assert tier.get("k") == "v"
            assert slept == []  # healthy path never waits
            tier.close()
        finally:
            cache_server.close()

    def test_netclient_and_remotetier_share_the_policy(self):
        # one client kernel: the same seeded policy against the same
        # unreachable address sleeps the same jittered sequence
        def sleeps(make_client, call):
            slept = []
            backoff = Backoff(
                base_ms=10.0, max_ms=200.0, jitter=0.5,
                rng=random.Random(11), sleep=slept.append,
            )
            client = make_client(
                "127.0.0.1:1", retries=3, timeout_s=0.2, backoff=backoff
            )
            try:
                call(client)
            finally:
                client.close()
            return slept

        def tier_get(tier):
            assert tier.get("k") is None  # degrades, never raises

        def net_ping(client):
            with pytest.raises(ServiceError):
                client.ping()

        tier = sleeps(RemoteTier, tier_get)
        assert len(tier) == 3 and len(set(tier)) == 3
        assert sleeps(NetClient, net_ping) == tier


class TestNetClientErrors:
    def test_unreachable_server_raises_service_error_with_backoff(self):
        slept = []
        client = NetClient(
            "127.0.0.1:1",
            retries=2,
            timeout_s=0.2,
            backoff=Backoff(base_ms=5.0, jitter=0.0, sleep=slept.append),
        )
        with pytest.raises(ServiceError):
            client.ping()
        assert slept == [0.005, 0.01]
        client.close()

    def test_bad_address_is_config_error(self):
        with pytest.raises(ConfigError):
            NetClient("no-port-here")
        with pytest.raises(ConfigError):
            NetClient("127.0.0.1:0", retries=-1)

    def test_schema_mismatch_raises_protocol_error(self, server):
        client = NetClient(server.address, schema=42)
        try:
            with pytest.raises(ProtocolError):
                client.ping()
        finally:
            client.close()


@pytest.fixture()
def flooding_server(monkeypatch):
    """A stub peer answering every request with one line just over the
    client's response bound and no newline; yields its address."""
    monkeypatch.setattr(rpc, "MAX_RESPONSE_BYTES", 4096)
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(30.0)
                try:
                    conn.makefile("rb").readline()
                    conn.sendall(b"x" * 4097)
                    conn.recv(1)  # until the client hangs up
                except OSError:
                    pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    host, port = listener.getsockname()[:2]
    yield f"{host}:{port}"
    stop.set()
    thread.join(timeout=5.0)
    listener.close()
    assert not thread.is_alive()


class TestResponseBound:
    def test_oversized_response_fails_instead_of_buffering(
        self, flooding_server
    ):
        started = time.monotonic()
        client = NetClient(flooding_server, retries=0, timeout_s=30.0)
        try:
            with pytest.raises(ServiceError, match="exceeds 4096 bytes"):
                client.ping()
        finally:
            client.close()
        tier = RemoteTier(flooding_server, retries=0, timeout_s=30.0)
        try:
            assert tier.get("k") is None
        finally:
            tier.close()
        # both gave up at the bound, not at the socket timeout
        assert time.monotonic() - started < 10.0


@pytest.fixture()
def fresh_server(tmp_path):
    """A NetServer on an empty workspace: no plan simulated yet."""
    with NetServer(Workspace(tmp_path / "ws"), flush_ms=1.0) as srv:
        yield srv


class TestSummaryOffTheLoop:
    def test_first_touch_simulates_off_the_loop(
        self, fresh_server, monkeypatch
    ):
        """A blocked first-touch simulation must not stall ``ping``."""
        import repro.planner.plan as plan_module

        engine = plan_module.simulate
        entered = threading.Event()
        release = threading.Event()
        threads: list[int] = []

        def blocking(graph):
            threads.append(threading.get_ident())
            entered.set()
            assert release.wait(timeout=30.0)
            return engine(graph)

        monkeypatch.setattr(plan_module, "simulate", blocking)
        host, port = fresh_server.address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)), timeout=30.0)
        reader = sock.makefile("rb")
        pinger = NetClient(fresh_server.address, timeout_s=5.0, retries=0)
        try:
            send_line(sock, json.dumps(
                {"op": "plan", "schema": PROTOCOL_SCHEMA_VERSION,
                 "id": "first", "request": TINY_PAYLOAD}
            ).encode())
            assert entered.wait(timeout=30.0)
            assert pinger.ping() is True
            assert not release.is_set()
            release.set()
            response = read_response(reader)
        finally:
            release.set()
            pinger.close()
            reader.close()
            sock.close()
        assert response["ok"] is True and response["id"] == "first"
        assert response["result"]["makespan_ms"] > 0
        assert threads
        assert fresh_server._thread.ident not in threads

    def test_repeated_summary_never_simulates(
        self, fresh_server, monkeypatch
    ):
        import repro.planner.plan as plan_module

        client = NetClient(fresh_server.address)
        try:
            first = client.plan(TINY_PAYLOAD)["result"]
            calls = []
            engine = plan_module.simulate
            monkeypatch.setattr(
                plan_module, "simulate",
                lambda graph: calls.append(graph) or engine(graph),
            )
            before = fresh_server.service.stats_snapshot()
            repeats = [client.plan(TINY_PAYLOAD)["result"] for _ in range(5)]
            window = fresh_server.service.stats_snapshot() - before
        finally:
            client.close()
        assert repeats == [first] * 5
        assert window.resolved == 0 and window.completed == 5
        assert calls == []


class TestOneRequestIdentity:
    def test_identity_computed_once_per_distinct_payload(
        self, fresh_server, monkeypatch
    ):
        calls = count_identity_calls(monkeypatch)
        client = NetClient(fresh_server.address)
        try:
            cold = client.plan(TINY_PAYLOAD)
            # parse-memo miss at submit, plus the resolution's
            # Workspace.plan call
            assert len(calls) == 2
            repeat = client.plan(TINY_PAYLOAD, digest=True)
            # parse-memo hit, submit-time answer and the digest field
            # all read the memo
            assert len(calls) == 2
            respelled = client.plan({**TINY_PAYLOAD, "seed": 0})
            # a parse-memo miss answered at submit: computed once
            assert len(calls) == 3
            service = fresh_server.service.stats_snapshot()
        finally:
            client.close()
        assert cold["result"] == repeat["result"] == respelled["result"]
        assert repeat["digest"] == calls[0].digest
        assert service.resolved == 1 and service.dedup_hits == 2
        assert service.dedup_hits + service.resolved == service.completed
