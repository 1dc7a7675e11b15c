"""The tiered cache: LRU properties, tier routing, L3 server, GC, CLI."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pathlib
import subprocess
import sys
import threading
import warnings
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigError, Workspace
from repro.api.cli import main
from repro.cache import (
    CACHE_SCHEMA_VERSION,
    CacheServer,
    CacheStats,
    LRUCache,
    RemoteTier,
    TierStats,
    parse_address,
)
from repro.rpc import READ_BUFFER_BYTES
from repro.serve import PlanRequest, PlanService
from tests.test_workspace import SRC, tiny_spec

pytestmark = pytest.mark.filterwarnings(
    "ignore:workspace cache file"
)


def _request(seq_len: int):
    """The (stack, system, cluster) triple behind :func:`plan_once`."""
    from repro import MoELayerSpec
    from repro import testbed_b as make_testbed_b
    from repro.systems import get_system

    layer = MoELayerSpec(
        batch_size=1, seq_len=seq_len, embed_dim=512,
        num_experts=8, num_heads=8,
    )
    return (layer,), get_system("fsmoe", solver="slsqp"), make_testbed_b()


def plan_once(ws: Workspace, *, seq_len: int = 256):
    """One deterministic plan request through the tier stack."""
    stack, system, cluster = _request(seq_len)
    return ws.plan(stack, system, cluster)


def plan_digest_of(*, seq_len: int = 256) -> str:
    """The content address :func:`plan_once` reads and writes."""
    return PlanRequest(*_request(seq_len)).digest


class TestLRUCacheProperties:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["get", "put", "delete"]),
                st.integers(0, 9),
                st.integers(0, 40),
            ),
            max_size=200,
        ),
        max_entries=st.integers(1, 6),
        max_bytes=st.one_of(st.none(), st.integers(1, 120)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_oracle(self, ops, max_entries, max_bytes):
        """Randomized op sequences agree with an OrderedDict oracle."""
        cache = LRUCache(max_entries, max_bytes)
        oracle: OrderedDict[int, tuple[str, int]] = OrderedDict()
        o_bytes = o_hits = o_misses = o_evictions = 0
        for op, key, size in ops:
            if op == "get":
                got = cache.get(key)
                if key in oracle:
                    oracle.move_to_end(key)
                    o_hits += 1
                    assert got == oracle[key][0]
                else:
                    o_misses += 1
                    assert got is None
            elif op == "put":
                value = f"v{key}x{size}"
                cache.put(key, value, size=size)
                old = oracle.pop(key, None)
                if old is not None:
                    o_bytes -= old[1]
                oracle[key] = (value, size)
                o_bytes += size
                while len(oracle) > max_entries or (
                    max_bytes is not None
                    and o_bytes > max_bytes
                    and len(oracle) > 1
                ):
                    _, (_, dropped) = oracle.popitem(last=False)
                    o_bytes -= dropped
                    o_evictions += 1
            else:
                existed = cache.delete(key)
                old = oracle.pop(key, None)
                assert existed == (old is not None)
                if old is not None:
                    o_bytes -= old[1]
        assert list(cache.keys()) == list(oracle)
        assert len(cache) == len(oracle) <= max_entries
        assert cache.bytes == o_bytes
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (
            o_hits, o_misses, o_evictions,
        )
        assert stats.entries == len(oracle) and stats.bytes == o_bytes

    def test_bounds_validated(self):
        with pytest.raises(ConfigError):
            LRUCache(0)
        with pytest.raises(ConfigError):
            LRUCache(4, 0)

    def test_byte_bound_always_keeps_newest_entry(self):
        cache = LRUCache(4, 10)
        cache.put("big", "x", size=50)
        assert cache.get("big") == "x"  # over budget, but never empty

    def test_clear_and_stats_reset(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a"), cache.get("b")
        cache.clear()
        assert len(cache) == 0 and cache.stats.hits == 1
        cache.clear(reset_stats=True)
        assert cache.stats == TierStats()


class TestTierStatsArithmetic:
    def test_sub_counters_delta_gauges_carried(self):
        later = TierStats(hits=5, misses=3, fills=2, entries=7, bytes=90)
        earlier = TierStats(hits=2, misses=1, entries=4, bytes=40)
        delta = later - earlier
        assert delta.hits == 3 and delta.misses == 2 and delta.fills == 2
        assert delta.entries == 7 and delta.bytes == 90  # levels, not rates
        assert delta.lookups == 5 and delta.hit_rate == 0.6
        assert TierStats().hit_rate == 1.0  # never asked == fully warm

    def test_cache_stats_sub(self):
        later = CacheStats(l1=TierStats(hits=4), l3=TierStats(writes=2))
        earlier = CacheStats(l1=TierStats(hits=1))
        delta = later - earlier
        assert delta.l1.hits == 3 and delta.l3.writes == 2


class TestRemoteProtocol:
    def test_round_trip_and_stat(self):
        server = CacheServer()
        tier = RemoteTier(server.start())
        try:
            assert tier.get("k") is None
            assert tier.put("k", "payload")
            assert tier.get("k") == "payload"
            stat = tier.stat()
            assert stat["entries"] == 1 and stat["hits"] == 1
            assert stat["bytes"] == len("payload")
            # a frame longer than the server's read buffer spans reads
            big = "x" * (3 * READ_BUFFER_BYTES + 17)
            assert tier.put("big", big) and tier.get("big") == big
        finally:
            tier.close()
            server.close()

    def test_schema_mismatch_refused(self):
        server = CacheServer(schema=CACHE_SCHEMA_VERSION + 1)
        tier = RemoteTier(server.start())  # speaks the current schema
        try:
            assert not tier.put("k", "v")
            assert tier.get("k") is None
            assert tier.stat() is None
        finally:
            tier.close()
            server.close()

    def test_unreachable_server_degrades_to_miss(self):
        server = CacheServer()
        address = server.start()
        server.close()  # the port is now dead
        tier = RemoteTier(address, timeout_s=0.5)
        assert tier.get("k") is None
        assert not tier.put("k", "v")
        assert tier.stat() is None

    def test_last_get_failed_tells_a_failure_from_a_miss(self):
        server = CacheServer()
        tier = RemoteTier(server.start())
        try:
            assert tier.get("k") is None and not tier.last_get_failed()
            assert tier.put("k", "v") and tier.get("k") == "v"
            assert not tier.last_get_failed()
        finally:
            tier.close()
            server.close()
        dead = RemoteTier(server.address, timeout_s=0.5)
        assert dead.get("k") is None and dead.last_get_failed()
        outcomes = []
        other = threading.Thread(
            target=lambda: outcomes.append(dead.last_get_failed())
        )
        other.start()
        other.join()
        assert outcomes == [False]  # each thread reads its own last get

    def test_server_store_is_bounded(self):
        server = CacheServer(max_entries=2)
        tier = RemoteTier(server.start())
        try:
            for i in range(4):
                assert tier.put(f"k{i}", "v")
            stat = tier.stat()
            assert stat["entries"] == 2 and stat["evictions"] == 2
            assert tier.get("k0") is None and tier.get("k3") == "v"
        finally:
            tier.close()
            server.close()

    def test_malformed_requests_get_errors_not_crashes(self):
        server = CacheServer()
        try:
            assert not server.handle_line(b"not json\n")["ok"]
            assert not server.handle_line(b"[1, 2]\n")["ok"]
            bad_op = json.dumps(
                {"op": "nope", "schema": CACHE_SCHEMA_VERSION}
            ).encode()
            assert server.handle_line(bad_op)["error"]["code"] == "unknown-op"
            no_key = json.dumps(
                {"op": "get", "schema": CACHE_SCHEMA_VERSION}
            ).encode()
            assert not server.handle_line(no_key)["ok"]
        finally:
            server.close()

    def test_parse_address_rejects_garbage(self):
        assert parse_address("host:123") == ("host", 123)
        with pytest.raises(ConfigError):
            parse_address("no-port")
        with pytest.raises(ConfigError):
            parse_address("host:not-a-number")


class TestTierRouting:
    def test_cold_compile_writes_through_then_l1_hits(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        plan_once(ws)
        plan_once(ws)
        cache = ws.stats.cache
        assert cache.l1.misses == 1 and cache.l1.hits == 1
        assert cache.l2.misses == 1 and cache.l2.writes == 1
        assert cache.l1.writes == 1 and cache.l1.fills == 0
        assert cache.l3 == TierStats()  # no remote configured
        assert ws.stats.plan_hits == 1 and ws.stats.plan_misses == 1

    def test_disk_hit_fills_l1(self, tmp_path):
        root = tmp_path / "ws"
        plan_once(Workspace(root))
        ws2 = Workspace(root)
        plan_once(ws2)
        cache = ws2.stats.cache
        assert cache.l2.hits == 1 and cache.l1.fills == 1
        plan_once(ws2)
        assert ws2.stats.cache.l1.hits == 1  # no second disk read
        assert ws2.stats.plan_hits == 2 and ws2.stats.plan_misses == 0

    def test_l1_disabled_reads_disk_every_time(self, tmp_path):
        ws = Workspace(tmp_path / "ws", l1_entries=0)
        plan_once(ws)
        plan_once(ws)
        cache = ws.stats.cache
        assert cache.l1 == TierStats()
        assert cache.l2.hits == 1 and cache.l2.misses == 1
        assert ws.stats.plan_hits == 1 and ws.stats.plan_misses == 1
        assert ws.cache_info()["l1_entries"] == 0

    def test_l1_bounds_evict(self, tmp_path):
        ws = Workspace(tmp_path / "ws", l1_entries=1)
        plan_once(ws, seq_len=256)
        plan_once(ws, seq_len=320)  # evicts the first digest
        assert ws.stats.cache.l1.evictions == 1
        plan_once(ws, seq_len=256)  # back to disk for the evictee
        cache = ws.stats.cache
        assert cache.l2.hits == 1 and cache.l1.fills == 1
        assert ws.stats.plan_misses == 2 and ws.stats.plan_hits == 1

    def test_clear_resets_every_tier(self, tmp_path):
        ws = Workspace(tmp_path / "ws")
        plan_once(ws)
        ws.clear()
        assert ws.stats.cache == CacheStats()
        plan_once(ws)
        assert ws.stats.plan_misses == 1  # genuinely cold again


@pytest.fixture()
def closing():
    """Close what it wraps at teardown (returns it unchanged)."""
    with contextlib.ExitStack() as stack:
        yield stack.enter_context


class TestRemoteTierRouting:
    @pytest.fixture()
    def server(self):
        server = CacheServer()
        server.start()
        yield server
        server.close()

    def test_l3_round_trip_fills_lower_tiers(
        self, tmp_path, closing, server
    ):
        ws1 = closing(Workspace(tmp_path / "a", remote=server.address))
        plan_once(ws1)
        stats1 = ws1.stats
        assert stats1.cache.l3.writes == 1 and stats1.cache.l3.misses == 1
        assert stats1.cache.profiles_remote.writes > 0

        ws2 = closing(Workspace(tmp_path / "b", remote=server.address))
        plan_once(ws2)
        stats2 = ws2.stats
        assert stats2.plan_misses == 0 and stats2.plan_hits == 1
        assert stats2.cache.l3.hits == 1
        assert stats2.cache.l2.fills == 1 and stats2.cache.l1.fills == 1
        # a plan served whole from L3 never consults the profile store
        assert stats2.profiles.misses == 0 and stats2.warm

        # the L3 hit landed on disk: a remote-less process now reads L2
        ws3 = Workspace(tmp_path / "b")
        plan_once(ws3)
        assert ws3.stats.cache.l2.hits == 1 and ws3.stats.plan_misses == 0

        # force a recompile on a fresh root: the profiles ws1 published
        # answer from the shared tier, so nothing is re-fitted
        server.store.delete(plan_digest_of())
        ws4 = closing(Workspace(tmp_path / "c", remote=server.address))
        plan_once(ws4)
        stats4 = ws4.stats
        assert stats4.plan_misses == 1
        assert stats4.cache.profiles_remote.hits > 0
        assert stats4.profiles.misses == 0 and stats4.warm is False

    def test_profiles_fetched_from_l3_land_on_disk(
        self, tmp_path, closing, server
    ):
        plan_once(closing(Workspace(tmp_path / "a", remote=server.address)))
        published = sorted(
            path.name for path in (tmp_path / "a" / "profiles").iterdir()
        )
        server.store.delete(plan_digest_of())  # force a recompile
        ws = closing(Workspace(tmp_path / "b", remote=server.address))
        plan_once(ws)
        stats = ws.stats
        assert stats.plan_misses == 1 and stats.profiles.misses == 0
        assert stats.cache.profiles_remote.hits == len(published)
        assert sorted(
            path.name for path in (tmp_path / "b" / "profiles").iterdir()
        ) == published

    def test_corrupt_remote_value_refused_and_recompiled(
        self, tmp_path, closing, server
    ):
        ws = closing(Workspace(tmp_path / "ws", remote=server.address))
        dig = plan_digest_of()
        server.store.put(dig, "definitely not a plan document")
        plan_once(ws)
        cache = ws.stats.cache
        assert cache.l3.errors == 1 and cache.l3.hits == 0
        assert ws.stats.plan_misses == 1  # recompiled, not misread
        # the recompile overwrote the poisoned entry with a good one
        assert json.loads(server.store.get(dig))["schema_version"]

    def test_cross_version_remote_is_refused(
        self, tmp_path, closing, server
    ):
        ws = closing(Workspace(tmp_path / "ws", remote=server.address))
        dig = plan_digest_of()
        doc = {"schema_version": 999, "key": ["?"], "plan": {}}
        server.store.put(dig, json.dumps(doc))
        plan_once(ws)
        cache = ws.stats.cache
        assert cache.l3.errors == 1 and cache.l3.hits == 0
        assert ws.stats.plan_misses == 1

    def test_mismatched_server_schema_degrades_to_cold(
        self, tmp_path, closing
    ):
        server = CacheServer(schema=CACHE_SCHEMA_VERSION + 1)
        server.start()
        try:
            ws = closing(Workspace(tmp_path / "ws", remote=server.address))
            plan_once(ws)
            cache = ws.stats.cache
            assert cache.l3.hits == 0 and cache.l3.writes == 0
            assert cache.l3.errors > 0  # refused publishes are counted
            assert ws.stats.plan_misses == 1
        finally:
            server.close()

    def test_dead_peer_counts_every_failed_call(self, tmp_path, closing):
        server = CacheServer()
        address = server.start()
        server.close()  # the port is now dead
        ws = closing(Workspace(tmp_path / "ws", remote=address))
        ws.sweep(tiny_spec(systems=("tutel",)))
        cache = ws.stats.cache
        # one plan get and put; a get and a put for each of two profiles
        assert (cache.l3.misses, cache.l3.errors) == (1, 2)
        assert (
            cache.profiles_remote.misses, cache.profiles_remote.errors
        ) == (2, 4)
        assert ws.stats.plan_misses == 1

    def test_corrupt_disk_quarantined_then_served_from_l3(
        self, tmp_path, closing, server
    ):
        root = tmp_path / "ws"
        ws1 = closing(Workspace(root, remote=server.address))
        plan_once(ws1)
        dig = plan_digest_of()
        plan_file = root / "plans" / f"{dig}.json"
        plan_file.write_text("truncated {")
        ws2 = closing(Workspace(root, remote=server.address))
        with pytest.warns(UserWarning, match="unreadable"):
            plan_once(ws2)
        cache = ws2.stats.cache
        assert cache.l2.errors == 1 and cache.l3.hits == 1
        assert ws2.stats.plan_misses == 0
        assert plan_file.exists()  # refilled from the shared tier
        assert (root / "plans" / f"{dig}.json.corrupt").exists()

    def test_env_var_configures_remote(
        self, tmp_path, closing, server, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_REMOTE", server.address)
        ws = closing(Workspace(tmp_path / "ws"))
        plan_once(ws)
        assert ws.stats.cache.l3.writes == 1
        monkeypatch.setenv("REPRO_CACHE_REMOTE", "")
        ws2 = Workspace(tmp_path / "ws2")
        plan_once(ws2)
        assert ws2.stats.cache.l3 == TierStats()

    def test_cross_process_l3_warm_hit(self, tmp_path, server):
        """A second *process* with a fresh root answers from L3 alone."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(SRC.parent), env.get("PYTHONPATH", "")]
        )
        env["REPRO_CACHE_REMOTE"] = server.address
        program = (
            "from repro import Workspace\n"
            "from tests.test_cache import plan_once\n"
            "import sys\n"
            "ws = Workspace(sys.argv[1])\n"
            "plan_once(ws)\n"
            "stats = ws.stats\n"
            "print('misses', stats.plan_misses, stats.profiles.misses,\n"
            "      'l3', stats.cache.l3.hits, 'warm', stats.warm)\n"
        )

        def run(tag):
            result = subprocess.run(
                [sys.executable, "-c", program, str(tmp_path / tag)],
                capture_output=True, text=True, timeout=300, env=env,
            )
            assert result.returncode == 0, result.stderr[-2000:]
            return result.stdout

        assert "misses 1 " in run("cold")
        assert "misses 0 0 l3 1 warm True" in run("warm")


def test_remote_routing_leaks_no_connection():
    """Every workspace TestRemoteTierRouting opens closes its L3
    connection: the class passes with an unclosed socket as an error."""
    result = subprocess.run(
        [
            sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
            "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-W", "error::pytest.PytestUnraisableExceptionWarning",
            f"{Path(__file__).resolve()}::TestRemoteTierRouting",
            # the cross-process test's child is not a workspace here
            "-k", "not cross_process",
        ],
        capture_output=True, text=True, timeout=300, cwd=SRC.parent,
    )
    assert result.returncode == 0, result.stdout[-3000:]


def _bogus_body(text: str) -> str:
    """A well-formed document of the same key whose body cannot decode."""
    doc = json.loads(text)
    body = "plan" if "plan" in doc else "value"
    doc[body] = {"bogus": 1}
    return json.dumps(doc)


class TestDocuments:
    """Plans and profiles: one builder, one reader, one policy per tier."""

    @pytest.fixture()
    def server(self):
        server = CacheServer()
        server.start()
        yield server
        server.close()

    @pytest.mark.parametrize("kind", ["plan", "profile"])
    @pytest.mark.parametrize("tier", ["l2", "l3"])
    def test_malformed_body_is_refused_once_and_recompiled(
        self, tmp_path, closing, server, tier, kind
    ):
        seed = tmp_path / "seed"
        reference = plan_once(closing(Workspace(seed, remote=server.address)))
        plan_dig = plan_digest_of()
        profile_dig = sorted((seed / "profiles").glob("*.json"))[0].stem
        dig = plan_dig if kind == "plan" else profile_dig
        if tier == "l2":
            root, remote = seed, ""
            path = seed / f"{kind}s" / f"{dig}.json"
            path.write_text(_bogus_body(path.read_text()))
            if kind == "profile":  # the plan must recompile to need it
                (seed / "plans" / f"{plan_dig}.json").unlink()
        else:
            root, remote = tmp_path / "fresh", server.address
            server.store.put(dig, _bogus_body(server.store.get(dig)))
            if kind == "profile":
                server.store.delete(plan_dig)
        quarantines = (
            pytest.warns(UserWarning, match="unreadable")
            if tier == "l2"
            else contextlib.nullcontext()
        )
        with quarantines:
            ws = closing(Workspace(root, remote=remote))
            plan = plan_once(ws)
        assert plan.to_json() == reference.to_json()
        stats = ws.stats
        counts = {
            ("l2", "plan"): stats.cache.l2,
            ("l2", "profile"): stats.cache.l2,
            ("l3", "plan"): stats.cache.l3,
            ("l3", "profile"): stats.cache.profiles_remote,
        }[tier, kind]
        assert counts.errors == 1
        assert stats.plan_misses == 1
        assert stats.profiles.misses == (1 if kind == "profile" else 0)
        if tier == "l2":
            assert path.with_name(path.name + ".corrupt").exists()

    def test_each_document_is_built_once(
        self, tmp_path, closing, server, monkeypatch
    ):
        from repro.api import workspace as workspace_module

        built: list[str] = []
        real = workspace_module._document

        def counting(key, field, body):
            built.append(field)
            return real(key, field, body)

        monkeypatch.setattr(workspace_module, "_document", counting)
        cold = closing(Workspace(tmp_path / "a", remote=server.address))
        plan_once(cold)
        cold.save()
        fitted = cold.stats.profiles.misses
        assert fitted == 2  # the cluster profile and one layer
        assert sorted(built) == ["plan"] + ["value"] * fitted
        assert cold.stats.cache.profiles_remote.writes == fitted

        built.clear()
        warm = closing(Workspace(tmp_path / "a", remote=server.address))
        plan_once(warm)
        warm.save()
        assert built == [] and warm.stats.warm

        built.clear()
        server.store.delete(plan_digest_of())  # force a recompile
        fetched = closing(Workspace(tmp_path / "b", remote=server.address))
        plan_once(fetched)
        fetched.save()
        assert built == ["plan"]  # the profiles came from L3 as bytes
        assert fetched.stats.cache.profiles_remote.hits == fitted
        files = sorted((tmp_path / "b" / "profiles").glob("*.json"))
        assert len(files) == fitted
        for path in files:
            assert path.read_text() == server.store.get(path.stem)
            assert path.read_bytes() == (
                tmp_path / "a" / "profiles" / path.name
            ).read_bytes()


class TestServiceCompletedCache:
    def test_repeat_request_answered_at_submit(self, tmp_path):
        from repro.serve import duplicate_heavy_requests

        request = duplicate_heavy_requests(1, 1, depth=2)[0]
        ws = Workspace(tmp_path / "ws")
        with PlanService(ws, flush_ms=0.0) as service:
            first = service.plan(request)
            again = service.plan(request)
            stats = service.stats_snapshot()
        assert first.to_json() == again.to_json()
        assert stats.completed == 2 and stats.resolved == 1
        assert stats.dedup_hits == 1
        assert stats.dedup_hits + stats.resolved == stats.completed
        assert stats.batches == 1  # the repeat never reached the queue

    def test_completed_cache_bounded_and_evictions_counted(self, tmp_path):
        """The service remembers plans only through the bounded L1."""
        from repro.serve import duplicate_heavy_requests

        requests = duplicate_heavy_requests(2, 2, depth=2)
        ws = Workspace(tmp_path / "ws", l1_entries=1)
        with PlanService(ws, flush_ms=0.0) as service:
            service.plan(requests[0])
            service.plan(requests[1])  # evicts the first entry
            service.plan(requests[0])  # must re-resolve (from L2)
            stats = service.stats_snapshot()
        cache = ws.stats.cache
        assert cache.l1.evictions == 2  # the refill evicted the second
        assert cache.l1.hits == 0 and cache.l2.hits == 1
        assert stats.resolved == 3 and stats.completed == 3
        assert ws.stats.plan_misses == 2  # the workspace tiers caught it

    def test_completed_cache_disabled(self, tmp_path):
        """Without an L1 tier every repeat resolves."""
        from repro.serve import duplicate_heavy_requests

        request = duplicate_heavy_requests(1, 1, depth=2)[0]
        ws = Workspace(tmp_path / "ws", l1_entries=0)
        with PlanService(ws, flush_ms=0.0) as service:
            service.plan(request)
            service.plan(request)
            stats = service.stats_snapshot()
        assert stats.resolved == 2 and stats.dedup_hits == 0
        assert stats.dedup_hits + stats.resolved == stats.completed
        assert ws.stats.cache.l1 == TierStats()
        assert ws.stats.cache.l2.hits == 1


class TestGCBounds:
    def _two_plans(self, root) -> list[Path]:
        ws = Workspace(root)
        ws.sweep(tiny_spec())
        plans = sorted((root / "plans").glob("*.json"))
        assert len(plans) == 2
        return plans

    def test_max_entries_evicts_lru_order(self, tmp_path):
        root = tmp_path / "ws"
        plans = self._two_plans(root)
        # Make plans[1] the least recently used file.
        os.utime(plans[1], (1, 1))
        swept = Workspace.gc_plans(root, max_entries=1)
        assert swept["removed"] == 1 and swept["kept"] == 1
        assert plans[0].exists() and not plans[1].exists()
        assert swept["removed_bytes"] > 0

    def test_reads_refresh_recency(self, tmp_path):
        root = tmp_path / "ws"
        plans = self._two_plans(root)
        os.utime(plans[0], (1, 1))
        os.utime(plans[1], (2, 2))
        # A warm re-run *reads* both plans, refreshing their mtimes, so
        # an age-based GC that would have evicted them keeps both.
        Workspace(root).sweep(tiny_spec())
        swept = Workspace.gc_plans(root, max_age_days=1)
        assert swept["removed"] == 0 and swept["kept"] == 2

    def test_max_bytes_evicts_until_under_budget(self, tmp_path):
        root = tmp_path / "ws"
        plans = self._two_plans(root)
        total = sum(p.stat().st_size for p in plans)
        keep_one = max(p.stat().st_size for p in plans)
        swept = Workspace.gc_plans(root, max_bytes=keep_one)
        assert swept["removed"] >= 1
        assert swept["kept_bytes"] <= keep_one < total
        swept = Workspace.gc_plans(root, max_bytes=0)
        assert swept["kept"] == 0 and swept["kept_bytes"] == 0

    def test_age_and_size_bounds_compose(self, tmp_path):
        root = tmp_path / "ws"
        plans = self._two_plans(root)
        os.utime(plans[0], (1, 1))  # ancient
        swept = Workspace.gc_plans(root, max_age_days=7, max_entries=1)
        assert swept["removed"] == 1 and swept["kept"] == 1

    def test_in_flight_temp_files_survive(self, tmp_path):
        root = tmp_path / "ws"
        plans = self._two_plans(root)
        # the name another process's _atomic_write gives its temp file
        temp = root / "plans" / f".{plans[0].name}.123.456.tmp"
        temp.write_text("half-written")
        swept = Workspace.gc_plans(root, max_entries=0)
        assert swept["removed"] == 2 and swept["kept"] == 0
        assert temp.exists()
        profiles = len(list((root / "profiles").glob("*.json")))
        profile_temp = root / "profiles" / ".abc.json.123.456.tmp"
        profile_temp.write_text("half-written")
        assert Workspace.discard(root) == {"profiles": profiles, "plans": 0}
        assert temp.exists() and profile_temp.exists()

    def test_bounds_validated(self, tmp_path):
        with pytest.raises(ConfigError):
            Workspace.gc_plans(tmp_path)  # no bound at all
        with pytest.raises(ConfigError):
            Workspace.gc_plans(tmp_path, max_bytes=-1)
        with pytest.raises(ConfigError):
            Workspace.gc_plans(tmp_path, max_entries=-1)


class TestStatsAreCheap:
    def test_stats_snapshot_does_no_scan(self, tmp_path, monkeypatch):
        """Per-request snapshotting must not walk the store or the disk."""
        ws = Workspace(tmp_path / "ws")
        ws.sweep(tiny_spec())

        def boom(*args, **kwargs):
            raise AssertionError("stats must not scan files")

        monkeypatch.setattr(pathlib.Path, "glob", boom)
        monkeypatch.setattr(pathlib.Path, "read_text", boom)
        monkeypatch.setattr(os, "scandir", boom)
        monkeypatch.setattr(os, "listdir", boom)
        before = ws.stats
        after = ws.stats
        window = after.since(before)
        assert before.plan_misses == 2
        assert window.plan_misses == 0 and window.cache.l1.lookups == 0
        assert window.cache.l1.entries == 2  # gauges are levels, carried


class TestCacheCLI:
    def _workspace_with_plans(self, tmp_path) -> Path:
        root = tmp_path / "ws"
        Workspace(root).sweep(tiny_spec())
        return root

    def test_gc_max_entries_reports_eviction(self, tmp_path, capsys):
        root = self._workspace_with_plans(tmp_path)
        code = main(["cache", "-w", str(root), "--max-entries", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "removed 1 plan file(s) in LRU order, kept 1" in out
        assert "evicted" in out and "bytes" in out

    def test_gc_days_keeps_classic_wording(self, tmp_path, capsys):
        root = self._workspace_with_plans(tmp_path)
        code = main(
            ["cache", "-w", str(root), "--gc", "7", "--max-entries", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "older than 7 day(s)" in out and "kept 1" in out

    def test_clear_refuses_size_bounds(self, tmp_path, capsys):
        root = self._workspace_with_plans(tmp_path)
        code = main(["cache", "clear", "-w", str(root), "--max-bytes", "1"])
        assert code == 2
        assert "--gc cannot be combined" in capsys.readouterr().err
        assert list((root / "plans").glob("*.json"))  # nothing deleted

    def test_workspace_required_for_info(self, capsys):
        assert main(["cache"]) == 2
        assert "--workspace" in capsys.readouterr().err

    def test_info_shows_tier_fields(self, tmp_path, capsys):
        root = self._workspace_with_plans(tmp_path)
        assert main(["cache", "-w", str(root)]) == 0
        out = capsys.readouterr().out
        assert "l1_entries: 0" in out  # a fresh open has an empty L1
        assert "remote: " in out

    def test_info_reports_remote_tier(self, tmp_path, capsys):
        root = self._workspace_with_plans(tmp_path)
        server = CacheServer()
        try:
            address = server.start()
            code = main(
                ["cache", "-w", str(root), "--remote", address]
            )
            out = capsys.readouterr().out
            assert code == 0 and "remote_tier: 0 entries" in out
        finally:
            server.close()

    def test_commands_close_their_l3_connections(self, tmp_path, capsys):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(tiny_spec().to_dict()))
        server = CacheServer()
        try:
            address = server.start()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                for argv in (
                    ["sweep", str(spec_path), "-w", str(tmp_path / "ws"),
                     "--remote", address],
                    ["plan", "--cluster", "B", "--system", "tutel",
                     "--model", "GPT2-XL", "--layers", "1",
                     "--remote", address],
                    ["cache", "-w", str(tmp_path / "ws"),
                     "--remote", address],
                ):
                    assert main(argv) == 0, argv
                    gc.collect()
        finally:
            server.close()
        assert len(server.store) > 0  # the commands used the L3
        leaks = [w for w in caught if w.category is ResourceWarning]
        assert not leaks, [str(w.message) for w in leaks]

    def test_sweep_prints_tier_counters(self, tmp_path, capsys):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(tiny_spec().to_dict()))
        root = tmp_path / "ws"
        assert main(["sweep", str(spec_path), "-w", str(root)]) == 0
        assert main(["sweep", str(spec_path), "-w", str(root)]) == 0
        out = capsys.readouterr().out
        assert "cache tiers: L1 0h/" in out  # cold run
        assert "L2 2h/" in out or "cache tiers:" in out

    def test_cache_serve_subcommand_serves(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), env.get("PYTHONPATH", "")]
        )
        # Leaving the with block closes both pipes; the bounded wait
        # reaps the child or fails the test instead of hanging it.
        with subprocess.Popen(
            [sys.executable, "-m", "repro", "cache", "serve"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        ) as proc:
            try:
                line = proc.stdout.readline()
                assert "cache server listening on" in line
                address = line.strip().rsplit(" ", 1)[-1]
                with contextlib.closing(RemoteTier(address)) as tier:
                    assert tier.put("k", "v") and tier.get("k") == "v"
            finally:
                proc.terminate()
                proc.wait(timeout=30)
