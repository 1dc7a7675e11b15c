"""The plan-serving layer: coalescing, dedup, errors, stats wiring."""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro import (
    Client,
    ConfigError,
    MoELayerSpec,
    PlanRequest,
    PlanService,
    QueueFullError,
    ServiceClosedError,
    Workspace,
)
from repro.serve import DEFAULT_FLUSH_MS, duplicate_heavy_requests
from repro.serve.stats import percentile
from repro.systems.registry import get_system
from tests.helpers import count_identity_calls


def tiny_request(cluster_b, *, seq_len=256, system="tutel", depth=2):
    layer = MoELayerSpec(
        batch_size=1,
        seq_len=seq_len,
        embed_dim=512,
        num_experts=8,
        num_heads=8,
    )
    return PlanRequest(
        stack=(layer,) * depth,
        system=get_system(system, solver="slsqp"),
        cluster=cluster_b,
    )


@pytest.fixture()
def workspace(tmp_path):
    return Workspace(tmp_path / "ws")


class TestCoalescingAndDedup:
    def test_duplicate_burst_resolves_once(self, workspace, cluster_b):
        request = tiny_request(cluster_b)
        # A wide flush window guarantees the whole burst lands in one
        # batch, making every counter exact.
        with PlanService(workspace, flush_ms=250.0) as service:
            futures = [service.submit(request) for _ in range(40)]
            plans = [future.result() for future in futures]
            stats = service.stats_snapshot()
        assert stats.requests == 40
        assert stats.completed == 40
        assert stats.resolved == 1  # 100% dedup beyond the first
        assert stats.dedup_hits == 39
        assert stats.batches == 1 and stats.max_batch == 40
        assert workspace.stats.plan_misses == 1
        first = plans[0].to_json()
        assert all(plan.to_json() == first for plan in plans)

    def test_equal_configured_system_instances_coalesce(
        self, workspace, cluster_b
    ):
        layer = MoELayerSpec(
            batch_size=1, seq_len=256, embed_dim=512,
            num_experts=8, num_heads=8,
        )
        with PlanService(workspace, flush_ms=250.0) as service:
            futures = [
                service.submit(
                    PlanRequest(
                        stack=(layer,),
                        # fresh instance per request: identity must key
                        # on the fingerprint, not the object
                        system=get_system("tutel"),
                        cluster=cluster_b,
                    )
                )
                for _ in range(5)
            ]
            [future.result() for future in futures]
            stats = service.stats_snapshot()
        assert stats.resolved == 1 and stats.dedup_hits == 4

    def test_mixed_stream_bit_identical_to_serial(
        self, tmp_path, cluster_b
    ):
        requests = [
            tiny_request(cluster_b, seq_len=256, system="tutel"),
            tiny_request(cluster_b, seq_len=256, system="fsmoe"),
            tiny_request(cluster_b, seq_len=512, system="tutel"),
        ] * 6
        serial_ws = Workspace(tmp_path / "serial")
        serial = [
            serial_ws.plan(req.stack, req.system, req.cluster)
            for req in requests
        ]
        service_ws = Workspace(tmp_path / "service")
        with PlanService(service_ws, flush_ms=100.0) as service:
            futures = [service.submit(req) for req in requests]
            served = [future.result() for future in futures]
            stats = service.stats_snapshot()
        assert [p.to_json() for p in served] == [
            p.to_json() for p in serial
        ]
        # invariant: every completion is either a resolution or a dedup
        assert stats.dedup_hits + stats.resolved == stats.completed == 18

    def test_threaded_clients_get_identical_plans(
        self, tmp_path, cluster_b
    ):
        requests = [
            tiny_request(cluster_b, seq_len=256),
            tiny_request(cluster_b, seq_len=384),
            tiny_request(cluster_b, seq_len=256, system="fsmoe"),
        ]
        serial_ws = Workspace(tmp_path / "serial")
        expected = {
            id(req): serial_ws.plan(req.stack, req.system, req.cluster)
            .to_json()
            for req in requests
        }
        service_ws = Workspace(tmp_path / "service")
        errors: list[BaseException] = []

        with PlanService(service_ws, flush_ms=5.0) as service:
            client = Client(service)

            def hammer(worker: int) -> None:
                try:
                    for i in range(12):
                        req = requests[(worker + i) % len(requests)]
                        plan = client.plan(
                            req.stack, req.system, req.cluster
                        )
                        assert plan.to_json() == expected[id(req)]
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(w,)) for w in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats_snapshot()
        assert errors == []
        assert stats.completed == 72 and stats.failed == 0
        assert stats.dedup_hits + stats.resolved == stats.completed
        # only 3 distinct plans exist however the batches landed
        assert service_ws.stats.plan_misses == 3

    def test_worker_pool_matches_serial_resolution(
        self, tmp_path, cluster_b
    ):
        requests = [
            tiny_request(cluster_b, seq_len=s) for s in (256, 384, 512)
        ]
        baseline_ws = Workspace(tmp_path / "baseline")
        expected = [
            baseline_ws.plan(r.stack, r.system, r.cluster).to_json()
            for r in requests
        ]
        pooled_ws = Workspace(tmp_path / "pooled")
        with PlanService(pooled_ws, flush_ms=100.0, workers=3) as service:
            futures = [service.submit(r) for r in requests]
            got = [f.result().to_json() for f in futures]
        assert got == expected


class TestDrainOnArrival:
    """The default service holds no window: a batch is the backlog
    that queued while the previous batch resolved."""

    def test_default_window_is_zero(self):
        assert DEFAULT_FLUSH_MS == 0.0

    def test_backlog_queued_during_a_resolve_is_one_batch(
        self, workspace, cluster_b, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()
        plan = workspace.plan

        def gated(*args, **kwargs):
            if not release.is_set():
                entered.set()
                assert release.wait(timeout=60)
            return plan(*args, **kwargs)

        monkeypatch.setattr(workspace, "plan", gated)
        copies = 12
        with PlanService(workspace) as service:
            first = service.submit(tiny_request(cluster_b))
            assert entered.wait(timeout=60)  # the first batch is resolving
            second = tiny_request(cluster_b, seq_len=512)
            futures = [service.submit(second) for _ in range(copies)]
            release.set()
            first.result(timeout=60)
            plans = [future.result(timeout=60) for future in futures]
            stats = service.stats_snapshot()
        assert stats.batches == 2 and stats.max_batch == copies
        assert stats.resolved == 2
        assert stats.dedup_hits == copies - 1  # one group, one resolution
        assert workspace.stats.plan_misses == 2
        assert len({plan.to_json() for plan in plans}) == 1


class TestQueueAndShutdown:
    def test_queue_full_raises(self, workspace, cluster_b):
        request = tiny_request(cluster_b)
        # A huge flush window keeps the backlog undrained.
        service = PlanService(workspace, flush_ms=60000.0, capacity=3)
        try:
            for _ in range(3):
                service.submit(request)
            with pytest.raises(QueueFullError):
                service.submit(request)
            assert service.stats_snapshot().rejected == 1
        finally:
            service.close(drain=True)

    def test_submit_after_close_raises(self, workspace, cluster_b):
        service = PlanService(workspace)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(tiny_request(cluster_b))
        # closing twice is a no-op
        service.close()

    def test_close_without_drain_fails_pending(
        self, workspace, cluster_b
    ):
        service = PlanService(workspace, flush_ms=60000.0)
        future = service.submit(tiny_request(cluster_b))
        service.close(drain=False)
        with pytest.raises(ServiceClosedError):
            future.result(timeout=5)
        assert service.stats_snapshot().failed == 1

    def test_close_with_drain_resolves_pending(
        self, workspace, cluster_b
    ):
        service = PlanService(workspace, flush_ms=60000.0)
        future = service.submit(tiny_request(cluster_b))
        service.close(drain=True)
        assert future.result(timeout=5).num_layers == 2

    def test_malformed_request_fails_at_submit(
        self, workspace, cluster_b
    ):
        with PlanService(workspace) as service:
            with pytest.raises(ConfigError):
                service.submit(
                    PlanRequest(
                        stack=(),
                        system=get_system("tutel"),
                        cluster=cluster_b,
                    )
                )
            # a bad gate arity fails the same way
            layer = MoELayerSpec(
                batch_size=1, seq_len=256, embed_dim=512,
                num_experts=8, num_heads=8,
            )
            with pytest.raises(ConfigError):
                service.submit(
                    PlanRequest(
                        stack=(layer, layer),
                        system=get_system("tutel"),
                        cluster=cluster_b,
                        gate_kind=("gshard",) * 3,
                    )
                )

    def test_cancelled_future_does_not_kill_the_coalescer(
        self, workspace, cluster_b
    ):
        """A caller's cancel() must not take the service down with it."""
        with PlanService(workspace, flush_ms=30.0) as service:
            doomed = service.submit(tiny_request(cluster_b))
            keeper = service.submit(tiny_request(cluster_b, seq_len=384))
            assert doomed.cancel()  # still pending: cancellation wins
            plan = keeper.result(timeout=30)
            assert plan.num_layers == 2
            # the service keeps serving after the cancellation
            again = service.submit(tiny_request(cluster_b))
            assert again.result(timeout=30).num_layers == 2
            stats = service.stats_snapshot()
        assert doomed.cancelled()
        assert stats.failed == 1  # the cancelled member
        assert stats.dedup_hits + stats.resolved == stats.completed

    def test_cancelled_duplicate_still_serves_its_group(
        self, workspace, cluster_b
    ):
        """One cancelled copy must not starve the other group members."""
        request = tiny_request(cluster_b)
        with PlanService(workspace, flush_ms=100.0) as service:
            futures = [service.submit(request) for _ in range(6)]
            futures[2].cancel()
            plans = [
                f.result(timeout=30)
                for i, f in enumerate(futures)
                if i != 2
            ]
            stats = service.stats_snapshot()
        assert len({plan.to_json() for plan in plans}) == 1
        assert stats.completed == 5 and stats.failed == 1
        assert stats.dedup_hits + stats.resolved == stats.completed

    def test_resolution_error_propagates_and_service_survives(
        self, workspace, cluster_b
    ):
        # 3 experts cannot be laid out on Testbed-B's EP width of 8.
        bad = PlanRequest(
            stack=(
                MoELayerSpec(
                    batch_size=1, seq_len=256, embed_dim=512,
                    num_experts=3, num_heads=8,
                ),
            ),
            system=get_system("tutel"),
            cluster=cluster_b,
        )
        with PlanService(workspace, flush_ms=1.0) as service:
            with pytest.raises(Exception):
                service.submit(bad).result(timeout=30)
            # the service keeps serving afterwards
            good = service.submit(tiny_request(cluster_b)).result(timeout=30)
            stats = service.stats_snapshot()
        assert good.num_layers == 2
        assert stats.failed == 1 and stats.completed == 1


class TestStatsSurface:
    def test_stats_wired_into_workspace(self, workspace, cluster_b):
        assert workspace.stats.service is None
        with PlanService(workspace, flush_ms=50.0) as service:
            service.submit(tiny_request(cluster_b)).result(timeout=30)
            surfaced = workspace.stats.service
            assert surfaced is not None
            assert surfaced.completed == 1
            assert surfaced.requests == 1
        # still readable after close; detachable explicitly
        assert workspace.stats.service is not None
        workspace.bind_service(None)
        assert workspace.stats.service is None

    def test_latency_percentiles_ordered(self, workspace, cluster_b):
        with PlanService(workspace, flush_ms=10.0) as service:
            # Holding the service's (reentrant) condition lock keeps the
            # coalescer off the backlog until all ten have queued, so
            # they drain as one batch however slowly they are submitted.
            with service._cv:
                futures = [
                    service.submit(tiny_request(cluster_b))
                    for _ in range(10)
                ]
            [future.result() for future in futures]
            stats = service.stats_snapshot()
        assert 0.0 < stats.p50_latency_ms <= stats.p95_latency_ms
        assert stats.dedup_rate == pytest.approx(0.9)
        assert stats.mean_batch == pytest.approx(10.0)

    def test_percentile_helper(self):
        assert percentile([], 50) == 0.0
        assert percentile([3.0], 95) == 3.0
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0

    def test_join_reaches_quiescence(self, workspace, cluster_b):
        with PlanService(workspace, flush_ms=1.0) as service:
            futures = [
                service.submit(tiny_request(cluster_b)) for _ in range(5)
            ]
            assert service.join(timeout_s=30.0)
            for future in futures:
                assert future.done()


class TestOneRequestIdentity:
    def test_workspace_clear_drops_the_services_memory(
        self, workspace, cluster_b
    ):
        """L1 is the only in-memory plan tier: clearing it forgets."""
        request = tiny_request(cluster_b)
        with PlanService(workspace, flush_ms=0.0) as service:
            service.plan(request)
            workspace.clear()
            service.plan(request)
            stats = service.stats_snapshot()
            info = workspace.cache_info()
        assert stats.resolved == 2 and stats.dedup_hits == 0
        assert workspace.stats.plan_misses == 1  # recompiled after clear
        assert info["l1_entries"] == 1 and info["plan_entries"] == 1

    def test_identity_computed_once_per_request_and_plan_call(
        self, workspace, cluster_b, monkeypatch
    ):
        calls = count_identity_calls(monkeypatch)
        first = tiny_request(cluster_b)
        second = tiny_request(cluster_b, seq_len=384)
        with PlanService(workspace, flush_ms=250.0) as service:
            futures = [
                service.submit(request)
                for request in (first, second, first, second)
            ]
            [future.result(timeout=60) for future in futures]
            # one per request object at submit, one per group's
            # Workspace.plan call; the 2-group batch's prewarm reads
            # the memo
            assert len(calls) == 4
            assert service.stats_snapshot().resolved == 2
            service.plan(first)  # a submit-time answer reads the memo
            assert len(calls) == 4

    def test_cold_workspace_plan_computes_identity_once(
        self, tmp_path, cluster_b, monkeypatch
    ):
        calls = count_identity_calls(monkeypatch)
        request = tiny_request(cluster_b)
        traced = Workspace(tmp_path / "ws", trace=True)
        traced.plan(request.stack, request.system, request.cluster)
        assert len(calls) == 1

    def test_identity_memo_is_invisible_and_thread_safe(self, cluster_b):
        request = tiny_request(cluster_b)
        twin = dataclasses.replace(request)  # equal fields, its own memo
        before = (repr(request), hash(request))
        barrier = threading.Barrier(8)
        digests: list[str] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def read() -> None:
                barrier.wait(timeout=30)
                digests.append(request.digest)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert digests == [twin.digest] * 8
        assert (repr(request), hash(request)) == before
        assert request == twin and "_identity_memo" not in repr(request)

    def test_l1_counts_one_lookup_per_request(self, tmp_path, cluster_b):
        """cold -> repeat -> evicted repeat: never two L1 lookups."""
        workspace = Workspace(tmp_path / "ws", l1_entries=1)
        first = tiny_request(cluster_b)
        other = tiny_request(cluster_b, seq_len=384)
        with PlanService(workspace, flush_ms=0.0) as service:

            def step(request) -> tuple:
                before, served = workspace.stats, service.stats_snapshot()
                service.plan(request)
                window = workspace.stats.since(before)
                delta = service.stats_snapshot() - served
                return (
                    window.cache.l1.hits, window.cache.l1.misses,
                    window.cache.l2.hits, window.plan_hits,
                    delta.resolved, delta.dedup_hits,
                )

            # cold: the resolution's one L1 probe misses, then compiles
            assert step(first) == (0, 1, 0, 0, 1, 0)
            # repeat: one counted L1 hit at submit, nothing queued
            assert step(first) == (1, 0, 0, 1, 0, 1)
            step(other)  # evicts the first plan from the 1-entry L1
            # evicted repeat: submit counts nothing, the resolution's
            # probe misses and L2 answers
            assert step(first) == (0, 1, 1, 1, 1, 0)
            stats = service.stats_snapshot()
        assert stats.dedup_hits + stats.resolved == stats.completed == 4
        assert stats.batches == 3


class TestLoadGenerator:
    def test_stream_is_deterministic_and_duplicate_heavy(self):
        first = duplicate_heavy_requests(30, 4, depth=2)
        second = duplicate_heavy_requests(30, 4, depth=2)
        assert len(first) == 30
        assert [r.stack[0].seq_len for r in first] == [
            r.stack[0].seq_len for r in second
        ]
        keys = {
            (r.stack, tuple(r.system.fingerprint())) for r in first
        }
        assert len(keys) == 4

    def test_rejects_malformed_shape(self):
        with pytest.raises(ConfigError):
            duplicate_heavy_requests(3, 5)
        with pytest.raises(ConfigError):
            duplicate_heavy_requests(0, 0)
