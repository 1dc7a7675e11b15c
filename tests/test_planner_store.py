"""Tests for the content-addressed ProfileStore."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.api.workspace import _load_profile, _ProfileTier, _read_document
from repro.cache import TierStats
from repro.core.profiler import profile_cluster
from repro.obs.metrics import CounterCell
from repro.planner import ProfileStore
from repro.planner.store import StoreStats


class TestClusterProfiles:
    def test_first_request_misses_then_hits(self, cluster_b, parallel_b):
        store = ProfileStore()
        first = store.cluster_profile(cluster_b, parallel_b)
        second = store.cluster_profile(cluster_b, parallel_b)
        assert first is second
        stats = store.stats
        assert stats.cluster_misses == 1
        assert stats.cluster_hits == 1

    def test_matches_uncached_profiler(self, cluster_b, parallel_b):
        store = ProfileStore()
        cached = store.cluster_profile(cluster_b, parallel_b)
        direct = profile_cluster(cluster_b, parallel_b)
        assert cached.models == direct.models

    def test_distinct_knobs_are_distinct_entries(self, cluster_b, parallel_b):
        store = ProfileStore()
        store.cluster_profile(cluster_b, parallel_b, noise=0.0)
        store.cluster_profile(cluster_b, parallel_b, noise=0.01)
        store.cluster_profile(cluster_b, parallel_b, noise=0.01, seed=1)
        assert store.stats.cluster_misses == 3
        assert len(store) == 3

    def test_models_convenience(self, cluster_b, parallel_b, models_b):
        store = ProfileStore()
        assert store.models(cluster_b, parallel_b) == models_b


class TestLayerProfiles:
    def test_layer_profile_identity_on_hit(
        self, cluster_b, parallel_b, models_b, small_spec
    ):
        store = ProfileStore()
        first = store.layer_profile(small_spec, parallel_b, models_b)
        second = store.layer_profile(small_spec, parallel_b, models_b)
        assert first is second
        assert store.stats == StoreStats(layer_hits=1, layer_misses=1)

    def test_distinct_specs_profile_separately(
        self, parallel_b, models_b, small_spec
    ):
        store = ProfileStore()
        store.layer_profile(small_spec, parallel_b, models_b)
        store.layer_profile(
            small_spec.with_(top_k=1), parallel_b, models_b
        )
        assert store.stats.layer_misses == 2

    def test_concurrent_same_key_computes_once(
        self, parallel_b, models_b, small_spec
    ):
        store = ProfileStore()
        results = []
        barrier = threading.Barrier(8)

        def request():
            barrier.wait()
            results.append(
                store.layer_profile(small_spec, parallel_b, models_b)
            )

        threads = [threading.Thread(target=request) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        assert all(r is results[0] for r in results)
        stats = store.stats
        assert stats.layer_misses == 1
        assert stats.layer_hits == 7

    def test_failed_compute_is_not_cached(self, parallel_b, small_spec):
        store = ProfileStore()
        # A None model set blows up inside the profile computation, after
        # the store committed to a miss; the entry must be evicted so the
        # next request retries instead of replaying the exception.
        with pytest.raises(AttributeError):
            store.layer_profile(small_spec, parallel_b, None)
        assert len(store) == 0


def _journaled_store() -> tuple[ProfileStore, _ProfileTier]:
    """A store over a workspace's profile tier with no shared L3."""
    tier = _ProfileTier(None, CounterCell(TierStats))
    return ProfileStore(lower=tier), tier


def _full_key(dig: str, text: str) -> tuple:
    """The full key of a journaled profile document (read back whole)."""
    return _read_document(text, _load_profile, dig)[0]


class TestJournal:
    """The save journal of a workspace's profile tier, fed by the store."""

    def test_drain_hands_over_each_settled_entry_once(
        self, cluster_b, parallel_b, small_spec
    ):
        store, tier = _journaled_store()
        store.preload({("cluster", "preloaded"): "from disk"})
        with pytest.raises(AttributeError):  # failed: never journaled
            store.layer_profile(small_spec, parallel_b, None)
        models = store.models(cluster_b, parallel_b)
        store.models(cluster_b, parallel_b)  # a hit settles nothing
        drained = []
        tier.drain(lambda dig, text: drained.append((dig, text)))
        assert len(drained) == 1
        (dig, text), = drained
        full_key, value = _read_document(text, _load_profile, dig)
        assert full_key[0] == "cluster" and value.models == models
        tier.drain(lambda dig, text: drained.append(dig))
        assert len(drained) == 1

    def test_failed_write_keeps_the_rest_journaled(
        self, cluster_b, parallel_b, small_spec
    ):
        store, tier = _journaled_store()
        models = store.models(cluster_b, parallel_b)
        store.layer_profile(small_spec, parallel_b, models)

        def refuse(dig, text):
            raise OSError("refused")

        with pytest.raises(OSError):
            tier.drain(refuse)
        drained = []
        tier.drain(lambda dig, text: drained.append(_full_key(dig, text)))
        assert [key[0] for key in drained] == ["cluster", "layer"]

    def test_concurrent_settles_and_drains_lose_nothing(self):
        store, tier = _journaled_store()
        drained: list[tuple] = []
        drained_lock = threading.Lock()

        def write(dig, text):
            with drained_lock:
                drained.append(_full_key(dig, text))

        def worker(first: int) -> None:
            for i in range(first, first + 200):
                key = i % 300  # workers overlap: each key settles once
                store._memoize("layer", (key,), lambda key=key: key)
                if i % 7 == 0:
                    tier.drain(write)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(100 * n,))
                for n in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(switch)
        tier.drain(write)
        assert sorted(drained) == [("layer", key) for key in range(300)]


class TestStats:
    def test_subtraction_gives_deltas(self):
        after = StoreStats(
            cluster_hits=5, cluster_misses=2, layer_hits=10, layer_misses=3
        )
        before = StoreStats(
            cluster_hits=1, cluster_misses=2, layer_hits=4, layer_misses=3
        )
        delta = after - before
        assert delta == StoreStats(cluster_hits=4, layer_hits=6)
        assert delta.misses == 0
        assert delta.hits == 10
