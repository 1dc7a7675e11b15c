"""The telemetry layer: trace spans, the stats schema, exporters, wiring."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ConfigError,
    MoELayerSpec,
    PlanRequest,
    PlanService,
    Workspace,
)
from repro.api.spec import ExperimentSpec
from repro.api.workspace import WorkspaceStats
from repro.cache import CacheServer, RemoteTier
from repro.cache.stats import CacheStats, TierStats
from repro.core.context import SolverStats
from repro.obs import (
    DEFAULT_LATENCY_BOUNDS_MS,
    LATENCY_GROWTH,
    CounterCell,
    Histogram,
    HistogramSnapshot,
    MetricSample,
    SpanRecord,
    Tracer,
    build_tree,
    canonical_tree,
    current_span,
    empty_snapshot,
    exponential_bounds,
    maybe_span,
    parse_prometheus,
    prometheus_name,
    read_trace,
    render_json,
    render_prometheus,
    render_tree,
    samples_from_json,
    stats_samples,
)
from repro.planner.store import StoreStats
from repro.rpc import TransportStats
from repro.serve.net import LANES, LaneStats, NetServer, NetStats
from repro.serve.stats import ServiceStats, StatsAccumulator, percentile
from repro.systems.registry import get_system

TINY_SPEC = {
    "name": "obs-test",
    "clusters": ["B"],
    "systems": ["tutel", "fsmoe"],
    "stacks": [
        {
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
        }
    ],
}


def tiny_stack(depth=1):
    layer = MoELayerSpec(
        batch_size=1, seq_len=256, embed_dim=512,
        num_experts=8, num_heads=8,
    )
    return (layer,) * depth


# ---------------------------------------------------------------------------
# tracing core


class TestSpanCore:
    def test_nesting_is_ambient(self):
        tracer = Tracer()
        with tracer.start("outer"):
            with tracer.start("inner"):
                assert current_span().name == "inner"
            assert current_span().name == "outer"
        assert current_span() is None
        records = tracer.spans()
        assert [r.name for r in records] == ["inner", "outer"]
        inner, outer = records
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_explicit_parent_overrides_context(self):
        tracer = Tracer()
        parent = tracer.start("parent")
        parent.end()
        child = tracer.start("child", parent=parent)
        child.end()
        assert tracer.spans()[-1].parent_id == parent.span_id

    def test_maybe_span_without_tracer_is_none(self):
        assert maybe_span("anything") is None

    def test_maybe_span_inside_active_span(self):
        tracer = Tracer()
        with tracer.start("outer"):
            span = maybe_span("solve", {"contexts": 3})
            assert span is not None
            span.end()
        inner, outer = tracer.spans()
        assert inner.name == "solve" and inner.attrs["contexts"] == 3
        assert inner.parent_id == outer.span_id

    def test_rename_before_end(self):
        # The workspace's probe idiom: l1_probe becomes l1_hit on a hit.
        tracer = Tracer()
        span = tracer.start("l1_probe")
        span.name = "l1_hit"
        span.end()
        assert tracer.spans()[0].name == "l1_hit"

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start("once")
        first = span.end()
        second = span.end()
        assert len(tracer.spans()) == 1
        assert second.span_id == first.span_id

    def test_set_returns_self_and_merges(self):
        tracer = Tracer()
        record = tracer.start("x").set(a=1).set(b=2, a=3).end()
        assert record.attrs == {"a": 3, "b": 2}

    def test_event_is_zero_duration_span(self):
        tracer = Tracer()
        record = tracer.event("tick", {"n": 1})
        assert record.duration_us >= 0
        assert tracer.spans()[0].name == "tick"

    def test_buffer_bound_drops_and_counts(self):
        tracer = Tracer(max_spans=3)
        for index in range(5):
            tracer.start(f"s{index}").end()
        assert len(tracer.spans()) == 3
        assert tracer.dropped == 2
        tracer.clear()
        assert tracer.spans() == () and tracer.dropped == 0

    def test_bad_max_spans_refused(self):
        with pytest.raises(ConfigError):
            Tracer(max_spans=0)


class TestTraceFiles:
    def test_json_line_round_trip(self):
        record = SpanRecord(
            name="plan", span_id=7, parent_id=3,
            start_us=123, duration_us=456,
            attrs={"digest": "ab", "layers": 2},
        )
        assert SpanRecord.from_json_line(record.to_json_line()) == record

    def test_json_line_is_deterministic(self):
        record = SpanRecord(
            name="x", span_id=1, parent_id=None, start_us=0,
            duration_us=0, attrs={"b": 1, "a": 2},
        )
        line = record.to_json_line()
        assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_malformed_lines_raise_config_error(self):
        with pytest.raises(ConfigError):
            SpanRecord.from_json_line("not json")
        with pytest.raises(ConfigError):
            SpanRecord.from_json_line("[1, 2]")
        with pytest.raises(ConfigError):
            SpanRecord.from_json_line('{"name": "x"}')

    def test_file_appended_live_and_read_back(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path)
        with tracer.start("outer", {"k": "v"}):
            tracer.start("inner").end()
        tracer.close()
        records = read_trace(path)
        assert [r.name for r in records] == ["inner", "outer"]
        assert records == tracer.spans()

    def test_write_dumps_buffer(self, tmp_path):
        tracer = Tracer()
        tracer.start("a").end()
        tracer.start("b").end()
        path = tmp_path / "dump.jsonl"
        assert tracer.write(path) == 2
        assert [r.name for r in read_trace(path)] == ["a", "b"]

    def test_spans_beyond_buffer_still_reach_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path, max_spans=2)
        for index in range(4):
            tracer.start(f"s{index}").end()
        tracer.close()
        assert len(tracer.spans()) == 2 and tracer.dropped == 2
        assert len(read_trace(path)) == 4


class TestTrees:
    def make_records(self):
        tracer = Tracer()
        with tracer.start("root", {"cost_ms": 1.5, "digest": "ab"}):
            with tracer.start("child_a"):
                tracer.start("leaf").end()
            tracer.start("child_b").end()
        return tracer.spans()

    def test_build_tree_shape(self):
        roots = build_tree(self.make_records())
        assert len(roots) == 1
        root = roots[0]
        assert root.record.name == "root"
        assert [c.record.name for c in root.children] == [
            "child_a", "child_b",
        ]
        assert root.children[0].children[0].record.name == "leaf"

    def test_orphans_become_roots(self):
        records = self.make_records()
        # Drop the root record: its children must surface as roots.
        headless = [r for r in records if r.name != "root"]
        names = {n.record.name for n in build_tree(headless)}
        assert names == {"child_a", "child_b"}

    def test_self_time_excludes_children(self):
        roots = build_tree(self.make_records())
        root = roots[0]
        child_total = sum(c.total_us for c in root.children)
        assert root.self_us == max(0, root.total_us - child_total)

    def test_render_tree_lines(self):
        text = render_tree(self.make_records())
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert "total" in lines[0] and "self" in lines[0]
        assert "[cost_ms=1.5 digest=ab]" in lines[0]
        assert lines[1].startswith("  child_a")

    def test_render_tree_without_timings_is_stable(self):
        text = render_tree(self.make_records(), include_timings=False)
        assert text.splitlines()[0] == "root  [cost_ms=1.5 digest=ab]"

    def test_canonical_tree_strips_ids_and_timings(self):
        canonical = canonical_tree(self.make_records())
        assert canonical[0]["name"] == "root"
        # timing-valued attr dropped, stable attr kept
        assert canonical[0]["attrs"] == {"digest": "ab"}
        flat = json.dumps(canonical)
        assert "span_id" not in flat and "start_us" not in flat

    def test_canonical_tree_orders_siblings_canonically(self):
        first = Tracer()
        with first.start("root"):
            first.start("a").end()
            first.start("b").end()
        second = Tracer()
        with second.start("root"):
            second.start("b").end()
            second.start("a").end()
        assert canonical_tree(first.spans()) == canonical_tree(
            second.spans()
        )


# ---------------------------------------------------------------------------
# metrics registry


class TestHistogram:
    def test_exponential_bounds_cover_range(self):
        bounds = exponential_bounds(0.5, 100.0, 2.0)
        assert bounds[0] == 0.5
        assert bounds[-1] >= 100.0
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(abs(r - 2.0) < 1e-12 for r in ratios)

    def test_exponential_bounds_validation(self):
        with pytest.raises(ConfigError):
            exponential_bounds(0.0, 1.0, 2.0)
        with pytest.raises(ConfigError):
            exponential_bounds(2.0, 1.0, 2.0)
        with pytest.raises(ConfigError):
            exponential_bounds(1.0, 2.0, 1.0)

    def test_bad_bounds_refused(self):
        with pytest.raises(ConfigError):
            Histogram(())
        with pytest.raises(ConfigError):
            Histogram((1.0, 1.0))
        with pytest.raises(ConfigError):
            Histogram((2.0, 1.0))

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(50.0) == 0.0
        assert empty_snapshot().quantile(95.0) == 0.0

    def test_quantile_agrees_with_reference_percentile(self):
        # Satellite pin: the bucketed quantile must bracket the old
        # sampling reservoir's nearest-rank percentile from above, by
        # at most one bucket's growth factor, on dense samples.
        samples = [0.01 * i for i in range(1, 2001)]  # 0.01 .. 20 ms
        histogram = Histogram()
        for value in samples:
            histogram.observe(value)
        for q in (1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0):
            old = percentile(samples, q)
            new = histogram.quantile(q)
            assert old <= new <= old * LATENCY_GROWTH + 1e-9

    def test_exact_bound_observation_lands_in_its_bucket(self):
        bounds = (1.0, 2.0, 4.0)
        histogram = Histogram(bounds)
        histogram.observe(2.0)
        snap = histogram.snapshot()
        assert snap.counts == (0, 1, 0, 0)
        assert snap.quantile(50.0) == 2.0

    def test_overflow_reports_last_finite_bound(self):
        histogram = Histogram((1.0, 2.0))
        histogram.observe(999.0)
        assert histogram.quantile(100.0) == 2.0

    def test_snapshot_merge_and_sub_are_exact(self):
        first = Histogram((1.0, 2.0, 4.0))
        second = Histogram((1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0):
            first.observe(value)
        second.observe(8.0)
        merged = first.snapshot().merge(second.snapshot())
        assert merged.count == 4
        assert merged.counts == (1, 1, 1, 1)
        assert merged.sum == pytest.approx(13.0)
        window = merged - first.snapshot()
        assert window.counts == (0, 0, 0, 1)
        assert window.count == 1 and window.sum == pytest.approx(8.0)

    def test_mismatched_bounds_refused(self):
        left = empty_snapshot((1.0, 2.0))
        right = empty_snapshot((1.0, 3.0))
        with pytest.raises(ConfigError):
            left.merge(right)
        with pytest.raises(ConfigError):
            left - right


class TestWorkspaceMetrics:
    def test_counters_exactly_equal_legacy_stats(self, tmp_path):
        workspace = Workspace(tmp_path / "ws")
        spec = ExperimentSpec.from_dict(TINY_SPEC)
        workspace.sweep(spec)
        workspace.sweep(spec)  # warm pass: hits > 0
        stats = workspace.stats
        exposed = parse_prometheus(
            render_prometheus(stats_samples(stats, "repro.workspace."))
        )
        assert exposed["repro_workspace_plan_hits"] == stats.plan_hits
        assert exposed["repro_workspace_plan_misses"] == stats.plan_misses
        assert (
            exposed["repro_workspace_profile_hits"] == stats.profiles.hits
        )
        cache = stats.cache
        for tier_name, tier in (
            ("l1", cache.l1), ("l2", cache.l2), ("l3", cache.l3),
            ("profiles_remote", cache.profiles_remote),
        ):
            for counter in (
                "hits", "misses", "fills", "writes", "evictions", "errors",
            ):
                assert exposed[
                    f"repro_cache_{tier_name}_{counter}"
                ] == getattr(tier, counter), (tier_name, counter)
            assert exposed[f"repro_cache_{tier_name}_entries"] == tier.entries
            assert exposed[f"repro_cache_{tier_name}_bytes"] == tier.bytes
        solver = stats.solver
        assert exposed["repro_solver_solves"] == solver.solves
        assert exposed["repro_solver_cache_hits"] == solver.cache_hits
        assert exposed["repro_solver_batch_calls"] == solver.batch_calls
        assert (
            exposed["repro_solver_max_batch_size"] == solver.max_batch_size
        )
        # no service bound: the serve family is absent, not zero-filled
        assert not any(key.startswith("repro_serve") for key in exposed)

    def test_service_family_present_when_bound(self, tmp_path, cluster_b):
        workspace = Workspace(tmp_path / "ws")
        with PlanService(workspace, flush_ms=50.0) as service:
            request = PlanRequest(
                stack=tiny_stack(),
                system=get_system("tutel", solver="slsqp"),
                cluster=cluster_b,
            )
            futures = [service.submit(request) for _ in range(3)]
            [future.result() for future in futures]
            stats = workspace.stats
            exposed = parse_prometheus(
                render_prometheus(stats_samples(stats, "repro.workspace."))
            )
        assert exposed["repro_serve_requests"] == stats.service.requests
        assert exposed["repro_serve_completed"] == stats.service.completed
        assert exposed["repro_serve_dedup_hits"] == stats.service.dedup_hits
        assert (
            exposed["repro_serve_latency_ms_count"]
            == stats.service.latency.count
        )

    def test_windowed_stats_adapt_too(self, tmp_path):
        workspace = Workspace(tmp_path / "ws")
        spec = ExperimentSpec.from_dict(TINY_SPEC)
        workspace.sweep(spec)
        before = workspace.stats
        workspace.sweep(spec)
        window = workspace.stats.since(before)
        exposed = parse_prometheus(
            render_prometheus(stats_samples(window, "repro.workspace."))
        )
        assert exposed["repro_workspace_plan_misses"] == 0
        assert exposed["repro_workspace_plan_hits"] == window.plan_hits > 0


# ---------------------------------------------------------------------------
# exporters


class TestExporters:
    def sample_rows(self):
        histogram = Histogram((1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        return (
            MetricSample("repro.a.hits", "counter", 3.0, "hits of a"),
            MetricSample("repro.a.bytes", "gauge", 1.5),
            MetricSample(
                "repro.a.latency_ms", "histogram", histogram.snapshot()
            ),
        )

    def test_prometheus_name_mapping(self):
        assert prometheus_name("repro.cache.l1.hits") == (
            "repro_cache_l1_hits"
        )
        assert prometheus_name("a-b.c") == "a_b_c"

    def test_exposition_shape(self):
        text = render_prometheus(self.sample_rows())
        lines = text.splitlines()
        assert "# HELP repro_a_hits hits of a" in lines
        assert "# TYPE repro_a_hits counter" in lines
        assert "repro_a_hits 3" in lines
        assert "repro_a_bytes 1.5" in lines
        assert 'repro_a_latency_ms_bucket{le="1"} 1' in lines
        assert 'repro_a_latency_ms_bucket{le="2"} 1' in lines
        assert 'repro_a_latency_ms_bucket{le="+Inf"} 2' in lines
        assert "repro_a_latency_ms_sum 5.5" in lines
        assert "repro_a_latency_ms_count 2" in lines

    def test_parse_prometheus_round_trip(self):
        text = render_prometheus(self.sample_rows())
        parsed = parse_prometheus(text)
        assert parsed["repro_a_hits"] == 3
        assert parsed['repro_a_latency_ms_bucket{le="+Inf"}'] == 2

    def test_parse_prometheus_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_prometheus("this is not exposition")

    def test_json_round_trip_is_lossless(self):
        samples = self.sample_rows()
        assert samples_from_json(render_json(samples)) == samples

    def test_samples_from_json_rejects_garbage(self):
        with pytest.raises(ConfigError):
            samples_from_json("{}")


class TestCacheServerMetrics:
    def test_metrics_op_exposes_store_counters(self):
        server = CacheServer()
        try:
            server.store.put("k", "v", size=1)
            server.store.get("k")
            server.store.get("absent")
            response = server.handle_line(
                json.dumps(
                    {"op": "metrics", "schema": server.schema}
                ).encode()
            )
            assert response["ok"]
            exposed = parse_prometheus(response["exposition"])
            stats = server.store.stats
            assert exposed["repro_cache_server_hits"] == stats.hits
            assert exposed["repro_cache_server_misses"] == stats.misses
            assert exposed["repro_cache_server_entries"] == stats.entries
            assert exposed["repro_cache_server_bytes"] == stats.bytes
        finally:
            server.close()

    def test_remote_tier_metrics_round_trip(self):
        server = CacheServer()
        try:
            address = server.start()
            tier = RemoteTier(address)
            tier.put("k", "v")
            exposition = tier.metrics()
            tier.close()
            assert exposition is not None
            assert parse_prometheus(exposition)[
                "repro_cache_server_entries"
            ] == 1
        finally:
            server.close()

    def test_remote_tier_metrics_degrade_to_none(self):
        server = CacheServer()
        address = server.start()
        server.close()
        assert RemoteTier(address).metrics() is None


# ---------------------------------------------------------------------------
# stats-family windowing (all four families)


class TestStatsWindowing:
    def test_tier_stats_sub_carries_gauges_from_newer(self):
        before = TierStats(
            hits=1, misses=2, fills=1, writes=1, evictions=0, errors=0,
            entries=10, bytes=1000,
        )
        after = TierStats(
            hits=5, misses=3, fills=2, writes=2, evictions=1, errors=1,
            entries=4, bytes=400,
        )
        window = after - before
        assert window.hits == 4 and window.misses == 1
        assert window.fills == 1 and window.writes == 1
        assert window.evictions == 1 and window.errors == 1
        # gauges are levels: the newer snapshot's occupancy, even when
        # lower than the older one's (evictions shrank the tier)
        assert window.entries == 4 and window.bytes == 400

    def test_cache_stats_sub_is_tier_by_tier(self):
        before = CacheStats(l1=TierStats(hits=1, entries=2))
        after = CacheStats(
            l1=TierStats(hits=3, entries=5), l2=TierStats(misses=2)
        )
        window = after - before
        assert window.l1.hits == 2 and window.l1.entries == 5
        assert window.l2.misses == 2

    def test_solver_stats_sub_carries_max_batch_size(self):
        before = SolverStats(solves=10, batch_calls=2, max_batch_size=8)
        after = SolverStats(solves=15, batch_calls=3, max_batch_size=12)
        window = after - before
        assert window.solves == 5 and window.batch_calls == 1
        assert window.max_batch_size == 12  # gauge: later snapshot's

    def test_store_stats_sub_is_plain_delta(self):
        before = StoreStats(cluster_hits=1, layer_misses=2)
        after = StoreStats(
            cluster_hits=4, cluster_misses=1, layer_hits=2, layer_misses=5
        )
        window = after - before
        assert window.cluster_hits == 3 and window.cluster_misses == 1
        assert window.layer_hits == 2 and window.layer_misses == 3
        assert window.hits == 5 and window.misses == 4

    def test_workspace_since_carries_service_from_later(self, tmp_path):
        workspace = Workspace(tmp_path / "ws")
        before = workspace.stats
        assert before.service is None
        accumulator = StatsAccumulator()
        accumulator.request()
        workspace.bind_service(accumulator.snapshot)
        window = workspace.stats.since(before)
        assert isinstance(window.service, ServiceStats)
        assert window.service.requests == 1

    def test_latency_histogram_windows_through_sub(self):
        accumulator = StatsAccumulator()
        accumulator.resolve_cached(latency_ms=1.0)
        before = accumulator.snapshot()
        accumulator.resolve_cached(latency_ms=100.0)
        window = accumulator.snapshot().latency - before.latency
        assert window.count == 1
        assert window.sum == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# the stats schema: one declaration per field drives windows and exposition

#: nested fields whose default names no type (required, None or ``()``).
NESTED_TYPES = {
    "profiles": StoreStats,
    "service": ServiceStats,
    "lanes": LaneStats,
}
SCHEMA_BOUNDS = (1.0, 2.0, 4.0)
ALL_STATS_TYPES = (
    TierStats, CacheStats, StoreStats, SolverStats, ServiceStats,
    LaneStats, NetStats, WorkspaceStats, TransportStats,
)


def stats_strategy(cls, lane="interactive"):
    """Any snapshot of one stats type, built from its field declarations.

    Histogram sums stay integral so window arithmetic is exact.
    """
    levels = st.integers(0, 10**6)
    histograms = st.lists(
        st.integers(0, 50),
        min_size=len(SCHEMA_BOUNDS) + 1,
        max_size=len(SCHEMA_BOUNDS) + 1,
    ).map(
        lambda counts: HistogramSnapshot(
            SCHEMA_BOUNDS, tuple(counts), float(3 * sum(counts)),
            sum(counts),
        )
    )
    kwargs = {}
    for spec in dataclasses.fields(cls):
        kind = spec.metadata.get("kind", "counter")
        if kind == "label":
            kwargs[spec.name] = st.just(lane)
        elif kind == "histogram":
            kwargs[spec.name] = histograms
        elif kind == "nested":
            inner = NESTED_TYPES.get(spec.name) or type(spec.default)
            if spec.default == ():
                kwargs[spec.name] = st.tuples(
                    *(stats_strategy(inner, name) for name in LANES)
                )
            elif spec.default is None:
                kwargs[spec.name] = st.none() | stats_strategy(inner)
            else:
                kwargs[spec.name] = stats_strategy(inner)
        else:
            kwargs[spec.name] = levels
    return st.builds(cls, **kwargs)


def exported_fields(stats, path=(), carried=False):
    """``(path, kind, value, derived, carried)`` per series, export order.

    Walks the dataclass fields themselves, so a field the schema forgot
    to export shows up as a missing row.
    """
    for spec in dataclasses.fields(stats):
        kind = spec.metadata.get("kind", "counter")
        value = getattr(stats, spec.name)
        if kind == "nested":
            inner_carried = carried or spec.metadata["carried"]
            if isinstance(value, tuple):
                for item in value:
                    yield from exported_fields(
                        item, path + (spec.name, item.name), inner_carried
                    )
            elif value is not None:
                yield from exported_fields(
                    value, path + (spec.name,), inner_carried
                )
        elif kind != "label":
            name = spec.metadata.get("name", spec.name)
            yield path + (name,), kind, value, False, carried
    for name, kind in type(stats).derived:
        yield path + (name,), kind, getattr(stats, name), True, carried


def series_kinds(text):
    """``{series: TYPE}`` and ``{series: HELP}`` of an exposition."""
    kinds, helps = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            kinds[name] = kind
        elif line.startswith("# HELP "):
            _, _, name, text_ = line.split(" ", 3)
            helps[name] = text_
    return kinds, helps


TIER_SERIES = {
    "hits": "counter", "misses": "counter", "fills": "counter",
    "writes": "counter", "evictions": "counter", "errors": "counter",
    "entries": "gauge", "bytes": "gauge",
}
#: every series of a workspace exposition with a service bound.
WORKSPACE_SERIES = {
    **{
        f"repro_workspace_{name}": "counter"
        for name in (
            "plan_hits", "plan_misses", "profile_hits", "profile_misses",
            "profile_cluster_hits", "profile_cluster_misses",
            "profile_layer_hits", "profile_layer_misses",
        )
    },
    **{
        f"repro_cache_{tier}_{name}": kind
        for tier in ("l1", "l2", "l3", "profiles_remote")
        for name, kind in TIER_SERIES.items()
    },
    **{
        f"repro_solver_{name}": "counter"
        for name in (
            "solves", "cache_hits", "batch_calls", "evictions",
            "step2_objective_calls", "step2_candidates",
        )
    },
    "repro_solver_max_batch_size": "gauge",
    **{
        f"repro_serve_{name}": "counter"
        for name in (
            "requests", "completed", "failed", "rejected", "dedup_hits",
            "resolved", "batches", "coalesced_requests",
        )
    },
    **{
        f"repro_serve_{name}": "gauge"
        for name in ("max_batch", "p50_latency_ms", "p95_latency_ms")
    },
    "repro_serve_latency_ms": "histogram",
}
#: every series of a NetServer exposition; ``peak_depth`` is new.
NET_SERIES = {
    **{
        f"repro_net_{name}": "counter"
        for name in (
            "connections", "frames", "requests", "completed", "failed",
            "internal_errors", "shed", "drained", "dropped",
            "protocol_errors", "backpressure_waits",
        )
    },
    "repro_net_open_connections": "gauge",
    **{
        f"repro_net_lane_{lane}_{name}": kind
        for lane in ("interactive", "batch")
        for name, kind in (
            ("admitted", "counter"), ("shed", "counter"),
            ("depth", "gauge"), ("peak_depth", "gauge"),
        )
    },
}
NET_HELP = {
    f"repro_net_lane_{lane}_{name}": text
    for lane in ("interactive", "batch")
    for name, text in (
        ("admitted", "requests admitted"),
        ("shed", "requests shed at a full lane"),
        ("depth", "queued requests in this lane"),
        ("peak_depth", "high-water queue depth of this lane"),
    )
}
#: the RPC kernel's transport counters, on both servers.
TRANSPORT_SERIES = {
    "connections": "counter", "open_connections": "gauge",
    "frames": "counter", "protocol_errors": "counter",
    "internal_errors": "counter",
}
#: a CacheServer exposes its store's TierStats (fills/writes/errors are
#: always 0: the server's LRU neither fills nor fails), then the
#: kernel's transport counters.
CACHE_SERVER_SERIES = {
    f"repro_cache_server_{name}": kind
    for name, kind in {**TIER_SERIES, **TRANSPORT_SERIES}.items()
}


class TestStatsSchema:
    @pytest.mark.parametrize(
        "cls", ALL_STATS_TYPES, ids=lambda cls: cls.__name__
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_windows_and_exposition_follow_the_declaration(self, cls, data):
        strategy = stats_strategy(cls)
        a, b, c = data.draw(strategy), data.draw(strategy), data.draw(strategy)
        first, second, whole = b - a, c - b, c.since(a)

        def values(stats):
            return {row[0]: row[2] for row in exported_fields(stats)}

        later = values(c)
        first_rows, second_rows = values(first), values(second)
        for path, kind, value, derived, carried in exported_fields(whole):
            if carried or (kind == "gauge" and not derived):
                assert value == later[path], path
            elif kind == "counter":
                assert first_rows[path] + second_rows[path] == value, path
            elif kind == "histogram":
                assert first_rows[path].merge(second_rows[path]) == value
        # every declared field is a series, and the exposition carries
        # its exact typed value
        rows = stats_samples(whole, "repro.t.")
        expected = list(exported_fields(whole))
        assert len(rows) == len(expected)
        exposed = parse_prometheus(render_prometheus(rows))
        for row, (path, kind, value, _, _) in zip(rows, expected):
            assert row.kind == kind and row.name.endswith(path[-1])
            series = prometheus_name(row.name)
            if kind == "histogram":
                assert exposed[f"{series}_count"] == value.count
                assert exposed[f"{series}_sum"] == value.sum
            else:
                assert exposed[series] == value, series

    def test_samples_follow_declared_field_order(self):
        rows = stats_samples(
            SolverStats(solves=3, max_batch_size=7), "repro.solver."
        )
        assert [row.name for row in rows] == [
            f"repro.solver.{spec.name}"
            for spec in dataclasses.fields(SolverStats)
        ]
        assert rows[0].value == 3.0 and rows[3].kind == "gauge"

    def test_histogram_field_exports_snapshot_exactly(self):
        accumulator = StatsAccumulator()
        accumulator.resolve_cached(latency_ms=0.5)
        accumulator.resolve_cached(latency_ms=1.5)
        stats = accumulator.snapshot()
        (row,) = [
            row for row in stats_samples(stats, "repro.serve.")
            if row.kind == "histogram"
        ]
        assert row.name == "repro.serve.latency_ms"
        assert row.value == stats.latency

    def test_counter_cell_counts_declared_counters_atomically(self):
        cell = CounterCell(NetStats)
        cell.inc("failed", "protocol_errors")
        cell.inc("requests")
        snapshot = cell.snapshot(open_connections=2)
        assert snapshot.failed == snapshot.protocol_errors == 1
        assert snapshot.requests == 1 and snapshot.open_connections == 2
        assert "open_connections" not in cell.counts()
        with pytest.raises(KeyError):
            cell.inc("open_connections")  # a gauge, not a counter
        cell.reset()
        assert cell.snapshot() == NetStats()

    def test_exposition_series_are_pinned(self, tmp_path):
        workspace = Workspace(tmp_path / "ws")
        with PlanService(workspace):
            kinds, helps = series_kinds(
                render_prometheus(
                    stats_samples(workspace.stats, "repro.workspace.")
                )
            )
        assert kinds == WORKSPACE_SERIES
        assert helps == {
            "repro_serve_latency_ms": "submission-to-resolution latency (ms)"
        }
        server = NetServer(Workspace(tmp_path / "net"))
        try:
            assert series_kinds(server.exposition()) == (
                NET_SERIES, NET_HELP,
            )
        finally:
            server.close()
        cache = CacheServer()
        try:
            assert series_kinds(cache.exposition()) == (
                CACHE_SERVER_SERIES, {},
            )
        finally:
            cache.close()


# ---------------------------------------------------------------------------
# workspace/planner/serving wiring


def plan_span_invariant(records):
    """Every plan span has exactly one of {l1,l2,l3}_hit / compile."""
    by_parent: dict[int, list[SpanRecord]] = {}
    for record in records:
        if record.parent_id is not None:
            by_parent.setdefault(record.parent_id, []).append(record)
    plans = [r for r in records if r.name == "plan"]
    assert plans, "trace holds no plan spans"
    outcomes = {"l1_hit", "l2_hit", "l3_hit", "compile"}
    for plan in plans:
        children = by_parent.get(plan.span_id, [])
        matched = [c for c in children if c.name in outcomes]
        assert len(matched) == 1, (
            f"plan span {plan.span_id} has outcomes "
            f"{[c.name for c in matched]}"
        )
    return plans


class TestWorkspaceTracing:
    def test_tracing_is_off_by_default(self, tmp_path):
        assert Workspace(tmp_path / "ws").tracer is None

    def test_cold_plan_traces_probes_and_compile(self, tmp_path, cluster_b):
        workspace = Workspace(tmp_path / "ws", trace=True)
        workspace.plan(tiny_stack(), get_system("fsmoe"), cluster_b)
        records = workspace.tracer.spans()
        (plan,) = plan_span_invariant(records)
        children = [
            r.name for r in records if r.parent_id == plan.span_id
        ]
        assert "l1_probe" in children  # missed, stayed a probe
        assert "compile" in children
        compile_record = next(r for r in records if r.name == "compile")
        # A fresh workspace has its own solver context, so the compile
        # span's window is all of this session's solver work, exactly.
        attrs = compile_record.attrs
        solver = workspace.stats.solver
        assert (
            attrs["solver_solves"],
            attrs["solver_cache_hits"],
            attrs["solver_batch_calls"],
        ) == (solver.solves, solver.cache_hits, solver.batch_calls)
        assert (solver.solves, solver.cache_hits, solver.batch_calls) == (
            2, 3, 1,
        )
        assert any(r.name == "solve_degrees" for r in records)
        assert plan.attrs["digest"]
        assert plan.attrs["layers"] == 1

    @pytest.mark.parametrize(
        "system, kind, sweeps, memo_hit",
        [
            # No-IIO sweeps each phase; a plan without gradient sync
            # asks the same (profiles, r_max, phase) questions.
            ("fsmoe-no-iio", "merged_phase", 2, ("fsmoe-no-iio", False)),
            # Tutel-Improved asks Tutel's oracle the same question.
            ("tutel", "oracle", 1, ("tutel-improved", True)),
        ],
    )
    def test_cold_compile_traces_degree_sweeps(
        self, tmp_path, cluster_b, system, kind, sweeps, memo_hit
    ):
        workspace = Workspace(tmp_path / "ws", trace=True)
        workspace.plan(tiny_stack(2), get_system(system), cluster_b)
        records = workspace.tracer.spans()
        (compile_record,) = [r for r in records if r.name == "compile"]
        swept = [r for r in records if r.name == "sweep_degree"]
        assert len(swept) == sweeps
        for record in swept:
            assert record.parent_id == compile_record.span_id
            assert record.attrs == {"kind": kind, "layers": 2, "r_max": 16}

        workspace.tracer.clear()
        other, include_gar = memo_hit
        workspace.plan(
            tiny_stack(2), get_system(other), cluster_b,
            include_gar=include_gar,
        )
        names = [r.name for r in workspace.tracer.spans()]
        assert "compile" in names and "sweep_degree" not in names

    def test_warm_plan_traces_single_l1_hit(self, tmp_path, cluster_b):
        workspace = Workspace(tmp_path / "ws", trace=True)
        workspace.plan(tiny_stack(), get_system("tutel"), cluster_b)
        workspace.tracer.clear()
        workspace.plan(tiny_stack(), get_system("tutel"), cluster_b)
        records = workspace.tracer.spans()
        (plan,) = plan_span_invariant(records)
        names = [r.name for r in records]
        assert names == ["l1_hit", "plan"]

    def test_disk_warm_plan_traces_l2_hit(self, tmp_path, cluster_b):
        first = Workspace(tmp_path / "ws")
        first.plan(tiny_stack(), get_system("tutel"), cluster_b)
        second = Workspace(tmp_path / "ws", trace=True)
        second.plan(tiny_stack(), get_system("tutel"), cluster_b)
        records = second.tracer.spans()
        plan_span_invariant(records)
        assert "l2_hit" in [r.name for r in records]

    def test_env_var_enables_trace_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        workspace = Workspace(tmp_path / "ws")
        assert workspace.tracer is not None
        assert workspace.tracer.path == tmp_path / "ws" / "trace.jsonl"
        monkeypatch.setenv(
            "REPRO_TRACE", str(tmp_path / "custom.jsonl")
        )
        custom = Workspace(tmp_path / "ws2")
        assert custom.tracer.path == tmp_path / "custom.jsonl"

    def test_trace_false_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert Workspace(tmp_path / "ws", trace=False).tracer is None

    def test_sweep_spans_parent_onto_sweep(self, tmp_path):
        workspace = Workspace(tmp_path / "ws", trace=True)
        spec = ExperimentSpec.from_dict(TINY_SPEC)
        workspace.sweep(spec)
        records = workspace.tracer.spans()
        sweep = next(r for r in records if r.name == "sweep")
        points = [r for r in records if r.name == "point"]
        assert sweep.attrs == {"name": "obs-test", "points": 2}
        assert len(points) == 2
        assert all(p.parent_id == sweep.span_id for p in points)
        plan_span_invariant(records)

    def test_warm_sweep_canonical_tree_is_deterministic(self, tmp_path):
        # Satellite: two traced runs of the same warm sweep canonicalize
        # to identical span trees (fresh Workspace per run on one root,
        # so both runs are L2-warm and structurally equal).
        spec = ExperimentSpec.from_dict(TINY_SPEC)
        Workspace(tmp_path / "ws").sweep(spec)

        def traced_run():
            workspace = Workspace(tmp_path / "ws", trace=True)
            workspace.sweep(spec)
            return canonical_tree(workspace.tracer.spans())

        first = traced_run()
        second = traced_run()
        assert first == second
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_service_flush_spans(self, tmp_path, cluster_b):
        workspace = Workspace(tmp_path / "ws", trace=True)
        request = PlanRequest(
            stack=tiny_stack(),
            system=get_system("tutel", solver="slsqp"),
            cluster=cluster_b,
        )
        with PlanService(workspace, flush_ms=100.0) as service:
            futures = [service.submit(request) for _ in range(5)]
            [future.result() for future in futures]
        records = workspace.tracer.spans()
        flush = next(r for r in records if r.name == "flush")
        assert flush.attrs["batch"] == 5
        assert flush.attrs["groups"] == 1
        assert flush.attrs["queue_wait_ms"] >= 0.0
        assert flush.attrs["resolve_ms"] >= 0.0
        resolves = [r for r in records if r.name == "resolve"]
        assert len(resolves) == 1
        assert resolves[0].parent_id == flush.span_id
        assert resolves[0].attrs == {"members": 5, "failed": False}
        plan_span_invariant(records)

    def test_report_runner_artifact_spans(self, tmp_path):
        pytest.importorskip("benchmarks")
        from repro.report import run_report

        workspace = Workspace(tmp_path / "ws", trace=True)
        run = run_report(workspace, only="fw-bw-degree")
        records = workspace.tracer.spans()
        report = next(r for r in records if r.name == "report")
        artifact = next(r for r in records if r.name == "artifact")
        assert report.attrs == {"artifacts": 1}
        assert artifact.parent_id == report.span_id
        assert artifact.attrs["name"] == "fw-bw-degree"
        # REPORT.md timing comes from the span itself
        assert run.runs[0].wall_s == pytest.approx(
            artifact.duration_us / 1e6
        )
