"""Tests of the benchmark's own code: generators, checker, percentiles.

Run from the repository root: ``python3 -m pytest planbench/tests -q``.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from planbench import check, run, workloads
from planbench.stats import median, percentile

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
RUN_SECONDS = BENCHMARK["run_seconds"]


def _cell(payload: dict) -> tuple:
    return (
        payload["cluster"]["name"],
        payload["cluster"]["total_gpus"],
        payload["system"],
        payload["gate"],
        len(payload["stack"]["layers"]),
    )


def test_generators_are_deterministic():
    count = run.PER_SECOND["cold-compile"] * RUN_SECONDS
    assert workloads.cold_requests(7, count) == workloads.cold_requests(7, count)
    assert workloads.cold_requests(7, count) != workloads.cold_requests(8, count)
    assert workloads.warm_set() == workloads.warm_set()
    assert workloads.warm_stream(7, 500) == workloads.warm_stream(7, 500)
    assert workloads.warm_stream(7, 500) != workloads.warm_stream(8, 500)
    assert workloads.fleet_catalog() == workloads.fleet_catalog()
    assert workloads.fleet_stream(7, 900) == workloads.fleet_stream(7, 900)
    assert workloads.fleet_stream(7, 900) != workloads.fleet_stream(8, 900)


@pytest.mark.parametrize("seed", [0, 1, 2, 99])
def test_cold_lists_are_fully_distinct(seed):
    count = run.PER_SECOND["cold-compile"] * RUN_SECONDS
    payloads = workloads.cold_requests(seed, count)
    assert len(payloads) == count
    assert len({workloads.canonical(p) for p in payloads}) == count


def test_cold_composition_does_not_depend_on_the_seed():
    count = run.PER_SECOND["cold-compile"] * RUN_SECONDS
    compositions = {
        frozenset(Counter(map(_cell, workloads.cold_requests(seed, count))).items())
        for seed in range(4)
    }
    assert len(compositions) == 1
    cells = Counter(map(_cell, workloads.cold_requests(0, count)))
    assert {c[2] for c in cells} == set(workloads.SYSTEMS)
    assert {c[3] for c in cells} == set(workloads.GATES)
    assert {c[:2] for c in cells} == {c[:2] for c in workloads.CLUSTERS}
    assert {c[4] for c in cells} == set(workloads.DEPTHS)


def test_warm_stream_requests_every_plan_equally():
    stream = workloads.warm_stream(3, 1000)
    counts = Counter(stream)
    assert set(counts) == set(range(workloads.WARM_SET_SIZE))
    assert max(counts.values()) - min(counts.values()) <= 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fleet_working_set_sits_between_the_cache_bounds(seed):
    catalog = workloads.fleet_catalog()
    assert 1024 < len(catalog) < 4096
    assert len({workloads.canonical(p) for p in catalog}) == len(catalog)
    stream = workloads.fleet_stream(seed, run.PER_SECOND["fleet-wire"] * RUN_SECONDS)
    assert 1024 < len(set(stream)) < 4096


def test_zipf_counts_sum_and_decrease():
    counts = workloads.zipf_counts(4300, 2016)
    assert sum(counts) == 4300
    assert counts == sorted(counts, reverse=True)


def _plan_document() -> dict:
    return {
        "version": 1,
        "name": "fsmoe",
        "grad_bytes": [1.5, 2.25],
        "layers": [{"forward": {"r": 2}, "backward": {"r": 3}}],
    }


def test_checker_accepts_the_reference_and_rejects_tampering():
    document = _plan_document()
    reference = check.plan_hash(document)
    assert check.check_full({"ok": True, "plan": document}, reference)
    tampered = json.loads(json.dumps(document))
    tampered["grad_bytes"][1] = 2.2500000000000004
    assert not check.check_full({"ok": True, "plan": tampered}, reference)
    assert not check.check_full({"ok": False, "plan": document}, reference)
    assert not check.check_full({"ok": True}, reference)

    summary = {"system": "fsmoe", "num_layers": 1, "degrees": [2], "makespan_ms": 12.5}
    assert check.check_summary({"ok": True, "result": dict(summary)}, summary)
    for field, value in (("makespan_ms", 12.500000000000002), ("degrees", [3])):
        assert not check.check_summary(
            {"ok": True, "result": {**summary, field: value}}, summary
        )
    assert not check.check_summary({"ok": False, "result": summary}, summary)


def test_roundtrip_check_rejects_a_wrong_makespan(tmp_path):
    from repro import Workspace
    from repro.serve import parse_plan_payload

    request = parse_plan_payload(workloads.warm_set()[0])
    workspace = Workspace(tmp_path, remote="", trace=False)
    plan = workspace.plan(
        request.stack, request.system, request.cluster,
        gate_kind=request.gate_kind,
    )
    makespan = plan.makespan_ms()
    assert check.check_roundtrip(plan, makespan)
    assert not check.check_roundtrip(plan, makespan * (1 + 1e-12))


def _nearest_rank_reference(samples: list[float], q: float) -> float:
    """The smallest sample with at least q% of all samples <= it."""
    for candidate in sorted(samples):
        if sum(x <= candidate for x in samples) * 100 >= q * len(samples):
            return candidate
    raise AssertionError("unreachable")


def test_percentile_matches_the_nearest_rank_reference():
    rng = random.Random(5)
    for size in (1, 2, 3, 7, 10, 11, 100, 257):
        samples = [rng.choice((rng.random(), 0.5)) for _ in range(size)]
        for q in (1, 10, 25, 50, 90, 95, 99, 100):
            expected = _nearest_rank_reference(samples, q)
            assert percentile(samples, q) == expected
            assert percentile(samples, q) == float(
                np.percentile(samples, q, method="inverted_cdf")
            )
    assert median([3.0, 1.0, 2.0, 4.0]) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def _phase(**extra) -> dict:
    return {
        "attempted": 4, "answered": 4, "failed": 0, "wall_s": 2.0,
        "latencies_ms": [1.0, 2.0, 3.0, 4.0], "setup_samples": [1.0, 1.2, 1.1],
        "peak_rss_mb": 90.0, "cpu_s": 0.5, "gen_cpu_s": 0.1, **extra,
    }


def test_results_name_exactly_the_declared_metrics():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    e2e = run.end_to_end(_phase())
    assert {k: unit for k, (_, unit) in e2e.items()} == declared
    assert all(value > 0 for value, _ in e2e.values())

    traced = _phase(
        phase={
            "calls": {"sim.simulate": 4}, "self_ms": {"sim.simulate": 3.0},
            "samples_ms": {}, "submit_done": 0,
        },
        counts={"plan_misses": 4},
    )
    for workload in run.WORKLOADS:
        layers = run.per_layer(workload, _phase(), traced, 20.0)
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert {k: unit for k, (_, unit) in layers.items()} == declared
