"""Tracing overhead: traced vs untraced warm sweeps, with span invariants.

One measurement, one committed baseline (``BENCH_obs.json``): the same
warm sweep timed three ways through L1-warm workspaces, taking turns
within every repetition so a drift in host speed hits all three alike --

* **untraced** -- the zero-cost-off claim's baseline (``trace=None``
  with no ``REPRO_TRACE``: every hot-path guard sees ``tracer is
  None``);
* **buffer-traced** -- an in-memory :class:`~repro.obs.Tracer`; the
  CI-enforced bound asserts this costs at most ``MAX_OVERHEAD`` of the
  untraced wall time (best-of-N against best-of-N, so scheduler noise
  cancels);
* **file-traced** -- spans appended live to a JSON-lines trace file
  (reported for context; the file adds I/O the bound does not cover).

The traced runs also prove the span-tree contract the docs promise:
every warm ``plan`` span carries exactly one ``l1_hit`` child, and the
sweep emits exactly ``1 + 2 * points`` spans plus those hits.

Under ``REPRO_PERF_SMOKE=1`` the repetition counts shrink and the
committed JSON baseline is not rewritten; the overhead floor and the
span invariants still hold.
"""

from __future__ import annotations

import json
import platform
import statistics
import tempfile
import time
from pathlib import Path

from repro import Workspace
from repro.api.spec import ExperimentSpec
from repro.obs import SpanRecord
from repro.report import ArtifactResult, ReportConfig

from .conftest import RESULTS_DIR

RESULTS_PATH = RESULTS_DIR / "BENCH_obs.json"

#: ceiling on buffer-traced / untraced warm-sweep wall time.
MAX_OVERHEAD = 1.15

SWEEP_SPEC = {
    "name": "obs-overhead",
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


def _repeats(config: ReportConfig) -> int:
    if config.smoke:
        return 200
    return 1000


def check_plan_outcomes(records: tuple[SpanRecord, ...]) -> int:
    """Every plan span has exactly one {l1,l2,l3}_hit/compile child.

    Returns:
        The number of plan spans checked.

    Raises:
        AssertionError: when a plan span has zero or multiple outcomes.
    """
    by_parent: dict[int, list[str]] = {}
    for record in records:
        if record.parent_id is not None:
            by_parent.setdefault(record.parent_id, []).append(record.name)
    outcomes = {"l1_hit", "l2_hit", "l3_hit", "compile"}
    plans = [r for r in records if r.name == "plan"]
    for plan in plans:
        matched = [
            name for name in by_parent.get(plan.span_id, [])
            if name in outcomes
        ]
        assert len(matched) == 1, (
            f"plan span {plan.span_id} has outcome children {matched}"
        )
    return len(plans)


def _timed_sweeps(
    workspaces: tuple[Workspace, ...], spec: ExperimentSpec, repeats: int
) -> list[list[float]]:
    """Per-repetition wall times of already-warm sweeps (seconds), one
    list per workspace.

    The workspaces take turns within each repetition: a warm sweep is
    well under a millisecond, and a shared host's speed can change by
    more than the bound within seconds, so timing one workspace's
    repetitions after another's compares host phases, not tracing.
    """
    times: list[list[float]] = [[] for _ in workspaces]
    for _ in range(repeats):
        for workspace, series in zip(workspaces, times):
            start = time.perf_counter()
            workspace.sweep(spec)
            series.append(time.perf_counter() - start)
    return times


def _measure(scratch: Path, config: ReportConfig) -> dict:
    spec = ExperimentSpec.from_dict(SWEEP_SPEC)
    repeats = _repeats(config)
    points = 2  # one stack on one cluster across two systems

    untraced = Workspace(scratch / "untraced")
    traced = Workspace(scratch / "traced", trace=True)
    file_traced = Workspace(
        scratch / "file-traced", trace=scratch / "trace.jsonl"
    )
    for workspace in (untraced, traced, file_traced):
        workspace.sweep(spec)  # cold pass: L1 fills

    # Only the timed (fully warm) repetitions should be judged against
    # the span contract, so drop the cold pass's spans first.
    traced.tracer.clear()

    untraced_s, traced_s, file_traced_s = _timed_sweeps(
        (untraced, traced, file_traced), spec, repeats
    )

    records = traced.tracer.spans()
    plan_spans = check_plan_outcomes(records)
    warm_hits = sum(1 for r in records if r.name == "l1_hit")
    sweep_spans = sum(1 for r in records if r.name == "sweep")

    best = min(untraced_s)
    overhead = min(traced_s) / best if best > 0 else float("inf")
    file_overhead = min(file_traced_s) / best if best > 0 else float("inf")
    return {
        "repeats": repeats,
        "points_per_sweep": points,
        "untraced_ms": 1e3 * best,
        "untraced_median_ms": 1e3 * statistics.median(untraced_s),
        "traced_ms": 1e3 * min(traced_s),
        "traced_median_ms": 1e3 * statistics.median(traced_s),
        "file_traced_ms": 1e3 * min(file_traced_s),
        "overhead": overhead,
        "file_overhead": file_overhead,
        "plan_spans": plan_spans,
        "l1_hits": warm_hits,
        "sweep_spans": sweep_spans,
        "spans_per_sweep": len(records) / repeats if repeats else 0.0,
        "dropped_spans": traced.tracer.dropped,
    }


def produce(workspace, config: ReportConfig) -> ArtifactResult:
    """Measure tracing overhead and build the JSON baseline.

    Timing-dependent (registered non-deterministic); smoke runs omit
    the committed ``BENCH_obs.json`` so CI never rewrites the full-size
    baseline with scaled-down numbers.
    """
    with tempfile.TemporaryDirectory(prefix="repro-perf-obs-") as tmp:
        measured = _measure(Path(tmp), config)

    payload = {
        "series": {
            key: round(value, 4) if isinstance(value, float) else value
            for key, value in measured.items()
        },
        "max_overhead": MAX_OVERHEAD,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    summary = (
        f"tracing overhead: warm sweep {measured['untraced_ms']:.3f} ms "
        f"untraced vs {measured['traced_ms']:.3f} ms buffer-traced "
        f"({measured['overhead']:.3f}x, bound {MAX_OVERHEAD}x), "
        f"{measured['file_traced_ms']:.3f} ms file-traced "
        f"({measured['file_overhead']:.2f}x); "
        f"{measured['plan_spans']} plan spans all resolved l1_hit "
        f"({measured['spans_per_sweep']:.0f} spans/sweep, "
        f"{measured['dropped_spans']} dropped)"
    )
    outputs = {"perf_obs.txt": summary + "\n"}
    if not config.smoke:
        outputs["BENCH_obs.json"] = json.dumps(payload, indent=2) + "\n"
    return ArtifactResult(
        artifact="perf-obs",
        outputs=outputs,
        data=measured,
    )


def test_tracing_overhead(workspace, report_config, emit_result, benchmark):
    result = benchmark.pedantic(
        produce, args=(workspace, report_config), rounds=1, iterations=1
    )
    emit_result(result)

    measured = result.data
    assert measured["overhead"] <= MAX_OVERHEAD, (
        f"buffer-traced warm sweep costs {measured['overhead']:.3f}x the "
        f"untraced one (bound {MAX_OVERHEAD}x)"
    )
    # The span contract of a fully warm sweep: every repetition emits
    # one sweep span, one point+plan pair per point, and every plan
    # resolves through exactly one l1_hit.
    assert measured["sweep_spans"] == measured["repeats"]
    expected_plans = measured["repeats"] * measured["points_per_sweep"]
    assert measured["plan_spans"] == expected_plans
    assert measured["l1_hits"] == expected_plans
    assert measured["dropped_spans"] == 0
