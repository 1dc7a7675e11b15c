"""Run the artifact manifest through one Workspace, with exact counters.

:func:`run_report` resolves each selected :class:`Artifact`'s producer,
calls it against a single shared :class:`~repro.api.workspace.Workspace`
(so profiling deduplicates and every plan lands in the session caches),
and wraps each result with its wall time and the windowed workspace
counters -- "table 5 fitted 14 profiles and compiled 216 plans" is
recorded, not guessed.  :func:`write_outputs` persists the collected
files under a results directory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from ..api.workspace import Workspace, WorkspaceStats
from ..errors import ConfigError
from .manifest import (
    Artifact,
    ArtifactResult,
    ReportConfig,
    select_artifacts,
)


@dataclass(frozen=True)
class ArtifactRun:
    """One artifact's execution record inside a report run.

    Attributes:
        artifact: the manifest entry that ran.
        result: the producer's output files and assertion data.
        wall_s: producer wall time in seconds.
        stats: workspace counters windowed to this artifact
            (profiles fitted, plans compiled, degree solves, ...).
    """

    artifact: Artifact
    result: ArtifactResult
    wall_s: float
    stats: WorkspaceStats


@dataclass(frozen=True)
class ReportRun:
    """Everything one ``repro report`` invocation computed.

    Attributes:
        config: the shared producer configuration.
        runs: per-artifact records, in execution order.
        wall_s: total wall time across all producers.
        stats: workspace counters windowed to the whole run.
    """

    config: ReportConfig
    runs: tuple[ArtifactRun, ...]
    wall_s: float
    stats: WorkspaceStats

    def outputs(self) -> dict[str, str]:
        """All produced files across the run, by filename.

        Filenames are unique by construction: :func:`run_report`
        refuses to build a run in which two artifacts produce the same
        file.
        """
        return {
            filename: text
            for run in self.runs
            for filename, text in run.result.outputs.items()
        }


def _validate(artifact: Artifact, result: ArtifactResult) -> None:
    """Producer output must match the manifest's declared files.

    A non-deterministic artifact may omit declared files (the perf
    benchmarks skip their committed JSON baselines in smoke mode), but
    nothing may produce a file the manifest does not declare -- an
    undeclared file would silently escape ``--check``.
    """
    declared = set(artifact.outputs)
    produced = set(result.outputs)
    extra = produced - declared
    if extra:
        raise ConfigError(
            f"artifact {artifact.name!r} produced undeclared file(s) "
            f"{sorted(extra)}; declared outputs are "
            f"{sorted(declared)}"
        )
    missing = declared - produced
    if missing and artifact.deterministic:
        raise ConfigError(
            f"artifact {artifact.name!r} did not produce declared "
            f"file(s) {sorted(missing)}"
        )


def _run_one(
    artifact: Artifact,
    producer: Callable,
    workspace: Workspace,
    config: ReportConfig,
) -> ArtifactRun:
    """Execute one producer and window the workspace counters around it.

    Artifacts run one at a time, so each counter window is exactly the
    work this producer did.

    When the workspace traces, the producer runs inside an ``artifact``
    span (a child of the run's ``report`` span) and the recorded wall
    time *is* that span's duration -- the timing lines in ``REPORT.md``
    then come from the tracer.
    """
    tracer = workspace.tracer
    span = (
        tracer.start("artifact", {"name": artifact.name})
        if tracer is not None
        else None
    )
    before = workspace.stats
    start = time.perf_counter()
    try:
        result = producer(workspace, config)
    finally:
        stats = workspace.stats.since(before)
        if span is not None:
            record = span.set(
                profiles_fitted=stats.profiles.misses,
                plans_compiled=stats.plan_misses,
            ).end()
            wall_s = record.duration_us / 1e6
        else:
            wall_s = time.perf_counter() - start
    if not isinstance(result, ArtifactResult):
        raise ConfigError(
            f"artifact {artifact.name!r}: producer returned "
            f"{type(result).__name__}, expected ArtifactResult"
        )
    _validate(artifact, result)
    return ArtifactRun(
        artifact=artifact, result=result, wall_s=wall_s, stats=stats
    )


def run_report(
    workspace: Workspace,
    config: ReportConfig | None = None,
    *,
    only: str | Iterable[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> ReportRun:
    """Produce the selected artifacts through one workspace session.

    Producers run in selection order on the calling thread.

    Args:
        workspace: the shared session; all profiling and planning runs
            through its caches.
        config: producer knobs; defaults to the environment-derived
            :meth:`ReportConfig.from_env`.
        only: optional manifest subset (``"fig7,table5"`` or a list of
            names); None runs everything.
        progress: optional callback receiving one line per artifact as
            it completes (the CLI prints these).

    Raises:
        RegistryError: for an unknown ``--only`` name.
        ConfigError: for an unresolvable producer or an output-manifest
            mismatch.
    """
    if config is None:
        config = ReportConfig.from_env()
    artifacts = select_artifacts(only)
    # Resolve every producer up front: import errors surface before any
    # artifact runs.
    producers = [artifact.resolve_producer() for artifact in artifacts]
    run_before = workspace.stats
    run_start = time.perf_counter()
    tracer = workspace.tracer
    report_span = (
        tracer.start("report", {"artifacts": len(artifacts)})
        if tracer is not None
        else None
    )
    runs: list[ArtifactRun] = []
    try:
        for artifact, producer in zip(artifacts, producers):
            runs.append(_run_one(artifact, producer, workspace, config))
            _emit_progress(progress, runs[-1])
    finally:
        if report_span is not None:
            report_span.end()

    # Refuse filename collisions: two artifacts producing one file would
    # silently last-write-win in write_outputs and make --check compare
    # two producers against one committed file.
    owner: dict[str, str] = {}
    for record in runs:
        for filename in record.result.outputs:
            if filename in owner:
                raise ConfigError(
                    f"artifacts {owner[filename]!r} and "
                    f"{record.artifact.name!r} both produce {filename!r}"
                )
            owner[filename] = record.artifact.name
    return ReportRun(
        config=config,
        runs=tuple(runs),
        wall_s=time.perf_counter() - run_start,
        stats=workspace.stats.since(run_before),
    )


def _emit_progress(
    progress: Callable[[str], None] | None, record: ArtifactRun
) -> None:
    if progress is None:
        return
    progress(
        f"{record.artifact.name}: {len(record.result.outputs)} file(s) in "
        f"{record.wall_s:.1f} s ({record.stats.profiles.misses} profiles "
        f"fitted, {record.stats.plan_misses} plans compiled)"
    )


def write_outputs(run: ReportRun, results_dir: str | Path) -> list[Path]:
    """Write every produced file under ``results_dir``.

    Returns:
        The written paths, in run order.
    """
    results_dir = Path(results_dir).expanduser()
    results_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for run_record in run.runs:
        for filename, text in run_record.result.outputs.items():
            path = results_dir / filename
            path.write_text(text)
            written.append(path)
    return written


def default_results_dir() -> Path | None:
    """The repository's ``benchmarks/results`` directory, if locatable.

    The default artifacts' producers live in the ``benchmarks``
    package; when it is importable, its ``results/`` sibling is where
    the committed artifact files live.  Returns None otherwise (the CLI
    then requires ``--results-dir``).
    """
    try:
        import benchmarks
    except ImportError:
        return None
    package_file = getattr(benchmarks, "__file__", None)
    if package_file is None:  # pragma: no cover - namespace package
        return None
    return Path(package_file).parent / "results"
