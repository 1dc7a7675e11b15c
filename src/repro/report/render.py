"""Render a :class:`~repro.report.runner.ReportRun` into ``REPORT.md``.

The report is a single Markdown document: a summary table over all
artifacts, then one section per artifact with every output file inline
(fenced), its paper reference and the exact cache/solver counters the
run observed.  Rendering is a pure function of the run: the same run
renders to the same bytes, and with ``include_timings=False`` two
equally-cold runs of the same configuration render byte-identically
(wall-clock columns are the only non-deterministic content).
"""

from __future__ import annotations

import re

from ..api.workspace import WorkspaceStats
from ..bench.reporting import format_markdown_table
from .runner import ArtifactRun, ReportRun


def _fence_for(text: str) -> str:
    """A backtick fence strictly longer than any run inside ``text``.

    Inlined artifact files may themselves contain backtick runs (a
    third-party artifact could emit Markdown); a fixed three-backtick
    fence would terminate early and corrupt the rest of the report.
    """
    longest = max((len(run) for run in re.findall(r"`+", text)), default=0)
    return "`" * max(3, longest + 1)


def _counters_line(stats: WorkspaceStats) -> str:
    """One-sentence cache/solver summary for an artifact window."""
    profiles = stats.profiles
    solver = stats.solver
    cache = stats.cache
    return (
        f"Counters: {profiles.misses} profiles fitted "
        f"({profiles.hits} cache hits), {stats.plan_misses} "
        f"plans compiled ({stats.plan_hits} cache hits; tiers "
        f"L1 {cache.l1.hits}/L2 {cache.l2.hits}/L3 "
        f"{cache.l3.hits}), "
        f"{solver.solves} degree solves in "
        f"{solver.batch_calls} batched calls, "
        f"{solver.step2_candidates} Step-2 candidates in "
        f"{solver.step2_objective_calls} objective calls."
    )


def _summary_rows(
    run: ReportRun, *, include_timings: bool
) -> tuple[list[str], list[list[object]]]:
    headers = [
        "artifact", "paper ref", "files", "profiles fitted",
        "plans compiled", "degree solves",
    ]
    if include_timings:
        headers.append("wall (s)")
    rows: list[list[object]] = []
    for record in run.runs:
        row: list[object] = [
            f"[`{record.artifact.name}`](#{record.artifact.name})",
            record.artifact.paper_ref,
            len(record.result.outputs),
            record.stats.profiles.misses,
            record.stats.plan_misses,
            record.stats.solver.solves,
        ]
        if include_timings:
            row.append(f"{record.wall_s:.1f}")
        rows.append(row)
    return headers, rows


def _artifact_section(
    record: ArtifactRun, *, include_timings: bool
) -> str:
    artifact = record.artifact
    lines = [
        f'<a id="{artifact.name}"></a>',
        f"## `{artifact.name}` — {artifact.title}",
        "",
        f"Reproduces: **{artifact.paper_ref}**."
        + (
            ""
            if artifact.deterministic
            else "  *Contains wall-clock measurements; excluded from "
            "`repro report --check`.*"
        ),
        "",
    ]
    for filename in sorted(record.result.outputs):
        text = record.result.outputs[filename]
        fence = _fence_for(text)
        language = "json" if filename.endswith(".json") else "text"
        lines.append(f"### `{filename}`")
        lines.append("")
        lines.append(fence + language)
        lines.append(text.rstrip("\n"))
        lines.append(fence)
        lines.append("")
    lines.append(_counters_line(record.stats))
    if include_timings:
        lines.append(f"Wall time: {record.wall_s:.2f} s.")
    return "\n".join(lines)


def render_report(run: ReportRun, *, include_timings: bool = True) -> str:
    """The full ``REPORT.md`` document for one report run.

    Args:
        run: the executed manifest.
        include_timings: include per-artifact and total wall-clock
            columns.  Disable for byte-stable output (the determinism
            tests and any diff-based tooling).
    """
    config = run.config
    mode = "full paper-sized grids" if config.full else "subsampled grids"
    headers, rows = _summary_rows(run, include_timings=include_timings)
    lines = [
        "# FSMoE reproduction report",
        "",
        "Regenerated by `python -m repro report` — every figure and "
        "table below was produced in this run, through one `Workspace` "
        "session, by the same code path the benchmark suite uses.  "
        "`repro report --check` re-runs the deterministic artifacts "
        "and fails on any byte drift against the committed files in "
        "`benchmarks/results/`.",
        "",
        f"Configuration: {mode}, FSMoE Step-2 solver "
        f"`{config.step2_solver}`.",
        "",
        "## Summary",
        "",
        format_markdown_table(headers, rows),
        "",
        _counters_line(run.stats).replace("Counters:", "Whole run:"),
    ]
    if include_timings:
        lines.append(f"Total wall time: {run.wall_s:.1f} s.")
    lines.append("")
    for record in run.runs:
        lines.append(
            _artifact_section(record, include_timings=include_timings)
        )
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"
