"""Exporters: Prometheus-style text exposition and a JSON dump.

Both render a sequence of :class:`~repro.obs.metrics.MetricSample`
rows -- :func:`~repro.obs.metrics.stats_samples` of any typed stats
snapshot, cumulative or windowed, or rows reassembled from a JSON
dump -- so every source exports the same way.

The exposition format is the Prometheus text format restricted to what
this library emits: dotted metric names become underscore-separated
metric names, every metric gets ``# HELP``/``# TYPE`` lines, and
histograms expand into cumulative ``_bucket{le="..."}`` series plus
``_sum`` and ``_count``.  :func:`parse_prometheus` reads that subset
back -- it exists so tests (and the CI obs smoke) can assert the wire
format round-trips exactly, not as a general Prometheus parser.
"""

from __future__ import annotations

import json
from typing import Sequence

from ..errors import ConfigError
from .metrics import HistogramSnapshot, MetricSample


def prometheus_name(name: str) -> str:
    """Dotted metric name -> exposition name (dots become underscores)."""
    return name.replace(".", "_").replace("-", "_")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(value)


def render_prometheus(samples: Sequence[MetricSample]) -> str:
    """Render samples as Prometheus text exposition.

    Counters/gauges become single series; histograms expand into
    cumulative ``_bucket`` series (one per bound, plus ``+Inf``),
    ``_sum`` and ``_count``.  Output order follows the rows, so a stats
    snapshot renders deterministically.
    """
    lines: list[str] = []
    for sample in samples:
        name = prometheus_name(sample.name)
        if sample.help:
            lines.append(f"# HELP {name} {sample.help}")
        lines.append(f"# TYPE {name} {sample.kind}")
        if isinstance(sample.value, HistogramSnapshot):
            snap = sample.value
            cumulative = 0
            for bound, count in zip(snap.bounds, snap.counts):
                cumulative += count
                lines.append(
                    f'{name}_bucket{{le="{_format_value(bound)}"}} '
                    f"{cumulative}"
                )
            cumulative += snap.counts[-1]
            lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{name}_sum {_format_value(snap.sum)}")
            lines.append(f"{name}_count {snap.count}")
        else:
            lines.append(f"{name} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n"


def render_json(samples: Sequence[MetricSample]) -> str:
    """Render samples as a deterministic JSON document.

    Histograms keep their exact bucket state (bounds/counts/sum/count)
    so the dump is lossless: :func:`samples_from_json` reads it back.
    """
    rows = []
    for sample in samples:
        if isinstance(sample.value, HistogramSnapshot):
            value: object = {
                "bounds": list(sample.value.bounds),
                "counts": list(sample.value.counts),
                "sum": sample.value.sum,
                "count": sample.value.count,
            }
        else:
            value = sample.value
        rows.append(
            {
                "name": sample.name,
                "kind": sample.kind,
                "value": value,
                "help": sample.help,
            }
        )
    return json.dumps({"metrics": rows}, indent=2, sort_keys=True) + "\n"


def samples_from_json(text: str) -> tuple[MetricSample, ...]:
    """Parse a :func:`render_json` document back into samples.

    Raises:
        ConfigError: for malformed documents.
    """
    try:
        doc = json.loads(text)
        rows = doc["metrics"]
        samples = []
        for row in rows:
            value = row["value"]
            if row["kind"] == "histogram":
                value = HistogramSnapshot(
                    bounds=tuple(value["bounds"]),
                    counts=tuple(value["counts"]),
                    sum=value["sum"],
                    count=value["count"],
                )
            samples.append(
                MetricSample(
                    name=row["name"],
                    kind=row["kind"],
                    value=value,
                    help=row.get("help", ""),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed metrics JSON: {exc}") from exc
    return tuple(samples)


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse the exposition subset back into ``{series: value}``.

    Bucket series keep their label (``name_bucket{le="0.5"}``); the
    returned mapping holds every sample line verbatim, which is what
    exactness tests compare against typed stats fields.

    Raises:
        ConfigError: for lines that are neither comments nor samples.
    """
    out: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            series, value = line.rsplit(" ", 1)
            out[series] = float(value)
        except ValueError as exc:
            raise ConfigError(
                f"malformed exposition line {lineno}: {line!r}"
            ) from exc
    return out
