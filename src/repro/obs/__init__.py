"""Unified telemetry layer: trace spans, the stats schema, exporters.

Stdlib-only (imports nothing from the rest of the library beyond the
error hierarchy), so every other layer -- planner, cache tiers,
serving, report runner -- can emit into it without import cycles:

* :mod:`repro.obs.trace` -- :class:`Tracer`/:class:`Span` structured
  tracing with contextvar nesting, a deterministic JSON-lines file
  format, and span-tree rendering/canonicalization;
* :mod:`repro.obs.metrics` -- the stats schema every typed stats
  dataclass declares its counters, gauges and histograms in (windowing
  and the ``repro.*`` exposition rows of :func:`stats_samples` derive
  from it), plus the exact bucketed :class:`Histogram`;
* :mod:`repro.obs.export` -- Prometheus-style text exposition and a
  lossless JSON dump (plus their parsers, for wire-format tests).

Tracing is off by default and zero-cost when off: hot paths hold a
``Tracer | None`` and guard with one ``if tracer is not None``; layers
without a tracer handle use :func:`maybe_span`, a single contextvar
read when no span is active.
"""

from .export import (
    parse_prometheus,
    prometheus_name,
    render_json,
    render_prometheus,
    samples_from_json,
)
from .metrics import (
    DEFAULT_LATENCY_BOUNDS_MS,
    EMPTY_LATENCY,
    LATENCY_GROWTH,
    CounterCell,
    Histogram,
    HistogramSnapshot,
    MetricSample,
    Stats,
    empty_snapshot,
    exponential_bounds,
    stats_samples,
)
from .trace import (
    DEFAULT_MAX_SPANS,
    Span,
    SpanNode,
    SpanRecord,
    Tracer,
    build_tree,
    canonical_tree,
    current_span,
    maybe_span,
    read_trace,
    render_tree,
)

__all__ = [
    "DEFAULT_LATENCY_BOUNDS_MS",
    "DEFAULT_MAX_SPANS",
    "EMPTY_LATENCY",
    "LATENCY_GROWTH",
    "CounterCell",
    "Histogram",
    "HistogramSnapshot",
    "MetricSample",
    "Span",
    "SpanNode",
    "SpanRecord",
    "Stats",
    "Tracer",
    "build_tree",
    "canonical_tree",
    "current_span",
    "empty_snapshot",
    "exponential_bounds",
    "maybe_span",
    "parse_prometheus",
    "prometheus_name",
    "read_trace",
    "render_json",
    "render_prometheus",
    "render_tree",
    "samples_from_json",
    "stats_samples",
]
