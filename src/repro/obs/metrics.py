"""Metrics registry: Counter/Gauge/Histogram in one named namespace.

The library already counts everything exactly -- four separate stats
families (:class:`~repro.core.context.SolverStats`,
:class:`~repro.serve.stats.ServiceStats`,
:class:`~repro.cache.stats.CacheStats`,
:class:`~repro.api.workspace.WorkspaceStats`) with their own field
names and windowing.  This module gives them one export surface: a
:class:`MetricsRegistry` of named instruments under the ``repro.*``
namespace (``repro.solver.solves``, ``repro.cache.l1.hits``,
``repro.serve.requests``, ``repro.workspace.plan_misses``, ...), built
from any :class:`WorkspaceStats` snapshot by
:func:`workspace_metrics` -- every value carried over *exactly*, never
resampled.

:class:`Histogram` replaces the ad-hoc latency percentile reservoirs:
fixed exponential bucket bounds (:func:`exponential_bounds`), so a
snapshot is an exact description of every observation's bucket, two
snapshots from different processes merge losslessly
(:meth:`HistogramSnapshot.merge`), and quantiles are deterministic
functions of the buckets (the bucket upper bound at the nearest rank --
an overestimate by at most one bucket's growth factor, never a sample
of a sample).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping

from ..errors import ConfigError

if TYPE_CHECKING:  # duck-typed at runtime: obs stays import-light
    from ..api.workspace import WorkspaceStats


def exponential_bounds(
    lo: float, hi: float, growth: float
) -> tuple[float, ...]:
    """Fixed exponential bucket upper bounds from ``lo`` up past ``hi``.

    Bounds are ``lo * growth**k`` for ``k = 0, 1, ...`` until ``hi`` is
    covered -- a pure function of its arguments, so every process
    derives the *same* bounds and snapshots merge exactly.

    Raises:
        ConfigError: for non-positive ``lo``/``hi``, ``hi < lo`` or
            ``growth <= 1``.
    """
    if lo <= 0 or hi <= 0 or hi < lo:
        raise ConfigError(
            f"need 0 < lo <= hi, got lo={lo!r} hi={hi!r}"
        )
    if growth <= 1.0:
        raise ConfigError(f"growth must be > 1, got {growth!r}")
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * growth)
    return tuple(bounds)


#: per-bucket growth factor of the default latency bounds (~19% wide
#: buckets: quantiles from them overestimate by < 19%).
LATENCY_GROWTH = 2.0 ** 0.25

#: default bucket bounds for latencies in milliseconds: 1 us to 100 s.
DEFAULT_LATENCY_BOUNDS_MS = exponential_bounds(
    0.001, 100_000.0, LATENCY_GROWTH
)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Exact, mergeable state of one histogram.

    Attributes:
        bounds: the bucket upper bounds (``value <= bounds[i]`` lands
            in bucket ``i``); fixed at construction.
        counts: per-bucket observation counts, one longer than
            ``bounds`` -- the final bucket is the ``+Inf`` overflow.
        sum: exact sum of every observed value.
        count: total observations.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float = 0.0
    count: int = 0

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (``q`` in [0, 100]) from the buckets.

        Uses the same nearest-rank convention the old sampling
        reservoir used, then reports the *upper bound* of the bucket
        holding that rank -- deterministic, and an overestimate of the
        true sample by at most one bucket's growth factor.  Overflow
        observations report the last finite bound.  Returns 0.0 when
        empty (metrics are read continuously, including before the
        first observation).
        """
        if self.count == 0:
            return 0.0
        rank = max(
            0,
            min(self.count - 1, round(q / 100.0 * self.count) - 1),
        )
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if rank < seen:
                return self.bounds[min(index, len(self.bounds) - 1)]
        return self.bounds[-1]  # pragma: no cover - counts sum to count

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Exact union of two snapshots (bucket-wise sum).

        Raises:
            ConfigError: when the bucket bounds differ -- merging
                differently-shaped histograms would silently misbin.
        """
        if self.bounds != other.bounds:
            raise ConfigError(
                "cannot merge histograms with different bucket bounds"
            )
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(
                a + b for a, b in zip(self.counts, other.counts)
            ),
            sum=self.sum + other.sum,
            count=self.count + other.count,
        )

    def __sub__(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Bucket-wise counter delta (``after - before``) for windowing.

        Raises:
            ConfigError: when the bucket bounds differ.
        """
        if self.bounds != other.bounds:
            raise ConfigError(
                "cannot subtract histograms with different bucket bounds"
            )
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(
                a - b for a, b in zip(self.counts, other.counts)
            ),
            sum=self.sum - other.sum,
            count=self.count - other.count,
        )


def empty_snapshot(
    bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_MS,
) -> HistogramSnapshot:
    """A zero-observation snapshot over ``bounds``."""
    return HistogramSnapshot(
        bounds=bounds, counts=(0,) * (len(bounds) + 1)
    )


#: the shared all-zero default-latency snapshot (dataclass default).
EMPTY_LATENCY = empty_snapshot()


class Counter:
    """A monotonically increasing value (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters only go up).

        Raises:
            ConfigError: for a negative increment.
        """
        if amount < 0:
            raise ConfigError(
                f"counters are monotonic; cannot inc by {amount!r}"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        with self._lock:
            return self._value


class Gauge:
    """A value that may go up or down (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the current level."""
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        """Shift the current level by ``amount`` (either sign)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current level."""
        with self._lock:
            return self._value


class Histogram:
    """Bucketed observations over fixed exponential bounds (thread-safe).

    Args:
        bounds: bucket upper bounds, strictly increasing (use
            :func:`exponential_bounds`); defaults to the latency-in-ms
            bounds shared by the serving layer.

    Raises:
        ConfigError: for empty or non-increasing bounds.
    """

    __slots__ = ("bounds", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_MS
    ) -> None:
        bounds = tuple(bounds)
        if not bounds or any(
            b <= a for a, b in zip(bounds, bounds[1:])
        ):
            raise ConfigError(
                "histogram bounds must be non-empty and strictly "
                "increasing"
            )
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> HistogramSnapshot:
        """A consistent frozen view of the buckets."""
        with self._lock:
            return HistogramSnapshot(
                bounds=self.bounds,
                counts=tuple(self._counts),
                sum=self._sum,
                count=self._count,
            )

    def quantile(self, q: float) -> float:
        """Shortcut for ``snapshot().quantile(q)``."""
        return self.snapshot().quantile(q)

    @property
    def count(self) -> int:
        """Total observations so far."""
        with self._lock:
            return self._count


@dataclass(frozen=True)
class MetricSample:
    """One named metric at one instant (what a snapshot yields).

    Attributes:
        name: dotted registry name (``repro.cache.l1.hits``).
        kind: ``"counter"``, ``"gauge"`` or ``"histogram"``.
        value: the scalar level/count, or a
            :class:`HistogramSnapshot` for histograms.
        help: one-line description (rendered into the exposition).
    """

    name: str
    kind: str
    value: float | HistogramSnapshot
    help: str = ""


class MetricsRegistry:
    """A named, ordered collection of metric instruments.

    Instruments are created idempotently by name -- asking twice for
    ``counter("repro.x")`` returns the same :class:`Counter` -- and a
    name registered as one kind cannot be re-registered as another.
    ``snapshot()`` freezes every instrument into
    :class:`MetricSample` rows, in registration order, which the
    exporters (:mod:`repro.obs.export`) render.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> (kind, help, instrument); dict order = registration.
        self._metrics: dict[str, tuple[str, str, object]] = {}

    def _instrument(
        self, name: str, kind: str, help: str, factory
    ) -> object:
        if not name:
            raise ConfigError("metric name must be non-empty")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing[0] != kind:
                    raise ConfigError(
                        f"metric {name!r} is a {existing[0]}, not a "
                        f"{kind}"
                    )
                return existing[2]
            instrument = factory()
            self._metrics[name] = (kind, help, instrument)
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """The named counter, created on first use.

        Raises:
            ConfigError: when ``name`` exists as a different kind.
        """
        return self._instrument(name, "counter", help, Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The named gauge, created on first use.

        Raises:
            ConfigError: when ``name`` exists as a different kind.
        """
        return self._instrument(name, "gauge", help, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_MS,
    ) -> Histogram:
        """The named histogram, created on first use over ``bounds``.

        Raises:
            ConfigError: when ``name`` exists as a different kind.
        """
        return self._instrument(
            name, "histogram", help, lambda: Histogram(bounds)
        )

    def set_histogram(
        self, name: str, snapshot: HistogramSnapshot, help: str = ""
    ) -> None:
        """Load an existing snapshot into the named histogram slot.

        The adapter path: the serving layer already *has* an exact
        snapshot; re-observing its buckets one by one would be both
        slow and lossy for ``sum``.

        Raises:
            ConfigError: when ``name`` exists as a non-histogram.
        """
        histogram = self.histogram(name, help, bounds=snapshot.bounds)
        with histogram._lock:
            histogram._counts = list(snapshot.counts)
            histogram._sum = snapshot.sum
            histogram._count = snapshot.count

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(tuple(self._metrics))

    def snapshot(self) -> tuple[MetricSample, ...]:
        """Freeze every instrument, in registration order."""
        with self._lock:
            rows = tuple(self._metrics.items())
        samples = []
        for name, (kind, help, instrument) in rows:
            if kind == "histogram":
                value: float | HistogramSnapshot = instrument.snapshot()
            else:
                value = instrument.value
            samples.append(
                MetricSample(name=name, kind=kind, value=value, help=help)
            )
        return tuple(samples)


def _fill(
    registry: MetricsRegistry,
    prefix: str,
    counters: Mapping[str, float],
    gauges: Mapping[str, float] = {},
) -> None:
    for field_name, value in counters.items():
        registry.counter(f"{prefix}.{field_name}").inc(value)
    for field_name, value in gauges.items():
        registry.gauge(f"{prefix}.{field_name}").set(value)


def _tier_metrics(registry: MetricsRegistry, prefix: str, tier) -> None:
    _fill(
        registry,
        prefix,
        {
            "hits": tier.hits,
            "misses": tier.misses,
            "fills": tier.fills,
            "writes": tier.writes,
            "evictions": tier.evictions,
            "errors": tier.errors,
        },
        {"entries": tier.entries, "bytes": tier.bytes},
    )


def workspace_metrics(
    stats: "WorkspaceStats",
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Adapt one :class:`WorkspaceStats` snapshot into the namespace.

    Every legacy counter is carried over exactly, under its family's
    prefix:

    * ``repro.workspace.*`` -- plan cache totals and the profile
      store's hit/miss counters;
    * ``repro.cache.{l1,l2,l3,profiles_remote}.*`` -- per-tier counters
      plus the ``entries``/``bytes`` occupancy gauges;
    * ``repro.solver.*`` -- the batched Algorithm-1 and Step-2 solver
      counters of the workspace's solver context;
    * ``repro.serve.*`` -- the bound service's counters and its exact
      latency histogram (only when a service is bound).

    Args:
        stats: any snapshot -- cumulative (``workspace.stats``) or a
            windowed delta (``stats.since(earlier)``).
        registry: registry to fill; None builds a fresh one.

    Returns:
        The filled registry (snapshot/render it via
        :mod:`repro.obs.export`).
    """
    if registry is None:
        registry = MetricsRegistry()
    profiles = stats.profiles
    _fill(
        registry,
        "repro.workspace",
        {
            "plan_hits": stats.plan_hits,
            "plan_misses": stats.plan_misses,
            "profile_hits": profiles.hits,
            "profile_misses": profiles.misses,
            "profile_cluster_hits": profiles.cluster_hits,
            "profile_cluster_misses": profiles.cluster_misses,
            "profile_layer_hits": profiles.layer_hits,
            "profile_layer_misses": profiles.layer_misses,
        },
    )
    cache = stats.cache
    _tier_metrics(registry, "repro.cache.l1", cache.l1)
    _tier_metrics(registry, "repro.cache.l2", cache.l2)
    _tier_metrics(registry, "repro.cache.l3", cache.l3)
    _tier_metrics(
        registry, "repro.cache.profiles_remote", cache.profiles_remote
    )
    solver = stats.solver
    _fill(
        registry,
        "repro.solver",
        {
            "solves": solver.solves,
            "cache_hits": solver.cache_hits,
            "batch_calls": solver.batch_calls,
            "evictions": solver.evictions,
            "step2_objective_calls": solver.step2_objective_calls,
            "step2_candidates": solver.step2_candidates,
        },
        {"max_batch_size": solver.max_batch_size},
    )
    service = stats.service
    if service is not None:
        _fill(
            registry,
            "repro.serve",
            {
                "requests": service.requests,
                "completed": service.completed,
                "failed": service.failed,
                "rejected": service.rejected,
                "dedup_hits": service.dedup_hits,
                "resolved": service.resolved,
                "batches": service.batches,
                "coalesced_requests": service.coalesced_requests,
                "futures_evicted": service.futures_evicted,
            },
            {
                "max_batch": service.max_batch,
                "p50_latency_ms": service.p50_latency_ms,
                "p95_latency_ms": service.p95_latency_ms,
            },
        )
        registry.set_histogram(
            "repro.serve.latency_ms",
            service.latency,
            "submission-to-resolution latency (ms)",
        )
    return registry
