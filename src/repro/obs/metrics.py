"""Metrics: the stats schema, and exact mergeable histograms.

The library counts everything exactly, in frozen stats dataclasses
(:class:`~repro.core.context.SolverStats`,
:class:`~repro.planner.store.StoreStats`,
:class:`~repro.cache.stats.TierStats`/:class:`~repro.cache.stats.CacheStats`,
:class:`~repro.serve.stats.ServiceStats`,
:class:`~repro.serve.net.NetStats`/:class:`~repro.serve.net.LaneStats`
and :class:`~repro.api.workspace.WorkspaceStats`).  Each derives
:class:`Stats` and declares once, on its fields, how each one behaves:
a counter (the default), a :func:`gauge`, a :func:`histogram` or
:func:`nested` stats with their metric prefix.  From that one
declaration come the window (``later - earlier``, alias ``since``),
the generic dict (:meth:`Stats.to_dict`) and the exposition rows
(:func:`stats_samples`), so the typed stats and the ``repro.*``
exposition match by construction; :class:`CounterCell` is the mutable
side behind a snapshot.

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

import functools
import threading
from bisect import bisect_left
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import ClassVar, Mapping

from ..errors import ConfigError


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
        name: dotted metric name (``repro.cache.l1.hits``).
        kind: ``"counter"``, ``"gauge"`` or ``"histogram"``.
        value: the scalar level/count, or a
            :class:`HistogramSnapshot` for histograms.
        help: one-line description (rendered into the exposition).
    """

    name: str
    kind: str
    value: float | HistogramSnapshot
    help: str = ""




# -- the stats schema ---------------------------------------------------------
#
# Every exact counter of the library lives in a frozen stats dataclass
# deriving :class:`Stats`; each field declares once how it behaves, and
# windowing (``later - earlier``), the generic dict and the exposition
# rows (:func:`stats_samples`) all follow that declaration.

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"
NESTED = "nested"
LABEL = "label"


def counter(*, help: str = ""):
    """A monotonic count (also the kind of an undeclared field).

    A window subtracts it; it is exported as a counter.
    """
    return field(default=0, metadata={"kind": COUNTER, "help": help})


def gauge(default: float = 0, *, help: str = ""):
    """A level or a high-water mark.

    A window carries it from the later snapshot (a level or a maximum
    cannot be differenced); it is exported as a gauge.
    """
    return field(default=default, metadata={"kind": GAUGE, "help": help})


def histogram(name: str, *, help: str = ""):
    """A :class:`HistogramSnapshot`, exported as ``name``.

    A window subtracts it bucket-wise.
    """
    return field(
        default=EMPTY_LATENCY,
        metadata={"kind": HISTOGRAM, "name": name, "help": help},
    )


def nested(
    default=MISSING, *, prefix: str | None = None, carried: bool = False
):
    """Another stats object, or a tuple of labelled ones.

    Args:
        default: the field default (a stats object, ``()`` or None;
            none makes the field required).
        prefix: the full metric-name prefix of the nested series; None
            nests them under ``<parent prefix><field name>.``.  Items
            of a tuple add ``<label>.`` to it.
        carried: a window carries the later snapshot's object instead
            of subtracting.
    """
    return field(
        default=default,
        metadata={"kind": NESTED, "prefix": prefix, "carried": carried},
    )


def label():
    """The name of one item in a tuple of stats (a lane's name).

    Carried by windows, a key in :meth:`Stats.to_dict` and a segment of
    the metric prefix; never a series of its own.
    """
    return field(metadata={"kind": LABEL})


@functools.cache
def _schema(cls: type) -> tuple[tuple[str, str, Mapping], ...]:
    """``(field name, kind, metadata)`` of each field, in declared order."""
    return tuple(
        (f.name, f.metadata.get("kind", COUNTER), f.metadata)
        for f in fields(cls)
    )


def _label(stats: "Stats") -> str:
    return next(
        getattr(stats, name)
        for name, kind, _ in _schema(type(stats))
        if kind == LABEL
    )


class Stats:
    """Base of the frozen stats dataclasses: one generic window.

    Attributes:
        derived: ``(property, kind)`` pairs exported after the fields
            (values computed from the fields, such as a store's total
            ``hits``); a window recomputes them from its own fields.
    """

    derived: ClassVar[tuple[tuple[str, str], ...]] = ()

    def __sub__(self, earlier):
        """The activity between two snapshots (``later - earlier``).

        Counters and histograms are deltas, nested stats recurse (tuple
        items pairwise); gauges, labels and carried nested stats come
        from the later snapshot.  Any counter invariant of one
        consistent snapshot (``dedup_hits + resolved == completed``)
        therefore holds for the window too.
        """
        changes = {}
        for name, kind, meta in _schema(type(self)):
            if kind in (COUNTER, HISTOGRAM) or (
                kind == NESTED and not meta["carried"]
            ):
                later, before = getattr(self, name), getattr(earlier, name)
                changes[name] = (
                    tuple(a - b for a, b in zip(later, before))
                    if isinstance(later, tuple)
                    else later - before
                )
        return replace(self, **changes)

    #: the same window, read as "what happened since ``earlier``".
    since = __sub__

    def to_dict(self) -> dict:
        """Field values by name, nested stats as dicts.

        A tuple of labelled stats becomes a dict keyed by label (the
        label itself is not repeated); histograms stay snapshots.
        """
        body = {}
        for name, kind, _ in _schema(type(self)):
            value = getattr(self, name)
            if kind == LABEL:
                continue
            if isinstance(value, tuple):
                value = {_label(item): item.to_dict() for item in value}
            elif isinstance(value, Stats):
                value = value.to_dict()
            body[name] = value
        return body


def stats_samples(stats: Stats, prefix: str) -> tuple[MetricSample, ...]:
    """One exposition row per declared field of ``stats``, exactly.

    Rows follow the declared field order, each named ``prefix +
    field`` (a histogram by its declared name), then the type's
    ``derived`` rows; nested stats recurse under their own prefix, and
    a nested field that is None (no service bound) exports nothing.

    Args:
        stats: any snapshot -- cumulative or a window.
        prefix: the metric-name prefix, separator included
            (``"repro.workspace."``).
    """
    rows: list[MetricSample] = []
    _collect(stats, prefix, rows)
    return tuple(rows)


def _collect(stats: Stats, prefix: str, rows: list[MetricSample]) -> None:
    for name, kind, meta in _schema(type(stats)):
        value = getattr(stats, name)
        if kind == NESTED:
            inner = meta["prefix"] or f"{prefix}{name}."
            if isinstance(value, tuple):
                for item in value:
                    _collect(item, f"{inner}{_label(item)}.", rows)
            elif value is not None:
                _collect(value, inner, rows)
        elif kind != LABEL:
            rows.append(
                MetricSample(
                    name=prefix + meta.get("name", name),
                    kind=kind,
                    value=value if kind == HISTOGRAM else float(value),
                    help=meta.get("help", ""),
                )
            )
    for name, kind in stats.derived:
        rows.append(
            MetricSample(prefix + name, kind, float(getattr(stats, name)))
        )


class CounterCell:
    """The mutable counter fields of one stats type, under one lock.

    The component passes its own lock, so one lock can guard several
    cells and a snapshot of all of them is consistent (``inc`` takes
    the lock; a reentrant lock lets a caller already holding it count).

    Args:
        stats_type: the :class:`Stats` dataclass whose counter fields
            this cell counts.
        lock: the guarding lock (default: a private one).
    """

    __slots__ = ("_type", "_lock", "_counts")

    def __init__(self, stats_type: type, lock=None) -> None:
        self._type = stats_type
        self._lock = lock if lock is not None else threading.Lock()
        self._counts = {
            name: 0
            for name, kind, _ in _schema(stats_type)
            if kind == COUNTER
        }

    def inc(self, *names: str) -> None:
        """Add one to each named counter, atomically."""
        with self._lock:
            for name in names:
                self._counts[name] += 1

    def counts(self) -> dict[str, int]:
        """A consistent copy of every count."""
        with self._lock:
            return dict(self._counts)

    def snapshot(self, **rest):
        """The stats object of the counts, other fields from ``rest``."""
        return self._type(**self.counts(), **rest)

    def reset(self) -> None:
        """Zero every count."""
        with self._lock:
            self._counts = dict.fromkeys(self._counts, 0)
