"""Exact serving counters and latency percentiles for one PlanService.

Follows the library's counters-not-logs convention
(:class:`~repro.planner.store.StoreStats`,
:class:`~repro.core.context.SolverStats`): every number is exact, so
tests assert "this burst coalesced into one batch and deduplicated 199
of 200 requests" instead of eyeballing throughput.

Latency percentiles come from an exact bucketed
:class:`~repro.obs.metrics.Histogram` over fixed exponential bounds
(submission to resolution, wall clock): unlike the bounded sampling
reservoir it replaced, the histogram never discards an observation, its
snapshots merge exactly across services, and its quantiles are
deterministic functions of the buckets (the nearest-rank bucket upper
bound -- within one bucket's ~19% growth factor of the true sample
percentile).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..obs.metrics import (
    GAUGE,
    Histogram,
    HistogramSnapshot,
    Stats,
    gauge,
    histogram,
)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``samples``.

    The reference implementation the bucketed histogram's
    :meth:`~repro.obs.metrics.HistogramSnapshot.quantile` is pinned
    against in tests (same rank convention; the histogram reports the
    bucket upper bound at that rank).  Returns 0.0 for an empty sample
    set -- serving stats are read continuously, including before the
    first request resolves.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


@dataclass(frozen=True)
class ServiceStats(Stats):
    """Snapshot of one :class:`~repro.serve.PlanService`'s counters.

    Attributes:
        requests: submissions accepted into the queue.
        completed: requests resolved with a plan.
        failed: requests resolved with an exception.
        rejected: submissions refused (queue full or service closed).
        dedup_hits: requests answered by another request's computation
            (coalesced within a batch, or answered from the workspace's
            L1 tier at submit).  ``dedup_hits + resolved == completed``
            always.
        resolved: distinct plan resolutions performed (one
            ``Workspace.plan`` call each).
        batches: coalescer flushes that processed at least one request.
        max_batch: most requests drained in one flush.
        coalesced_requests: total requests across all batches (mean
            batch size is ``coalesced_requests / batches``).
        latency: the full exact latency histogram (every resolution's
            submission-to-resolution milliseconds, bucketed; exported
            as ``repro.serve.latency_ms``).

    A window (``later - earlier``) differences every counter and the
    histogram, so its percentiles describe only the resolutions inside
    it; ``max_batch`` is the later snapshot's high-water mark.  The
    invariants ``dedup_hits + resolved == completed`` and "every
    counter non-negative" hold for any pair of snapshots of one service
    taken in order, however concurrent the load between them.
    """

    derived = (("p50_latency_ms", GAUGE), ("p95_latency_ms", GAUGE))

    requests: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    dedup_hits: int = 0
    resolved: int = 0
    batches: int = 0
    max_batch: int = gauge()
    coalesced_requests: int = 0
    latency: HistogramSnapshot = histogram(
        "latency_ms", help="submission-to-resolution latency (ms)"
    )

    @property
    def p50_latency_ms(self) -> float:
        """Median submission-to-resolution latency, from the buckets."""
        return self.latency.quantile(50.0)

    @property
    def p95_latency_ms(self) -> float:
        """95th-percentile latency from the same buckets."""
        return self.latency.quantile(95.0)

    @property
    def dedup_rate(self) -> float:
        """Fraction of completed requests that shared another's work."""
        if self.completed == 0:
            return 0.0
        return self.dedup_hits / self.completed

    @property
    def mean_batch(self) -> float:
        """Average coalesced batch size."""
        if self.batches == 0:
            return 0.0
        return self.coalesced_requests / self.batches


class StatsAccumulator:
    """Thread-safe mutable counters behind :class:`ServiceStats`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._dedup_hits = 0
        self._resolved = 0
        self._batches = 0
        self._max_batch = 0
        self._coalesced = 0
        self._latency = Histogram()

    def request(self) -> None:
        """Count one accepted submission."""
        with self._lock:
            self._requests += 1

    def reject(self) -> None:
        """Count one submission refused at the queue (backlog full)."""
        with self._lock:
            self._rejected += 1

    def batch(self, size: int) -> None:
        """Record one drained coalescer batch of ``size`` requests."""
        with self._lock:
            self._batches += 1
            self._coalesced += size
            self._max_batch = max(self._max_batch, size)

    def resolve(
        self,
        *,
        group_size: int,
        failed: bool,
        latencies_ms: list[float],
        cancelled: int = 0,
    ) -> None:
        """Record one resolved group: 1 computation, ``group_size`` answers.

        ``cancelled`` members (futures the caller cancelled before
        delivery) count as failed, never as completed, so the
        ``dedup_hits + resolved == completed`` invariant holds for the
        delivered remainder.
        """
        delivered = group_size - cancelled
        with self._lock:
            if failed:
                self._failed += group_size
            else:
                self._completed += delivered
                self._failed += cancelled
                if delivered > 0:
                    self._resolved += 1
                    self._dedup_hits += delivered - 1
        for latency_ms in latencies_ms:
            self._latency.observe(latency_ms)

    def resolve_cached(self, latency_ms: float = 0.0) -> None:
        """Record one request answered from the L1 tier at submit.

        The answer reuses an earlier resolution's work, so it counts as
        a dedup hit (``dedup_hits + resolved == completed`` still holds:
        both sides grow by one).
        """
        with self._lock:
            self._completed += 1
            self._dedup_hits += 1
        self._latency.observe(latency_ms)

    def snapshot(self) -> ServiceStats:
        """A consistent :class:`ServiceStats` view of the counters."""
        latency = self._latency.snapshot()
        with self._lock:
            return ServiceStats(
                requests=self._requests,
                completed=self._completed,
                failed=self._failed,
                rejected=self._rejected,
                dedup_hits=self._dedup_hits,
                resolved=self._resolved,
                batches=self._batches,
                max_batch=self._max_batch,
                coalesced_requests=self._coalesced,
                latency=latency,
            )
