"""Exact per-tier counters for the tiered plan/profile cache.

Follows the library's counters-not-logs convention
(:class:`~repro.planner.store.StoreStats`,
:class:`~repro.serve.stats.ServiceStats`): every number is exact, so
tests assert "the warm process answered every plan fetch from the
shared tier" instead of eyeballing hit rates.

One :class:`TierStats` describes one tier (L1 memory, L2 disk, L3
remote); a :class:`CacheStats` bundles the plan-cache tiers plus the
profile store's remote-tier traffic.  Both subtract for the report
runner's ``since`` windowing -- counters as deltas, gauges (``entries``,
``bytes``) carried from the newer snapshot, since occupancy is a level,
not a rate (declared once below; see :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import Stats, gauge, nested


@dataclass(frozen=True)
class TierStats(Stats):
    """Snapshot of one cache tier's counters.

    Attributes:
        hits: lookups answered by this tier.
        misses: lookups that fell through to the next tier (or to a
            compile).
        fills: entries written into this tier from a *lower* tier's hit
            (read-through fill propagating back up).
        writes: entries written into this tier from a fresh computation
            (write-through on a cache miss).
        evictions: entries dropped to stay within the tier's bounds.
        errors: lookups or writes that failed operationally (socket
            errors, undecodable remote documents); always degrade to a
            miss, never to a wrong answer.
        entries: current entry count (gauge, not a counter).
        bytes: current approximate occupancy in bytes (gauge).
    """

    hits: int = 0
    misses: int = 0
    fills: int = 0
    writes: int = 0
    evictions: int = 0
    errors: int = 0
    entries: int = gauge()
    bytes: int = gauge()

    @property
    def lookups(self) -> int:
        """All lookups this tier saw (``hits + misses``)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered here (1.0 when never asked)."""
        if self.lookups == 0:
            return 1.0
        return self.hits / self.lookups


@dataclass(frozen=True)
class CacheStats(Stats):
    """Per-tier counters of one workspace's tiered cache.

    Attributes:
        l1: the in-memory plan LRU (per process).
        l2: the on-disk plan cache (``plans/<digest>.json``).
        l3: the shared remote plan tier (zeroes when not configured).
        profiles_remote: the profile store's traffic against the same
            remote tier, counted separately so plan-tier hit rates stay
            directly assertable.
    """

    l1: TierStats = nested(TierStats())
    l2: TierStats = nested(TierStats())
    l3: TierStats = nested(TierStats())
    profiles_remote: TierStats = nested(TierStats())
