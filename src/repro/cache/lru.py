"""A bounded in-memory LRU: the L1 tier of the tiered cache.

Bounded by entry count *and* approximate bytes (callers pass each
value's serialized size, so "approximate" means "the JSON text length",
not a deep ``sys.getsizeof`` walk).  The hot path is a read that hits:
it probes a plain dict with no lock -- atomic under the GIL -- and only
then takes the mutex for the recency stamp and the exact hit counter.
The mutex never covers I/O, computation or allocation of values, so
concurrent readers never serialize behind a fill of some other key.

Counters are exact (:class:`~repro.cache.stats.TierStats` hits, misses,
evictions) and the ``entries``/``bytes`` gauges are maintained
incrementally on every mutation, so snapshotting the cache is O(1) --
cheap enough to call per request (no scan, ever).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Iterable

from ..errors import ConfigError
from .stats import TierStats

#: default entry bound of a workspace's in-memory plan tier.
DEFAULT_MAX_ENTRIES = 1024

#: default approximate byte bound of a workspace's in-memory plan tier.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


class LRUCache:
    """A thread-safe LRU bounded by entries and approximate bytes.

    Args:
        max_entries: entry-count bound; must be >= 1.
        max_bytes: approximate byte bound over the sizes callers pass
            to :meth:`put`; None means unbounded bytes.

    Raises:
        ConfigError: for non-positive bounds.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_entries < 1:
            raise ConfigError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ConfigError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # key -> (value, size); OrderedDict order IS the recency order
        # (oldest first).  Plain-dict probes without the lock are safe:
        # CPython dict reads are atomic, and move_to_end happens under
        # the mutex.
        self._entries: "OrderedDict[Hashable, tuple[object, int]]" = (
            OrderedDict()
        )
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes(self) -> int:
        """Current approximate occupancy (sum of the sizes passed in)."""
        return self._bytes

    def get(
        self, key: Hashable, *, count_miss: bool = True
    ) -> object | None:
        """The cached value, or None; counts exactly one hit or miss.

        With ``count_miss=False`` a miss counts nothing: the caller
        probes again (counted) on its fall-through path.
        """
        entry = self._entries.get(key)  # lock-free probe
        if entry is None and not count_miss:
            return None
        with self._lock:
            if entry is None:
                # Re-probe under the lock: the entry may have landed (or
                # been evicted) between the probe and here; the counter
                # must describe what we actually return.
                entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            try:
                self._entries.move_to_end(key)
            except KeyError:  # pragma: no cover - racing eviction
                self._misses += count_miss
                return None
            self._hits += 1
            return entry[0]

    def put(self, key: Hashable, value: object, *, size: int = 0) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries to fit.

        Args:
            key: the content address.
            value: the cached object (stored as-is, never copied).
            size: the value's approximate serialized size in bytes --
                what the byte bound meters.
        """
        size = max(0, int(size))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, size)
            self._bytes += size
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None
                and self._bytes > self.max_bytes
                and len(self._entries) > 1
            ):
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self._evictions += 1

    def delete(self, key: Hashable) -> bool:
        """Drop one entry (no eviction counted); True when it existed."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry[1]
            return True

    def clear(self, *, reset_stats: bool = False) -> None:
        """Drop every entry; optionally zero the counters too."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            if reset_stats:
                self._hits = self._misses = self._evictions = 0

    def keys(self) -> Iterable[Hashable]:
        """Current keys, oldest (least recently used) first."""
        with self._lock:
            return list(self._entries)

    @property
    def stats(self) -> TierStats:
        """Exact counters plus the O(1) occupancy gauges."""
        with self._lock:
            return TierStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                bytes=self._bytes,
            )
