"""Tiered content-addressed cache: in-memory LRU -> disk -> remote.

The workspace answers every plan/profile lookup through a tier stack:

* **L1** -- :class:`LRUCache`, per-process, bounded by entries and
  approximate bytes, lock-free reads (:mod:`repro.cache.lru`).
* **L2** -- the workspace's on-disk layout: one content-addressed file
  per plan (``plans/<digest>.json``, compiled under the per-digest
  ``FileLock`` single-flight of :mod:`repro.api.workspace`) and per
  profile (``profiles/<digest>.json``, written once, lock-free).
* **L3** -- optionally, a shared :class:`CacheServer` reached through
  :class:`RemoteTier`, so a fleet of processes warms each other
  (:mod:`repro.cache.remote`, on the JSON-lines kernel of
  :mod:`repro.rpc`).

Misses fall through tier by tier; hits fill back up (read-through);
fresh computations write through.  Every movement is counted exactly by
:class:`TierStats`/:class:`CacheStats` (:mod:`repro.cache.stats`).

This package is deliberately standalone (stdlib plus :mod:`repro.rpc`
and :mod:`repro.obs`, no imports from ``repro.api`` or ``repro.serve``)
so the workspace layer can build on it without an import cycle.
"""

from ..rpc import parse_address
from .lru import DEFAULT_MAX_BYTES, DEFAULT_MAX_ENTRIES, LRUCache
from .remote import CACHE_SCHEMA_VERSION, CacheServer, RemoteTier
from .stats import CacheStats, TierStats

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_ENTRIES",
    "CacheServer",
    "CacheStats",
    "LRUCache",
    "RemoteTier",
    "TierStats",
    "parse_address",
]
