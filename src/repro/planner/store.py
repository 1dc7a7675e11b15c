"""Content-addressed profile cache: the planner's front-end memory.

The paper's front-end profiles a deployment once and reuses the fitted
models for every subsequent scheduling question (§3.2).  The seed
implementation re-ran :func:`~repro.core.profiler.profile_cluster` and
:func:`~repro.models.transformer.profile_layer` from scratch on every
call; :class:`ProfileStore` memoizes both behind content-addressed keys
so repeated planning -- a sweep grid, a re-planned deployment, a second
system on the same stack -- never pays for profiling twice.

Keys are the frozen spec dataclasses themselves (``ClusterSpec``,
``ParallelSpec``, ``MoELayerSpec``, ...), plus every knob that changes
the measurement (gate kind, noise, seed, ...): equal content means equal
key, no serialization involved.

The store is thread-safe and suitable for the concurrent fan-out of
:meth:`~repro.api.workspace.Workspace.sweep`: each key is computed exactly
once even under races (losers block on the winner's
:class:`~concurrent.futures.Future`), so the hit/miss counters are exact
and "re-planning did zero new profiling" is directly assertable.

Beneath the memo sits at most one :class:`LowerTier`, given at
construction: a workspace's disk and shared tiers, which the store asks
before computing and tells about every entry it computes.

The store also owns the session's
:class:`~repro.core.context.SolverContext`: every Algorithm-1 and
Step-2 memo and counter of the plans compiled through it, so solver
state is shared exactly as widely as the profiles are.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Protocol

from ..config import MoELayerSpec, ParallelSpec
from ..core.context import SolverContext
from ..core.perf_model import PerfModelSet
from ..core.profiler import ProfileResult, profile_cluster
from ..models.transformer import LayerProfile, profile_layer
from ..moe.gates import GateKind
from ..obs.metrics import COUNTER, CounterCell, Stats
from ..parallel.collectives import A2AAlgorithm
from ..parallel.topology import ClusterSpec


@dataclass(frozen=True)
class StoreStats(Stats):
    """Snapshot of the store's hit/miss counters.

    Attributes:
        cluster_hits: cluster-profile requests served from cache.
        cluster_misses: cluster profiles actually measured and fitted.
        layer_hits: layer-profile requests served from cache.
        layer_misses: layer profiles actually computed.
    """

    derived = (("hits", COUNTER), ("misses", COUNTER))

    cluster_hits: int = 0
    cluster_misses: int = 0
    layer_hits: int = 0
    layer_misses: int = 0

    @property
    def hits(self) -> int:
        """All requests served from cache."""
        return self.cluster_hits + self.layer_hits

    @property
    def misses(self) -> int:
        """All requests that had to compute."""
        return self.cluster_misses + self.layer_misses


class LowerTier(Protocol):
    """What a :class:`ProfileStore` consults beneath its memo.

    Both calls take the entry's full key (namespace first).  A
    :class:`~repro.api.workspace.Workspace` implements it over its disk
    and shared tiers.
    """

    def fetch(self, full_key: tuple) -> object | None:
        """The stored value, or None; best-effort, never raises."""

    def settle(self, full_key: tuple, value: object) -> None:
        """Take one freshly computed entry, before its waiters wake."""


class ProfileStore:
    """Memoizes cluster and layer profiling behind content-addressed keys.

    One store can back many :class:`~repro.planner.compiler.PlanCompiler`
    instances (one per cluster in a sweep); sharing a store across a
    sweep is what deduplicates the work.

    Args:
        degree_solver: the Algorithm-1 implementation of the store's
            :attr:`solver_context` (``"batch"`` or ``"slsqp"``).
        lower: the tier beneath the memo, set once for the store's
            life (None: memory only).  A value it fetches counts as a
            hit; every value computed here is settled into it.

    Attributes:
        solver_context: the solver memos and counters of every plan
            compiled through this store.
    """

    def __init__(
        self,
        *,
        degree_solver: str = "batch",
        lower: LowerTier | None = None,
    ) -> None:
        self.solver_context = SolverContext(degree_solver)
        self._lower = lower
        self._lock = threading.Lock()
        self._entries: dict[tuple, Future] = {}
        self._counts = CounterCell(StoreStats)

    @property
    def stats(self) -> StoreStats:
        """Current counter snapshot (consistent under concurrency)."""
        return self._counts.snapshot()

    def __len__(self) -> int:
        """Number of cached entries (cluster + layer)."""
        with self._lock:
            return len(self._entries)

    # -- persistence ---------------------------------------------------------

    def preload(self, entries: dict[tuple, object]) -> None:
        """Seed the cache with previously exported entries.

        Preloaded entries do not touch the hit/miss counters: the counters
        keep describing *this session's* requests, so "a warm run fitted
        zero new profiles" stays directly assertable as ``misses == 0``.
        Existing (possibly in-flight) entries are never overwritten.
        """
        with self._lock:
            for key, value in entries.items():
                if key in self._entries:
                    continue
                future: Future = Future()
                future.set_result(value)
                self._entries[key] = future

    def _memoize(self, namespace: str, key: tuple, compute):
        """Return the cached value for ``key``, computing it at most once.

        The winner of a race computes outside the lock while losers block
        on the shared future; a compute that raises is evicted so the next
        request retries instead of caching the exception forever.
        """
        full_key = (namespace,) + key
        with self._lock:
            future = self._entries.get(full_key)
            owner = future is None
            if owner:
                future = self._entries[full_key] = Future()
        if not owner:
            self._counts.inc(namespace + "_hits")
            return future.result()
        lower = self._lower
        try:
            value = lower.fetch(full_key) if lower is not None else None
            # Served by the lower tier: this session computed nothing,
            # so it is a hit -- a warm fleet keeps ``misses == 0``.
            self._counts.inc(
                namespace + ("_misses" if value is None else "_hits")
            )
            if value is None:
                value = compute()
                if lower is not None:
                    lower.settle(full_key, value)
        except BaseException as exc:  # noqa: BLE001 - re-raised
            with self._lock:
                del self._entries[full_key]
            future.set_exception(exc)
        else:
            future.set_result(value)
        return future.result()

    # -- cluster profiles ----------------------------------------------------

    def cluster_profile(
        self,
        cluster: ClusterSpec,
        parallel: ParallelSpec,
        *,
        a2a_algorithm: A2AAlgorithm = A2AAlgorithm.NCCL,
        noise: float = 0.0,
        repeats: int = 5,
        seed: int = 0,
    ) -> ProfileResult:
        """Profile ``cluster`` under ``parallel`` (cached).

        Same signature and semantics as
        :func:`~repro.core.profiler.profile_cluster`.
        """
        key = (cluster, parallel, a2a_algorithm, noise, repeats, seed)
        return self._memoize(
            "cluster",
            key,
            lambda: profile_cluster(
                cluster,
                parallel,
                a2a_algorithm=a2a_algorithm,
                noise=noise,
                repeats=repeats,
                seed=seed,
            ),
        )

    def models(
        self,
        cluster: ClusterSpec,
        parallel: ParallelSpec,
        *,
        noise: float = 0.0,
        seed: int = 0,
    ) -> PerfModelSet:
        """Fitted performance models of a deployment (cached)."""
        return self.cluster_profile(
            cluster, parallel, noise=noise, seed=seed
        ).models

    # -- layer profiles ------------------------------------------------------

    def layer_profile(
        self,
        spec: MoELayerSpec,
        parallel: ParallelSpec,
        models: PerfModelSet,
        *,
        gate_kind: GateKind = GateKind.GSHARD,
        routing_overhead: float = 1.0,
    ) -> LayerProfile:
        """Profile one layer spec on one deployment (cached).

        Same signature and semantics as
        :func:`~repro.models.transformer.profile_layer`.  Repeated calls
        return the *same object*, so downstream per-profile memos (the
        solver context's Algorithm-1 solutions) hit as well.
        """
        key = (spec, parallel, models, gate_kind, routing_overhead)
        return self._memoize(
            "layer",
            key,
            lambda: profile_layer(
                spec,
                parallel,
                models,
                gate_kind=gate_kind,
                routing_overhead=routing_overhead,
            ),
        )
