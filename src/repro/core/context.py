"""Per-session solver state: every scheduling memo and counter.

FSMoE's scheduler makes its choices for one job's session (paper §3.2
and §4-5): profile, pick each layer's pipeline degrees with Algorithm 1,
then partition the gradients.  A :class:`SolverContext` holds everything
those solvers remember within one session -- the memoized solutions and
the exact :class:`SolverStats` counters -- plus the session's one
Algorithm-1 implementation choice.  Two contexts never share state, so
"cold" simply means a new context.

The planner's :class:`~repro.planner.store.ProfileStore` owns one, which
gives the solver memos exactly the store's sharing: a
:class:`~repro.api.workspace.Workspace` and every
:class:`~repro.planner.compiler.PlanCompiler` on one store share one
context.  A direct solver call made without a context gets a fresh one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence, TypeVar

from ..errors import SolverError
from ..obs.metrics import Stats, gauge

#: accepted Algorithm-1 implementations: ``"batch"`` is the vectorized
#: exact sweep, ``"slsqp"`` the paper's continuous relaxation.
DEGREE_SOLVERS = ("batch", "slsqp")

#: bound on each Algorithm-1 memo (the batched sweep's and SLSQP's).
DEGREE_MEMO_SIZE = 65536

T = TypeVar("T")


@dataclass(frozen=True)
class SolverStats(Stats):
    """Exact counters of one context's batched Algorithm-1 and Step-2 work.

    Attributes:
        solves: distinct (context, r_max) keys actually evaluated.
        cache_hits: requests served from the memo instead.
        batch_calls: batched-sweep invocations that did array work
            (fully-cached calls don't count).
        max_batch_size: largest number of contexts evaluated in one
            array pass.
        evictions: memoized solutions dropped by the LRU bound.
        step2_objective_calls: Step-2 gradient-partition objective
            evaluations (one per array pass in the batched
            implementation, one per candidate in the scalar one).
        step2_candidates: total Step-2 candidate assignments evaluated
            across those calls -- ``candidates / calls`` is the mean
            population batched into one pass.
    """

    solves: int = 0
    cache_hits: int = 0
    batch_calls: int = 0
    max_batch_size: int = gauge()
    evictions: int = 0
    step2_objective_calls: int = 0
    step2_candidates: int = 0


class SolverContext:
    """The memos, counters and Algorithm-1 choice of one planning session.

    Thread-safe: a sweep's worker threads and a plan service's resolver
    share one context.  Memoized values are computed outside the lock;
    when two threads race on one key the first stored value wins and
    both return it.

    Args:
        degree_solver: the Algorithm-1 implementation every
            :func:`~repro.core.pipeline_degree.solve_degrees` call in
            this context uses, one of :data:`DEGREE_SOLVERS`.

    Raises:
        SolverError: for an unknown ``degree_solver``.
    """

    def __init__(self, degree_solver: str = "batch") -> None:
        if degree_solver not in DEGREE_SOLVERS:
            raise SolverError(
                f"unknown degree solver {degree_solver!r}; choose from "
                f"{DEGREE_SOLVERS}"
            )
        self.degree_solver = degree_solver
        self._lock = threading.Lock()
        self._degrees: OrderedDict[tuple, object] = OrderedDict()
        self._memos: dict[str, OrderedDict[Hashable, object]] = {}
        self._solves = 0
        self._cache_hits = 0
        self._batch_calls = 0
        self._max_batch_size = 0
        self._evictions = 0
        self._step2_objective_calls = 0
        self._step2_candidates = 0

    @property
    def stats(self) -> SolverStats:
        """Snapshot of this context's counters."""
        with self._lock:
            return SolverStats(
                solves=self._solves,
                cache_hits=self._cache_hits,
                batch_calls=self._batch_calls,
                max_batch_size=self._max_batch_size,
                evictions=self._evictions,
                step2_objective_calls=self._step2_objective_calls,
                step2_candidates=self._step2_candidates,
            )

    def batch_degrees(
        self,
        keys: Sequence[tuple],
        evaluate: Callable[[list[tuple]], Sequence[object]],
    ) -> tuple:
        """Counted, memoized batched Algorithm-1 solutions.

        Duplicate keys are deduplicated, cached keys are served from the
        memo, and every missing key is evaluated in one ``evaluate``
        call -- the exact counters in :attr:`stats` describe that work.

        Args:
            keys: ``(pipeline context, r_max)`` pairs, any length.
            evaluate: solves a list of distinct uncached keys in one
                pass, returning one solution per key, in order.

        Returns:
            One solution per key, in input order.
        """
        resolved: dict[tuple, object] = {}
        missing: list[tuple] = []
        with self._lock:
            for key in keys:
                if key in resolved:
                    continue
                cached = self._degrees.get(key)
                if cached is not None:
                    self._degrees.move_to_end(key)
                    self._cache_hits += 1
                    resolved[key] = cached
                else:
                    resolved[key] = None  # placeholder: dedupes the call
                    missing.append(key)
        if missing:
            solutions = evaluate(missing)
            with self._lock:
                self._batch_calls += 1
                self._max_batch_size = max(self._max_batch_size, len(missing))
                for key, solution in zip(missing, solutions):
                    if key not in self._degrees:
                        self._degrees[key] = solution
                        self._solves += 1
                        while len(self._degrees) > DEGREE_MEMO_SIZE:
                            self._degrees.popitem(last=False)
                            self._evictions += 1
                    resolved[key] = self._degrees[key]
        return tuple(resolved[key] for key in keys)

    def memo(
        self,
        table: str,
        key: Hashable,
        compute: Callable[[], T],
        maxsize: int,
    ) -> T:
        """The value of ``key`` in the bounded LRU ``table``.

        Computes it with ``compute()`` on a miss; a compute that raises
        caches nothing.  Tables are independent and created on first
        use.
        """
        with self._lock:
            entries = self._memos.setdefault(table, OrderedDict())
            if key in entries:
                entries.move_to_end(key)
                return entries[key]
        value = compute()
        with self._lock:
            value = entries.setdefault(key, value)
            while len(entries) > maxsize:
                entries.popitem(last=False)
        return value

    def record_step2(self, candidates: int) -> None:
        """Count one Step-2 objective pass covering ``candidates`` points.

        The batched implementation evaluates a whole DE population per
        pass, the scalar one a single candidate, so ``step2_candidates /
        step2_objective_calls`` measures the achieved batching.
        """
        with self._lock:
            self._step2_objective_calls += 1
            self._step2_candidates += candidates
