"""The plan-serving core: a coalescing, single-flight PlanService.

``Workspace.plan`` is a one-caller-at-a-time library call; this module
turns it into a *service*.  A :class:`PlanService` owns one background
coalescer thread and a bounded request queue:

* **batching from the backlog** -- the coalescer drains on arrival:
  it takes the whole backlog the moment it wakes, so a lone request
  waits for nothing, and the requests that arrive while one batch
  resolves form the next batch, so a burst is processed together
  instead of interleaving N independent call stacks.  An explicit
  ``flush_ms`` window additionally holds each batch open for company;
* **request dedup** -- each batch groups requests by their
  :attr:`~repro.api.request.PlanRequest.digest` (the workspace's content
  address, computed once per request object), so M copies of one
  request cost one resolution and M future completions;
* **answers from memory at submit** -- a request whose plan the
  workspace's L1 tier already holds is answered inside :meth:`submit`,
  without touching the queue; L1 is the one in-memory plan tier, so
  ``Workspace.clear()`` drops what the service remembers too.  The
  workspace's in-flight map and per-digest file locks make resolution
  single-flight across threads and *processes*;
* **batched solver funnel** -- before resolving a batch's distinct
  groups, their layer contexts are profiled through the shared store and
  pushed through one :func:`~repro.core.pipeline_degree.solve_degrees`
  call, so a cold batch hits the vectorized Algorithm-1 solver once
  instead of once per request.

Every behavior is counted exactly (:class:`~repro.serve.stats.ServiceStats`,
also surfaced through :attr:`Workspace.stats`): tests assert dedup and
coalescing, not hope for them.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from ..api.request import PlanRequest
from ..api.workspace import Workspace
from ..core.pipeline_degree import solve_degrees
from ..errors import (
    ConfigError,
    QueueFullError,
    ServiceClosedError,
)
from ..planner.plan import IterationPlan
from .stats import ServiceStats, StatsAccumulator

#: default flush window: none.  The coalescer drains on arrival and
#: batches whatever queued while the previous batch resolved; a window
#: only delays a request that no other request would have joined.
DEFAULT_FLUSH_MS = 0.0

#: default bound on the undrained request backlog.
DEFAULT_CAPACITY = 4096


@dataclass
class _Entry:
    """One accepted submission awaiting resolution."""

    request: PlanRequest
    future: Future
    submitted: float  # time.monotonic()


@dataclass
class _Group:
    """A batch's entries sharing one plan identity, resolved once."""

    leader: PlanRequest
    members: list[_Entry] = field(default_factory=list)


class PlanService:
    """Serve concurrent plan requests from one workspace at batch speed.

    Args:
        workspace: the session whose caches and plan cache back every
            resolution.  The service binds its stats into
            ``workspace.stats.service``.
        flush_ms: coalescer flush window -- how long the first request
            of a batch waits for company before the batch drains.  The
            default, 0, drains on arrival: a batch is the backlog that
            queued while the previous batch resolved.
        capacity: bound on the undrained backlog; submissions beyond it
            raise :class:`~repro.errors.QueueFullError`.  One flush
            drains at most this many requests.
        workers: thread-pool width for resolving a batch's distinct
            groups (1 = resolve serially on the coalescer thread).

    Raises:
        ConfigError: for a negative window or a non-positive capacity or
            worker count.
    """

    def __init__(
        self,
        workspace: Workspace,
        *,
        flush_ms: float = DEFAULT_FLUSH_MS,
        capacity: int = DEFAULT_CAPACITY,
        workers: int = 1,
    ) -> None:
        if flush_ms < 0:
            raise ConfigError(f"flush_ms must be >= 0, got {flush_ms}")
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workspace = workspace
        self._flush_s = flush_ms / 1000.0
        self._capacity = capacity
        self._cv = threading.Condition()
        self._pending: list[_Entry] = []
        self._outstanding = 0  # accepted, future not yet settled
        self._closed = False
        self._stats = StatsAccumulator()
        self._pool = (
            ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-serve-worker"
            )
            if workers > 1
            else None
        )
        workspace.bind_service(self.stats_snapshot)
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-coalescer", daemon=True
        )
        self._thread.start()

    # -- client surface ------------------------------------------------------

    def submit(self, request: PlanRequest) -> Future:
        """Enqueue one request; the returned future resolves to its plan.

        A request whose plan the workspace's L1 tier holds is answered
        here, settled before it returns, consuming no queue capacity
        and no coalescer work.  Malformed requests fail when the
        :class:`~repro.api.request.PlanRequest` is built, in the
        caller's thread, so they never poison a batch.

        Raises:
            ServiceClosedError: after :meth:`close`.
            QueueFullError: when the backlog is at capacity.
        """
        # The request's identity is computed (once per request object)
        # before the lock is taken.
        digest = request.digest
        entry = _Entry(
            request=request, future=Future(), submitted=time.monotonic()
        )
        with self._cv:
            if self._closed:
                self._stats.reject()
                raise ServiceClosedError(
                    "PlanService is closed and takes no new requests"
                )
            cached = self.workspace.recall(digest)
            if cached is not None:
                self._stats.request()
                self._stats.resolve_cached()
                entry.future.set_result(cached)
                return entry.future
            if len(self._pending) >= self._capacity:
                self._stats.reject()
                raise QueueFullError(
                    f"request backlog is at capacity "
                    f"({self._capacity}); retry after the next flush"
                )
            self._pending.append(entry)
            self._outstanding += 1
            self._stats.request()
            self._cv.notify()
        return entry.future

    def plan(self, request: PlanRequest) -> IterationPlan:
        """Submit and block for the answer (convenience wrapper)."""
        return self.submit(request).result()

    def stats_snapshot(self) -> ServiceStats:
        """Exact serving counters at this instant."""
        return self._stats.snapshot()

    #: property alias mirroring ``Workspace.stats``.
    stats = property(stats_snapshot)

    def join(self, timeout_s: float | None = None) -> bool:
        """Block until every accepted request's future has been settled.

        Quiescence is an exact counter (accepted minus settled), not a
        queue inspection, so there is no window where the backlog looks
        empty while a drained batch is still resolving.

        Returns:
            True on quiescence, False if ``timeout_s`` expired first.
        """
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        while True:
            with self._cv:
                if self._outstanding == 0:
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.001)

    def close(self, *, drain: bool = True) -> None:
        """Shut down: stop accepting requests, then stop the threads.

        Args:
            drain: resolve the outstanding backlog first.  With
                ``drain=False`` every undrained request fails with
                :class:`~repro.errors.ServiceClosedError` instead.
        """
        with self._cv:
            if self._closed:
                return
            self._closed = True
            dropped: list[_Entry] = []
            if not drain:
                dropped = self._pending[:]
                self._pending.clear()
            self._cv.notify_all()
        for entry in dropped:
            self._settle(
                entry,
                error=ServiceClosedError(
                    "PlanService closed before resolution"
                ),
            )
            self._stats.resolve(
                group_size=1, failed=True, latencies_ms=[]
            )
        self._thread.join()
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=True)

    # -- coalescer -----------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._pending and not self._closed:
                    self._cv.wait()
                if not self._pending:
                    return  # closed and drained
                if self._flush_s > 0:
                    # Hold the batch open for one flush window from its
                    # first arrival (skipped when closing).  Without a
                    # window the backlog drains as it stands.
                    deadline = self._pending[0].submitted + self._flush_s
                    while (
                        not self._closed
                        and len(self._pending) < self._capacity
                    ):
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cv.wait(timeout=remaining)
                batch = self._pending[: self._capacity]
                del self._pending[: len(batch)]
            try:
                self._process(batch)
            except BaseException as exc:
                # A defect anywhere in batch handling must fail that
                # batch's callers, not silently kill the coalescer and
                # hang every future request.
                self._fail_batch(batch, exc)

    def _settle(
        self,
        entry: _Entry,
        *,
        plan: IterationPlan | None = None,
        error: BaseException | None = None,
    ) -> bool:
        """Deliver one entry's outcome, tolerating caller cancellation.

        Futures are never marked running until this point, so a caller
        may have cancelled while the entry waited; in that case nothing
        is delivered.  Always decrements the quiescence counter.

        Returns:
            True when the outcome was delivered, False when the caller
            had already cancelled.
        """
        delivered = entry.future.set_running_or_notify_cancel()
        if delivered:
            if error is not None:
                entry.future.set_exception(error)
            else:
                entry.future.set_result(plan)
        with self._cv:
            self._outstanding -= 1
        return delivered

    def _fail_batch(
        self, batch: list[_Entry], error: BaseException
    ) -> None:
        for entry in batch:
            if entry.future.done():
                continue  # already settled through its group
            self._settle(entry, error=error)
            self._stats.resolve(
                group_size=1, failed=True, latencies_ms=[]
            )

    def _process(self, batch: list[_Entry]) -> None:
        tracer = self.workspace.tracer
        drained = time.monotonic()
        span = (
            tracer.start("flush", {"batch": len(batch)})
            if tracer is not None
            else None
        )
        try:
            self._stats.batch(len(batch))
            # Batches are processed one at a time, each to completion,
            # so grouping one batch is all the dedup the service owns.
            by_digest: dict[str, _Group] = {}
            for entry in batch:
                digest = entry.request.digest
                group = by_digest.get(digest)
                if group is None:
                    group = by_digest[digest] = _Group(leader=entry.request)
                group.members.append(entry)
            new_groups = list(by_digest.values())
            if span is not None:
                # Queue-wait vs resolve-time split: how long the batch
                # sat in the queue (submission to drain) vs how long
                # resolving it took (the `resolve_ms` attr below).
                span.set(
                    groups=len(new_groups),
                    queue_wait_ms=round(
                        max(
                            (drained - entry.submitted) * 1000.0
                            for entry in batch
                        ),
                        3,
                    ),
                )
            if new_groups:
                self._prewarm(new_groups)
            resolve_started = time.monotonic()
            if self._pool is not None and len(new_groups) > 1:
                # Pool threads don't inherit this context's current
                # span; parent the per-group spans explicitly.
                list(
                    self._pool.map(
                        lambda group: self._resolve_group(
                            group, parent=span
                        ),
                        new_groups,
                    )
                )
            else:
                for group in new_groups:
                    self._resolve_group(group, parent=span)
            if span is not None:
                span.set(
                    resolve_ms=round(
                        (time.monotonic() - resolve_started) * 1000.0, 3
                    )
                )
        finally:
            if span is not None:
                span.end()

    def _prewarm(self, groups: list[_Group]) -> None:
        """One batched Algorithm-1 pass over a cold batch's contexts.

        Groups whose plan is already on disk are skipped.  Best-effort
        throughout: any failure here is swallowed so it surfaces --
        once, per group, through that group's futures -- in the resolve
        step instead of poisoning the whole batch.
        """
        if len(groups) < 2:
            return
        by_rmax: dict[int, list] = {}
        for group in groups:
            req = group.leader
            if (self.workspace.plans_dir / f"{req.digest}.json").exists():
                continue  # already on disk: nothing to solve
            try:
                compiler = self.workspace.compiler(
                    req.cluster, req.parallel,
                    noise=req.noise, seed=req.seed,
                    r_max=req.system.r_max,
                )
                profiles = compiler.resolve_stack(
                    req.stack,
                    gate_kind=req.gate_kind,
                    routing_overhead=req.routing_overhead,
                )
                contexts = req.system.schedule_contexts(profiles)
            except Exception:
                continue  # the group's resolve step will surface it
            if contexts:
                by_rmax.setdefault(req.system.r_max, []).extend(contexts)
        for r_max, contexts in by_rmax.items():
            try:
                solve_degrees(
                    contexts,
                    r_max,
                    solver_context=self.workspace.store.solver_context,
                )
            except Exception:
                pass  # per-group resolves retry their own contexts

    def _resolve_group(self, group: _Group, parent=None) -> None:
        req = group.leader
        tracer = self.workspace.tracer
        span = (
            tracer.start(
                "resolve",
                {"members": len(group.members)},
                parent=parent,
            )
            if tracer is not None
            else None
        )
        error: BaseException | None = None
        plan = None
        try:
            plan = self.workspace.plan(
                req.stack, req.system, req.cluster,
                parallel=req.parallel, gate_kind=req.gate_kind,
                routing_overhead=req.routing_overhead,
                include_gar=req.include_gar,
                noise=req.noise, seed=req.seed,
            )
        except BaseException as exc:  # surfaced through every future
            error = exc
        finally:
            if span is not None:
                span.set(failed=error is not None).end()
        members = group.members
        now = time.monotonic()
        cancelled = 0
        for entry in members:
            if not self._settle(entry, plan=plan, error=error):
                cancelled += 1
        self._stats.resolve(
            group_size=len(members),
            failed=error is not None,
            cancelled=cancelled,
            latencies_ms=[
                (now - entry.submitted) * 1000.0 for entry in members
            ],
        )
