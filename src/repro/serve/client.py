"""In-process client for a :class:`~repro.serve.service.PlanService`.

A :class:`Client` gives callers the familiar :meth:`Workspace.plan`
signature over a running service: ``submit`` returns a future, ``plan``
blocks for the answer, ``plan_many`` fans a whole request list into one
coalescer window and gathers the results in order.  Many clients --
typically one per application thread -- share one service.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Sequence

from ..config import MoELayerSpec, ParallelSpec
from ..moe.gates import GateKind
from ..parallel.topology import ClusterSpec
from ..planner.plan import IterationPlan
from ..systems.base import TrainingSystem
from ..api.request import PlanRequest
from .service import PlanService


class Client:
    """A caller's handle on one :class:`PlanService`."""

    def __init__(self, service: PlanService) -> None:
        self.service = service

    def submit(
        self,
        stack: MoELayerSpec | Sequence[MoELayerSpec],
        system: TrainingSystem,
        cluster: ClusterSpec,
        *,
        parallel: ParallelSpec | None = None,
        gate_kind: GateKind | Sequence[GateKind] = GateKind.GSHARD,
        routing_overhead: float = 1.0,
        include_gar: bool = True,
        noise: float = 0.0,
        seed: int = 0,
    ) -> Future:
        """Enqueue one request (the :meth:`Workspace.plan` signature).

        Raises:
            ConfigError: for a malformed request.
            ServiceClosedError: when the service is shut down.
            QueueFullError: when the backlog is at capacity.
        """
        return self.service.submit(
            PlanRequest(
                stack=stack,
                system=system,
                cluster=cluster,
                parallel=parallel,
                gate_kind=gate_kind,
                routing_overhead=routing_overhead,
                include_gar=include_gar,
                noise=noise,
                seed=seed,
            )
        )

    def plan(self, *args, **kwargs) -> IterationPlan:
        """Submit one request and block for its plan."""
        return self.submit(*args, **kwargs).result()

    def plan_many(
        self, requests: Sequence[PlanRequest]
    ) -> list[IterationPlan]:
        """Submit a request list and gather the plans in request order.

        All submissions land before the first result is awaited, so the
        whole list is eligible for one coalescer window.
        """
        futures = [self.service.submit(request) for request in requests]
        return [future.result() for future in futures]
