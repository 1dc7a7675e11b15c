"""The planning subsystem: cached, heterogeneous scheduling.

Two layers on top of the scheduling core:

* :mod:`~repro.planner.store` -- :class:`ProfileStore`, a thread-safe
  content-addressed cache over the online profiler, so repeated planning
  never re-fits performance models;
* :mod:`~repro.planner.compiler` -- :class:`PlanCompiler`, which turns a
  (possibly heterogeneous) stack of layer specs plus a training system
  into a serializable :class:`IterationPlan` (JSON in/out, bit-identical
  replay).

Grids of ``clusters x stacks x systems`` are planned through
:meth:`repro.api.workspace.Workspace.sweep`, which adds the persistent
plan cache on top of these two layers.
"""

from .store import ProfileStore, StoreStats
from .plan import PLAN_SCHEMA_VERSION, IterationPlan
from .compiler import PlanCompiler

__all__ = [
    "ProfileStore",
    "StoreStats",
    "PLAN_SCHEMA_VERSION",
    "IterationPlan",
    "PlanCompiler",
]
