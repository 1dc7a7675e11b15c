"""The planning subsystem: cached, batched, heterogeneous scheduling.

Three layers on top of the scheduling core:

* :mod:`~repro.planner.store` -- :class:`ProfileStore`, a thread-safe
  content-addressed cache over the online profiler, so repeated planning
  never re-fits performance models;
* :mod:`~repro.planner.compiler` -- :class:`PlanCompiler`, which turns a
  (possibly heterogeneous) stack of layer specs plus a training system
  into a serializable :class:`IterationPlan` (JSON in/out, bit-identical
  replay);
* :mod:`~repro.planner.batch` -- :func:`plan_many`, a concurrent sweep
  over ``clusters x stacks x systems`` grids with all profiling
  deduplicated through one shared store.
"""

from .store import ProfileStore, StoreStats
from .plan import PLAN_SCHEMA_VERSION, IterationPlan
from .compiler import PlanCompiler
from .batch import PlanPoint, SweepResult, plan_many

__all__ = [
    "ProfileStore",
    "StoreStats",
    "PLAN_SCHEMA_VERSION",
    "IterationPlan",
    "PlanCompiler",
    "PlanPoint",
    "SweepResult",
    "plan_many",
]
