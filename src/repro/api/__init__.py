"""The unified experiment API: the library's front door.

Four pieces on top of the planner:

* :mod:`~repro.api.workspace` -- :class:`Workspace`, a disk-rooted
  session owning a persistent profile store and a content-addressed
  plan cache (warm re-runs fit zero profiles and compile zero plans,
  assertable via exact hit/miss counters);
* :mod:`~repro.api.request` -- :class:`PlanRequest`, one normalized
  plan request carrying its content address, computed once;
* :mod:`~repro.api.spec` -- :class:`ExperimentSpec`, a declarative,
  serializable (dict / JSON / TOML) description of
  ``clusters x stacks x systems`` grids;
* :mod:`~repro.api.registry` -- the cluster registry, completing the
  string-keyed registry layer together with
  :func:`repro.systems.get_system` and
  :func:`repro.models.get_model_preset`.

``python -m repro`` (:mod:`~repro.api.cli`) drives all of it from the
shell.
"""

from .registry import available_clusters, get_cluster, register_cluster
from .request import PlanRequest
from .spec import ClusterRef, ExperimentSpec, StackSpec
from .workspace import (
    WORKSPACE_SCHEMA_VERSION,
    ExperimentResult,
    PlanPoint,
    Workspace,
    WorkspaceStats,
)

__all__ = [
    "available_clusters",
    "get_cluster",
    "register_cluster",
    "ClusterRef",
    "ExperimentSpec",
    "StackSpec",
    "WORKSPACE_SCHEMA_VERSION",
    "ExperimentResult",
    "PlanPoint",
    "PlanRequest",
    "Workspace",
    "WorkspaceStats",
]
