"""repro: a reproduction of FSMoE (ASPLOS 2025) on a simulated GPU cluster.

FSMoE is a flexible and scalable training system for sparse
Mixture-of-Experts models.  This library rebuilds it end to end in Python:

* the modular MoE layer (gates / ordering / dispatch / experts / hooks),
  functional in numpy with manual backprop (:mod:`repro.moe`,
  :mod:`repro.runtime`);
* the scheduling core -- online profiling, the four-case pipeline-degree
  optimizer (Algorithm 1) and adaptive gradient partitioning
  (:mod:`repro.core`);
* a simulated multi-GPU cluster with analytical collective costs and a
  multi-stream discrete-event executor standing in for the paper's
  physical testbeds (:mod:`repro.parallel`, :mod:`repro.sim`);
* the compared training systems and the full benchmark harness
  (:mod:`repro.systems`, :mod:`repro.models`, :mod:`repro.bench`);
* disk-rooted experiment sessions and the concurrent plan-serving
  layer over them (:mod:`repro.api`, :mod:`repro.serve`).

Quickstart::

    from repro import (testbed_b, standard_layout, profile_cluster,
                       MoELayerSpec, profile_layer, FSMoE, Tutel)

    cluster = testbed_b()
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    models = profile_cluster(cluster, parallel).models
    spec = MoELayerSpec(embed_dim=2048, num_experts=parallel.n_ep)
    profile = profile_layer(spec, parallel, models)
    t_fsmoe = FSMoE().iteration_time_ms([profile] * 2, models)
    t_tutel = Tutel().iteration_time_ms([profile] * 2, models)
    print(f"speedup over Tutel: {t_tutel / t_fsmoe:.2f}x")
"""

from .config import (
    MoELayerSpec,
    ParallelSpec,
    standard_layout,
)
from .errors import (
    ConfigError,
    LockTimeout,
    ProtocolError,
    QueueFullError,
    RegistryError,
    ReproError,
    ScheduleError,
    ServiceClosedError,
    ServiceError,
    ShapeError,
    SolverError,
    TopologyError,
    WorkspaceError,
)
from .locking import FileLock
from .parallel import (
    ClusterSpec,
    TESTBEDS,
    compute_layer_volumes,
    testbed_a,
    testbed_b,
)
from .core import (
    DEGREE_SOLVERS,
    STEP2_IMPLS,
    STEP2_SOLVERS,
    LinearPerfModel,
    PerfModelSet,
    PipelineContext,
    ProfileResult,
    SolverContext,
    SolverStats,
    find_optimal_pipeline_degree,
    plan_gradient_partition,
    solve_degrees_batch,
    profile_cluster,
)
from .models import (
    GPT2_XL,
    MIXTRAL_7B,
    MIXTRAL_22B,
    LayerProfile,
    available_model_presets,
    get_model_preset,
    layer_op_breakdown,
    profile_layer,
    register_model_preset,
)
from .moe import (
    ExpertChoiceGate,
    SoftMoELayer,
    GShardGate,
    GateKind,
    MOELayer,
    MixtralFFNExpert,
    SigmoidGate,
    SimpleFFNExpert,
    XMoEGate,
)
from .systems import (
    ALL_SYSTEM_KEYS,
    ALL_SYSTEMS,
    DeepSpeedMoE,
    FSMoE,
    FSMoENoIIO,
    PipeMoELina,
    Tutel,
    TutelImproved,
    available_systems,
    get_system,
    register_system,
)
from .planner import IterationPlan, PlanCompiler, ProfileStore
from .api import (
    ClusterRef,
    ExperimentResult,
    ExperimentSpec,
    PlanPoint,
    StackSpec,
    Workspace,
    WorkspaceStats,
    available_clusters,
    get_cluster,
    register_cluster,
)
from .cache import (
    CacheServer,
    CacheStats,
    LRUCache,
    RemoteTier,
    TierStats,
)
from .serve import (
    Backoff,
    Client,
    NetClient,
    NetServer,
    NetStats,
    PlanRequest,
    PlanService,
    ServiceStats,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # config
    "MoELayerSpec",
    "ParallelSpec",
    "standard_layout",
    # errors
    "ReproError",
    "ConfigError",
    "TopologyError",
    "ScheduleError",
    "SolverError",
    "ShapeError",
    "WorkspaceError",
    "RegistryError",
    "LockTimeout",
    "ServiceError",
    "QueueFullError",
    "ServiceClosedError",
    "ProtocolError",
    # locking
    "FileLock",
    # cluster
    "ClusterSpec",
    "TESTBEDS",
    "testbed_a",
    "testbed_b",
    "compute_layer_volumes",
    # core
    "LinearPerfModel",
    "PerfModelSet",
    "PipelineContext",
    "ProfileResult",
    "profile_cluster",
    "find_optimal_pipeline_degree",
    "solve_degrees_batch",
    "SolverContext",
    "SolverStats",
    "DEGREE_SOLVERS",
    "plan_gradient_partition",
    # models
    "GPT2_XL",
    "MIXTRAL_7B",
    "MIXTRAL_22B",
    "LayerProfile",
    "profile_layer",
    "layer_op_breakdown",
    # moe
    "MOELayer",
    "GateKind",
    "GShardGate",
    "SigmoidGate",
    "XMoEGate",
    "ExpertChoiceGate",
    "SimpleFFNExpert",
    "MixtralFFNExpert",
    "SoftMoELayer",
    # systems
    "ALL_SYSTEMS",
    "DeepSpeedMoE",
    "Tutel",
    "TutelImproved",
    "PipeMoELina",
    "FSMoENoIIO",
    "FSMoE",
    # planner
    "ProfileStore",
    "PlanCompiler",
    "IterationPlan",
    # registries
    "ALL_SYSTEM_KEYS",
    "available_systems",
    "get_system",
    "register_system",
    "available_model_presets",
    "get_model_preset",
    "register_model_preset",
    "available_clusters",
    "get_cluster",
    "register_cluster",
    "STEP2_SOLVERS",
    "STEP2_IMPLS",
    # experiment API
    "Workspace",
    "WorkspaceStats",
    "ExperimentSpec",
    "ExperimentResult",
    "PlanPoint",
    "StackSpec",
    "ClusterRef",
    # tiered cache
    "LRUCache",
    "TierStats",
    "CacheStats",
    "CacheServer",
    "RemoteTier",
    # serving
    "PlanService",
    "PlanRequest",
    "Client",
    "ServiceStats",
    "NetServer",
    "NetClient",
    "NetStats",
    "Backoff",
]
