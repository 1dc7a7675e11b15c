"""The plan compiler: heterogeneous stacks in, serializable plans out.

:class:`PlanCompiler` is the planner's middle layer: the paper's
front-end (profiling, §3.2) and back-end (scheduling) behind one
object, with three properties:

* **heterogeneous stacks** -- every layer of an iteration may have its
  own :class:`~repro.config.MoELayerSpec` (different hidden sizes,
  expert counts, top-k) and its own routing function, the paper's
  Table 5 "configured layers" scenario taken to its logical end;
* **cached front-end** -- all profiling goes through a
  :class:`~repro.planner.store.ProfileStore`, so compiling a second
  system on the same stack, or the same stack on a second day, re-fits
  nothing; the store's solver context memoizes the back-end's
  Algorithm-1 and Step-2 solutions the same way;
* **persistable back-end** -- compilation produces an
  :class:`~repro.planner.plan.IterationPlan` that serializes to JSON and
  replays bit-identically.

The compiler never looks inside a training system: it hands layer
profiles to ``system.build_iteration_spec`` exactly like the paper's
back-end consumes only fitted models and sub-module profiles (§3.2).
"""

from __future__ import annotations

from typing import Sequence

from ..config import MoELayerSpec, ParallelSpec, standard_layout
from ..core.perf_model import PerfModelSet
from ..core.pipeline_degree import DEFAULT_MAX_DEGREE, solve_degrees
from ..core.profiler import ProfileResult
from ..errors import ConfigError
from ..models.transformer import LayerProfile
from ..moe.gates import GateKind
from ..obs.trace import maybe_span
from ..parallel.collectives import A2AAlgorithm, CollectiveCostModel
from ..parallel.topology import ClusterSpec
from ..parallel.volumes import compute_layer_volumes
from ..sim.timeline import Timeline
from .plan import IterationPlan
from .store import ProfileStore


class PlanCompiler:
    """Compile (stack, system) pairs into serializable iteration plans.

    Args:
        cluster: the target (simulated) cluster.
        parallel: layout; defaults to the paper's standard deployment.
        store: profile cache; a private one is created when omitted.
            Pass a shared store to deduplicate work across compilers.
        models: pre-fitted performance models.  When given, the online
            profiler is bypassed entirely (no cluster profiling, and
            ``fit_quality`` is unavailable).
        noise: profiling measurement noise (0 = exact oracle readings).
        seed: profiling RNG seed.
        r_max: cap on pipeline degrees considered by the systems.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        parallel: ParallelSpec | None = None,
        *,
        store: ProfileStore | None = None,
        models: PerfModelSet | None = None,
        noise: float = 0.0,
        seed: int = 0,
        r_max: int = DEFAULT_MAX_DEGREE,
    ) -> None:
        if parallel is None:
            parallel = standard_layout(
                cluster.total_gpus, cluster.gpus_per_node
            )
        self.cluster = cluster
        self.parallel = parallel
        self.store = store if store is not None else ProfileStore()
        self.r_max = r_max
        self._noise = noise
        self._seed = seed
        self._models = models
        self._profile_result: ProfileResult | None = None
        self._a2a_oracle = CollectiveCostModel(cluster)
        self._a2a_costs: dict[
            tuple[float, int], dict[A2AAlgorithm, float]
        ] = {}

    # -- front-end -----------------------------------------------------------

    @property
    def profile_result(self) -> ProfileResult | None:
        """The cluster's profiling result (None with injected models).

        Cached locally after the first access so the store's hit counter
        keeps meaning "avoided re-profilings", not "property reads".
        """
        if self._models is not None:
            return None
        if self._profile_result is None:
            self._profile_result = self.store.cluster_profile(
                self.cluster, self.parallel,
                noise=self._noise, seed=self._seed,
            )
        return self._profile_result

    @property
    def models(self) -> PerfModelSet:
        """The fitted performance models (the back-end's only input)."""
        if self._models is not None:
            return self._models
        return self.profile_result.models

    @property
    def fit_quality(self) -> dict[str, float]:
        """r-squared of each fitted model.

        Raises:
            ConfigError: when pre-fitted models were injected (there was
                no fit, hence no fit quality).
        """
        result = self.profile_result
        if result is None:
            raise ConfigError(
                "fit_quality is unavailable: compiler was built from "
                "pre-fitted models, not a profiling run"
            )
        return dict(result.r_squared)

    def layer_profile(
        self,
        spec: MoELayerSpec,
        *,
        gate_kind: GateKind = GateKind.GSHARD,
        routing_overhead: float = 1.0,
    ) -> LayerProfile:
        """Profile one layer spec on this deployment (store-cached)."""
        return self.store.layer_profile(
            spec,
            self.parallel,
            self.models,
            gate_kind=gate_kind,
            routing_overhead=routing_overhead,
        )

    def resolve_stack(
        self,
        stack,
        *,
        gate_kind: GateKind | Sequence[GateKind] = GateKind.GSHARD,
        routing_overhead: float = 1.0,
    ) -> tuple[LayerProfile, ...]:
        """Profile every layer of a (possibly heterogeneous) stack.

        Args:
            stack: one :class:`MoELayerSpec` (single-layer stack) or a
                sequence with one spec per generalized layer.
            gate_kind: one routing function for the whole stack, or one
                per layer.
            routing_overhead: multiplier on gate+order compute.

        Raises:
            ConfigError: for an empty stack or a per-layer ``gate_kind``
                sequence whose length disagrees with the stack.
        """
        if isinstance(stack, MoELayerSpec):
            stack = (stack,)
        specs = tuple(stack)
        if not specs:
            raise ConfigError("stack must contain at least one layer spec")
        if isinstance(gate_kind, GateKind):
            gates: tuple[GateKind, ...] = (gate_kind,) * len(specs)
        else:
            gates = tuple(gate_kind)
            if len(gates) != len(specs):
                raise ConfigError(
                    f"gate_kind sequence has {len(gates)} entries for "
                    f"{len(specs)} layers"
                )
        return tuple(
            self.layer_profile(
                spec, gate_kind=gate, routing_overhead=routing_overhead
            )
            for spec, gate in zip(specs, gates)
        )

    # -- back-end ------------------------------------------------------------

    def compile(
        self,
        stack,
        system,
        *,
        gate_kind: GateKind | Sequence[GateKind] = GateKind.GSHARD,
        routing_overhead: float = 1.0,
        include_gar: bool = True,
    ) -> IterationPlan:
        """Compile one iteration of ``stack`` under ``system``.

        Args:
            stack: layer spec(s), see :meth:`resolve_stack`.
            system: a :class:`~repro.systems.base.TrainingSystem`.
            gate_kind: routing function(s) for the timing profiles.
            routing_overhead: multiplier on gate+order compute.
            include_gar: set False to exclude gradient synchronization.
        """
        solver_context = self.store.solver_context
        span = maybe_span("compile")
        before = solver_context.stats if span is not None else None
        profiles: tuple[LayerProfile, ...] = ()
        try:
            profiles = self.resolve_stack(
                stack, gate_kind=gate_kind, routing_overhead=routing_overhead
            )
            # Batch-solve every distinct layer context the system will ask
            # Algorithm 1 about -- one vectorized pass instead of one solve
            # per layer; the solver memo serves the per-layer lookups below.
            contexts = getattr(system, "schedule_contexts", lambda _: ())(
                profiles
            )
            if contexts:
                solve_degrees(
                    contexts,
                    getattr(system, "r_max", self.r_max),
                    solver_context=solver_context,
                )
            spec = system.build_iteration_spec(
                profiles,
                self.models,
                include_gar,
                solver_context=solver_context,
            )
            return IterationPlan.from_spec(spec)
        finally:
            if span is not None:
                # Window the store's solver counters over this compile
                # (concurrent compiles on the same store bleed in; exact
                # in single-threaded compiles).
                window = solver_context.stats - before
                span.set(
                    layers=len(profiles),
                    system=getattr(system, "name", type(system).__name__),
                    solver_solves=window.solves,
                    solver_cache_hits=window.cache_hits,
                    solver_batch_calls=window.batch_calls,
                ).end()

    def simulate(
        self,
        stack,
        system,
        *,
        gate_kind: GateKind | Sequence[GateKind] = GateKind.GSHARD,
        routing_overhead: float = 1.0,
        phase: str = "both",
    ) -> Timeline:
        """Compile and execute one iteration; returns the full trace."""
        plan = self.compile(
            stack, system, gate_kind=gate_kind,
            routing_overhead=routing_overhead,
        )
        return plan.simulate(phase=phase)

    def iteration_time_ms(
        self,
        stack,
        system,
        *,
        gate_kind: GateKind | Sequence[GateKind] = GateKind.GSHARD,
        phase: str = "both",
    ) -> float:
        """Simulated makespan of one iteration of ``stack``."""
        return self.simulate(
            stack, system, gate_kind=gate_kind, phase=phase
        ).makespan_ms

    # -- AlltoAll algorithm choice -------------------------------------------

    def best_a2a_algorithm(
        self, spec: MoELayerSpec
    ) -> tuple[A2AAlgorithm, dict[A2AAlgorithm, float]]:
        """Pick the cheapest AlltoAll algorithm for this layer's messages.

        The paper pre-implements three dispatch algorithms (NCCL direct,
        Hetu's 1DH, Tutel/DeepSpeed's 2DH) precisely so the system can
        choose per deployment (§3.1).  Costs are cached per (message
        size, EP width): two layer shapes that exchange the same bytes
        share one cost table.

        Returns:
            The winning algorithm and the per-algorithm cost table (ms).
        """
        volumes = compute_layer_volumes(spec, self.parallel)
        key = (volumes.a2a_bytes, self.parallel.n_ep)
        costs = self._a2a_costs.get(key)
        if costs is None:
            costs = {
                algo: self._a2a_oracle.alltoall_ms(
                    volumes.a2a_bytes, self.parallel.n_ep, algo
                )
                for algo in A2AAlgorithm
            }
            self._a2a_costs[key] = costs
        best = min(costs, key=costs.get)
        return best, dict(costs)
