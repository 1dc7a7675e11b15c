"""The artifact manifest: every paper figure/table as a named producer.

Each reproduction artifact (a figure or table of the FSMoE paper, or one
of this repository's own performance baselines) is a registered
:class:`Artifact`: a name, the paper reference it reproduces, a producer
callable and the exact output files it yields under
``benchmarks/results/``.  The producers live in the ``benchmarks``
package -- the same functions the pytest wrappers call -- so ``python -m
repro report`` and ``pytest benchmarks`` regenerate byte-identical
files from one code path.

Artifacts resolve through the same string-registry plumbing as systems,
models and clusters (:class:`~repro.naming.Registry`): third-party
artifacts plug into the manifest with :func:`register_artifact` and are
then addressable from ``repro report --only``.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..errors import ConfigError
from ..naming import Registry


@dataclass(frozen=True)
class ReportConfig:
    """Knobs shared by every artifact producer.

    Attributes:
        full: run the paper-sized grids (all 1458 Table-5
            configurations, full-depth models) instead of the
            subsampled defaults.
        solver: FSMoE Step-2 gradient-partition solver override
            (``"de"``/``"slsqp"``/``"none"``); None picks the
            benchmark default (DE when subsampled, SLSQP on the full
            grids where DE would dominate the wall time).
        smoke: CI smoke mode -- scale the perf benchmarks down and
            enforce their regression floors.
    """

    full: bool = False
    solver: str | None = None
    smoke: bool = False

    @property
    def step2_solver(self) -> str:
        """The FSMoE Step-2 solver the big sweeps should use."""
        if self.solver is not None:
            return self.solver
        return "slsqp" if self.full else "de"

    @classmethod
    def from_env(cls) -> "ReportConfig":
        """The configuration the benchmark env vars describe.

        ``REPRO_BENCH_FULL=1`` selects the full grids,
        ``REPRO_BENCH_SOLVER`` overrides the Step-2 solver and
        ``REPRO_PERF_SMOKE=1`` selects CI smoke mode -- the same
        variables the pytest benchmark suite has always read.
        """
        return cls(
            full=os.environ.get("REPRO_BENCH_FULL", "0") == "1",
            solver=os.environ.get("REPRO_BENCH_SOLVER"),
            smoke=os.environ.get("REPRO_PERF_SMOKE") == "1",
        )


@dataclass(frozen=True)
class ArtifactResult:
    """What one producer yields: output files plus assertion data.

    Attributes:
        artifact: the producing artifact's registered name.
        outputs: exact file contents by filename (the bytes written
            under ``benchmarks/results/``, trailing newline included).
        data: structured values for the pytest wrappers' shape
            assertions (speedups, makespans, fit qualities, ...);
            never serialized.
    """

    artifact: str
    outputs: Mapping[str, str]
    data: Mapping[str, object] = field(default_factory=dict)


#: signature of every producer callable.
Producer = Callable[[object, ReportConfig], ArtifactResult]


@dataclass(frozen=True)
class Artifact:
    """One registered paper artifact.

    Attributes:
        name: registry key (``"fig6"``, ``"table5"``, ...).
        title: one-line human description.
        paper_ref: which figure/table/section of the paper it
            reproduces.
        producer: the callable computing it -- either a dotted
            ``"module:function"`` string resolved lazily (the default
            artifacts point into the ``benchmarks`` package) or a
            callable, with signature
            ``produce(workspace, config) -> ArtifactResult``.
        outputs: the filenames the producer yields, relative to the
            results directory.
        deterministic: True when the output bytes are a pure function
            of the configuration (checked by ``repro report --check``);
            False for artifacts that embed wall-clock measurements.
    """

    name: str
    title: str
    paper_ref: str
    producer: str | Producer
    outputs: tuple[str, ...]
    deterministic: bool = True

    def resolve_producer(self) -> Producer:
        """Import (if needed) and return the producer callable.

        Raises:
            ConfigError: when the producer's module is not importable
                (the default artifacts need the ``benchmarks`` package
                on ``sys.path``, i.e. a repository-root working
                directory).
        """
        if callable(self.producer):
            return self.producer
        module_name, _, attr = self.producer.partition(":")
        if not attr:
            raise ConfigError(
                f"artifact {self.name!r}: producer {self.producer!r} is "
                f"not of the form 'module:function'"
            )
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise ConfigError(
                f"artifact {self.name!r} imports its producer from "
                f"{module_name!r}, which is not importable: {exc}.  The "
                f"default artifacts live in the repository's "
                f"`benchmarks` package -- run `repro report` from the "
                f"repository root."
            ) from exc
        producer = getattr(module, attr, None)
        if producer is None:
            raise ConfigError(
                f"artifact {self.name!r}: {module_name!r} has no "
                f"attribute {attr!r}"
            )
        return producer


_REGISTRY: Registry[Artifact] = Registry("artifact")


def register_artifact(
    artifact: Artifact,
    *,
    aliases: Iterable[str] = (),
    overwrite: bool = False,
) -> None:
    """Add an artifact to the manifest.

    Raises:
        RegistryError: when the name is taken and ``overwrite`` is
            False.
    """
    _REGISTRY.register(
        artifact.name,
        lambda: artifact,
        aliases=aliases,
        overwrite=overwrite,
    )


def unregister_artifact(name: str) -> None:
    """Remove an artifact registration (mainly for tests)."""
    _REGISTRY.discard(name)


def available_artifacts() -> tuple[str, ...]:
    """Canonical names of every registered artifact, sorted."""
    return _REGISTRY.available()


def get_artifact(name: str) -> Artifact:
    """Look one artifact up by (possibly aliased) name.

    Raises:
        RegistryError: for an unknown name, listing what exists.
    """
    return _REGISTRY.lookup(name)()


def select_artifacts(
    only: str | Iterable[str] | None = None,
) -> tuple[Artifact, ...]:
    """The manifest subset an ``--only`` expression names.

    Args:
        only: None for the whole manifest, a comma-separated string
            (``"fig7,table5"``) or an iterable of names.

    Returns:
        The selected artifacts, in manifest (sorted-name) order for
        None and in the caller's order otherwise.

    Raises:
        RegistryError: for an unknown artifact name.
    """
    if only is None:
        return tuple(get_artifact(name) for name in available_artifacts())
    if isinstance(only, str):
        only = [part.strip() for part in only.split(",") if part.strip()]
    return tuple(get_artifact(name) for name in only)


def _bench(module: str) -> str:
    return f"benchmarks.{module}:produce"


#: the paper's figures and tables plus this repo's perf baselines --
#: one artifact per benchmark module.
DEFAULT_ARTIFACTS: tuple[Artifact, ...] = (
    Artifact(
        name="fig3",
        title="The four backpropagation schedules as ASCII Gantt charts",
        paper_ref="Fig. 3",
        producer=_bench("test_fig3_schedule_gantt"),
        outputs=("fig3_schedules.txt",),
    ),
    Artifact(
        name="fig5",
        title="Performance-model fitting quality on both testbeds",
        paper_ref="Fig. 5, §6.2",
        producer=_bench("test_fig5_perf_models"),
        outputs=("fig5_testbed_A.txt", "fig5_testbed_B.txt"),
    ),
    Artifact(
        name="fig6",
        title="End-to-end speedups over DeepSpeed-MoE on real models",
        paper_ref="Fig. 6, §6.4",
        producer=_bench("test_fig6_e2e_models"),
        outputs=(
            "fig6_GPT2-XL_testbed_A.txt",
            "fig6_Mixtral-7B_testbed_A.txt",
            "fig6_Mixtral-22B_testbed_A.txt",
            "fig6_GPT2-XL_testbed_B.txt",
            "fig6_Mixtral-7B_testbed_B.txt",
        ),
    ),
    Artifact(
        name="fig7",
        title="Robustness to sequence length (L) and world size (P)",
        paper_ref="Fig. 7, §6.4",
        producer=_bench("test_fig7_varied_L_P"),
        outputs=("fig7_varied_L.txt", "fig7_varied_P.txt"),
    ),
    Artifact(
        name="fig8",
        title="Speedups with pipeline parallelism enabled (GPipe, N_PP=2)",
        paper_ref="Fig. 8, §6.4",
        producer=_bench("test_fig8_pipeline_parallel"),
        outputs=("fig8_pp.txt",),
    ),
    Artifact(
        name="table2",
        title="Per-operation time breakdown of one MoE layer",
        paper_ref="Table 2, §2.3",
        producer=_bench("test_table2_breakdown"),
        outputs=("table2_testbed_A.txt", "table2_testbed_B.txt"),
    ),
    Artifact(
        name="table5",
        title="Geo-mean speedups over Tutel on the Table-4 grid",
        paper_ref="Table 5, §6.3",
        producer=_bench("test_table5_configured_layers"),
        outputs=("table5_testbed_A.txt", "table5_testbed_B.txt"),
    ),
    Artifact(
        name="table6",
        title="Four gating functions on GPT2-XL, Testbed B",
        paper_ref="Table 6, §6.5",
        producer=_bench("test_table6_gating"),
        outputs=("table6_gating.txt",),
    ),
    Artifact(
        name="a2a-algorithms",
        title="AlltoAll algorithm crossover vs message size",
        paper_ref="§3.1 ablation",
        producer=_bench("test_ablation_a2a_algorithms"),
        outputs=(
            "ablation_a2a_algorithms_A.txt",
            "ablation_a2a_algorithms_B.txt",
        ),
    ),
    Artifact(
        name="fw-bw-degree",
        title="Fraction of configs whose fw and bw degrees differ",
        paper_ref="§4.4 ablation",
        producer=_bench("test_ablation_fw_bw_degree"),
        outputs=("ablation_fw_bw_degree.txt",),
    ),
    Artifact(
        name="gradient-partition",
        title="Gradient-aggregation strategies inside the 3-stream schedule",
        paper_ref="§5 ablation",
        producer=_bench("test_ablation_gradient_partition"),
        outputs=("ablation_gradient_partition.txt",),
    ),
    Artifact(
        name="slsqp-vs-oracle",
        title="Algorithm 1's SLSQP search vs the integer-sweep oracle",
        paper_ref="§4 ablation",
        producer=_bench("test_ablation_slsqp_vs_oracle"),
        outputs=("ablation_slsqp_vs_oracle.txt",),
        deterministic=False,  # reports measured solve times
    ),
    Artifact(
        name="perf-planner",
        title="Cold-planning wall time: batched Algorithm 1 vs SLSQP",
        paper_ref="repo baseline (BENCH_planner)",
        producer=_bench("test_perf_cold_plan"),
        outputs=("perf_cold_plan.txt", "BENCH_planner.json"),
        deterministic=False,
    ),
    Artifact(
        name="perf-step2",
        title="Step-2 partition solver: batched vs scalar objective",
        paper_ref="repo baseline (BENCH_planner step2 series)",
        producer=_bench("test_perf_step2"),
        outputs=("perf_step2.txt",),
        deterministic=False,
    ),
    Artifact(
        name="perf-serve",
        title="Coalescing PlanService throughput vs serial plan() loops",
        paper_ref="repo baseline (BENCH_serve)",
        producer=_bench("test_perf_serve"),
        outputs=("perf_serve.txt", "BENCH_serve.json"),
        deterministic=False,
    ),
    Artifact(
        name="perf-netserve",
        title="Network plan serving: open-loop wire latency and shed rate",
        paper_ref="repo baseline (BENCH_netserve)",
        producer=_bench("test_perf_netserve"),
        outputs=("perf_netserve.txt", "BENCH_netserve.json"),
        deterministic=False,
    ),
    Artifact(
        name="perf-cache",
        title="Tiered cache: L1 vs disk lookups, cross-process L3 hits",
        paper_ref="repo baseline (BENCH_cache)",
        producer=_bench("test_perf_cache"),
        outputs=("perf_cache.txt", "BENCH_cache.json"),
        deterministic=False,
    ),
    Artifact(
        name="perf-obs",
        title="Tracing overhead: traced vs untraced warm sweeps",
        paper_ref="repo baseline (BENCH_obs)",
        producer=_bench("test_perf_obs"),
        outputs=("perf_obs.txt", "BENCH_obs.json"),
        deterministic=False,
    ),
)

for _artifact in DEFAULT_ARTIFACTS:
    register_artifact(_artifact)
