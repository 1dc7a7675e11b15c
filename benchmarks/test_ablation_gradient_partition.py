"""Ablation of §5: how much does adaptive gradient partitioning buy?

Compares four variants of FSMoE's backward pass on Mixtral-7B (Testbed A):

* ``exposed``   -- Gradient-AllReduce fully exposed at the end (no §5);
* ``step1``     -- greedy window fill only (Eq. 3/4, no differential
  evolution over the residual);
* ``full``      -- the complete two-step plan (paper FSMoE);
* ``lina-30MB`` -- Lina's fixed chunks, for reference.

The paper's Table 5 attributes ~9-13% of FSMoE's gain to the gradient
machinery (FSMoE-No-IIO over Tutel); this ablation isolates it inside the
three-stream schedule.
"""

from __future__ import annotations

from repro import standard_layout
from repro.api.registry import get_cluster
from repro.bench.reporting import format_table
from repro.core.gradient_partition import (
    GeneralizedLayer,
    plan_gradient_partition,
)
from repro.core.pipeline_degree import find_optimal_pipeline_degree
from repro.core.schedules import (
    GarMode,
    IterationSpec,
    LayerPhaseSchedule,
    THREE_STREAM,
    build_iteration_graph,
)
from repro.models import MIXTRAL_7B, layer_spec_for
from repro.report import ArtifactResult, ReportConfig
from repro.sim import simulate


def build_variant(profiles, models, gar_mode, plan, context, r_max=16):
    """One IterationSpec for a (gar_mode, partition-plan) combination."""

    def forward_degree(profile):
        return find_optimal_pipeline_degree(
            profile.ctx_fw, r_max=r_max, solver_context=context
        ).degree

    forward = tuple(
        LayerPhaseSchedule(
            ctx=p.ctx_fw, degree=forward_degree(p),
            dense_ms=p.dense_fw_ms,
        )
        for p in profiles
    )
    if plan is not None:
        backward = tuple(
            LayerPhaseSchedule(
                ctx=p.ctx_bw.with_t_gar(plan.t_gar_ms[i]),
                degree=plan.solutions[i].degree,
                dense_ms=p.dense_bw_ms,
            )
            for i, p in enumerate(profiles)
        )
    else:
        backward = tuple(
            LayerPhaseSchedule(
                ctx=p.ctx_bw, degree=forward_degree(p),
                dense_ms=p.dense_bw_ms,
            )
            for p in profiles
        )
    return IterationSpec(
        name="ablation",
        forward=forward,
        backward=backward,
        grad_bytes=tuple(p.grad_bytes for p in profiles),
        ar_model=models.allreduce,
        streams=THREE_STREAM,
        gar_mode=gar_mode,
        plan=plan,
    )


def run_ablation(cluster, num_layers, store):
    """Makespans of the four gradient-aggregation variants."""
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    models = store.models(cluster, parallel)
    spec = layer_spec_for(
        MIXTRAL_7B, batch_size=1, seq_len=1024, num_experts=parallel.n_ep
    )
    profiles = [store.layer_profile(spec, parallel, models)] * num_layers
    layers = [
        GeneralizedLayer(
            ctx=p.ctx_bw,
            dense_overlappable_ms=p.dense_bw_ms,
            grad_bytes=p.grad_bytes,
        )
        for p in profiles
    ]
    context = store.solver_context
    plan_step1 = plan_gradient_partition(
        layers, models.allreduce, use_differential_evolution=False,
        solver_context=context,
    )
    plan_full = plan_gradient_partition(
        layers, models.allreduce, seed=0, solver_context=context
    )

    variants = {
        "exposed (no §5)": build_variant(
            profiles, models, GarMode.END, None, context
        ),
        "step1 only": build_variant(
            profiles, models, GarMode.ADAPTIVE, plan_step1, context
        ),
        "full plan (FSMoE)": build_variant(
            profiles, models, GarMode.ADAPTIVE, plan_full, context
        ),
        "lina-30MB": build_variant(
            profiles, models, GarMode.FIXED_CHUNKS, None, context
        ),
    }
    return {
        name: simulate(build_iteration_graph(spec)).makespan_ms
        for name, spec in variants.items()
    }


def produce(workspace, config: ReportConfig) -> ArtifactResult:
    """Regenerate the §5 gradient-partition ablation table."""
    cluster = get_cluster("A")
    num_layers = MIXTRAL_7B.num_layers if config.full else 6
    times = run_ablation(cluster, num_layers, workspace.store)
    baseline = times["exposed (no §5)"]
    rows = [
        [name, f"{t:.1f}", f"{baseline / t:.3f}x"]
        for name, t in times.items()
    ]
    table = format_table(
        ["variant", "iteration (ms)", "speedup vs exposed"],
        rows,
        title=(
            "Ablation §5 -- gradient-aggregation strategies inside the "
            "FSMoE 3-stream schedule (Mixtral-7B, Testbed A)"
        ),
    )
    return ArtifactResult(
        artifact="gradient-partition",
        outputs={"ablation_gradient_partition.txt": table + "\n"},
        data={"times": times},
    )


def test_gradient_partition_ablation(workspace, report_config, emit_result,
                                     benchmark):
    result = benchmark.pedantic(
        produce, args=(workspace, report_config), rounds=1, iterations=1
    )
    emit_result(result)
    times = result.data["times"]
    assert times["full plan (FSMoE)"] <= times["step1 only"] + 1e-6
    assert times["full plan (FSMoE)"] < times["exposed (no §5)"]
