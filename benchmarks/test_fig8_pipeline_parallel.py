"""Reproduces paper Fig. 8: speedups with pipeline parallelism enabled.

Testbed A with N_PP = 2 (GPipe): the model's layers split into two
contiguous stages of three nodes each; each stage runs the per-system
schedule per micro-batch and gradient synchronization is charged once at
the pipeline flush.  Stage plans are *heterogeneous*: an odd layer count
gives the stages different depths (Mixtral-7B's 7 layers split 4 + 3),
and :func:`gpipe_iteration_ms` consumes the per-stage times directly.

Paper: FSMoE averages 2.46x over DS-MoE, 1.16x over Tutel, 1.10x over
Tutel-Improved, 1.12x over PipeMoE+Lina and 1.05x over FSMoE-No-IIO.
"""

from __future__ import annotations

from repro import standard_layout
from repro.api.registry import get_cluster
from repro.bench.reporting import format_table
from repro.models import MIXTRAL_7B, gpipe_iteration_ms, layer_spec_for, \
    microbatch_spec, split_stages
from repro.report import ArtifactResult, ReportConfig
from repro.systems import (
    DeepSpeedMoE,
    FSMoE,
    FSMoENoIIO,
    PipeMoELina,
    Tutel,
    TutelImproved,
)

N_PP = 2
N_MICRO = 4
SYSTEM_ORDER = (
    "DS-MoE", "Tutel", "Tutel-Improved", "PipeMoE+Lina", "FSMoE-No-IIO",
    "FSMoE",
)


def pp_iteration_ms(system, preset, cluster, num_layers, store):
    """One GPipe iteration for ``system`` on a 2-stage split of the model."""
    parallel = standard_layout(
        cluster.total_gpus, cluster.gpus_per_node, n_pp=N_PP
    )
    models = store.models(cluster, parallel)
    spec = layer_spec_for(
        preset, batch_size=1, seq_len=1024, num_experts=parallel.n_ep
    )
    micro = microbatch_spec(spec, N_MICRO)
    profile = store.layer_profile(micro, parallel, models)
    fw, bw_no_gar, gar_exposed = [], [], []
    for stage_layers in split_stages(num_layers, N_PP):
        profiles = [profile] * stage_layers
        stage_fw, stage_bw, stage_bw_gar = system.phase_times_ms(
            profiles, models, solver_context=store.solver_context
        )
        fw.append(stage_fw)
        bw_no_gar.append(stage_bw)
        gar_exposed.append(stage_bw_gar - stage_bw)
    return gpipe_iteration_ms(
        fw, bw_no_gar, gar_exposed, num_stages=N_PP, num_micro=N_MICRO
    )


def produce(workspace, config: ReportConfig) -> ArtifactResult:
    """Regenerate the Fig. 8 pipeline-parallel speedup table."""
    cluster = get_cluster("A")
    # An odd default layer count exercises the heterogeneous-stage path
    # (stages of 3 and 2 layers) even in the subsampled run.
    num_layers = MIXTRAL_7B.num_layers if config.full else 5
    times = {}
    for system in (
        DeepSpeedMoE(), Tutel(), TutelImproved(), PipeMoELina(),
        FSMoENoIIO(), FSMoE(),
    ):
        times[system.name] = pp_iteration_ms(
            system, MIXTRAL_7B, cluster, num_layers, workspace.store
        )

    rows = [
        [
            name,
            f"{times[name]:.1f}",
            f"{times['DS-MoE'] / times[name]:.2f}x",
        ]
        for name in SYSTEM_ORDER
    ]
    table = format_table(
        ["System", "GPipe iteration (ms)", "speedup vs DS-MoE"],
        rows,
        title=(
            "Fig. 8 -- Mixtral-7B with PP enabled (N_PP=2, GPipe, 4 "
            "micro-batches), Testbed A.  Paper: FSMoE 2.46x over DS-MoE, "
            "1.16x over Tutel, 1.05x over FSMoE-No-IIO."
        ),
    )
    return ArtifactResult(
        artifact="fig8",
        outputs={"fig8_pp.txt": table + "\n"},
        data={"times": times},
    )


def test_fig8_pp_enabled(workspace, report_config, emit_result, benchmark):
    result = benchmark.pedantic(
        produce, args=(workspace, report_config), rounds=1, iterations=1
    )
    emit_result(result)
    times = result.data["times"]
    assert times["FSMoE"] < times["Tutel"] < times["DS-MoE"]
    assert times["FSMoE"] < times["FSMoE-No-IIO"]
