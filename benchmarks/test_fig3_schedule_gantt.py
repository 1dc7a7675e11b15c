"""Reproduces paper Fig. 3: the four backpropagation schedules.

Renders the executed timelines (ASCII Gantt, same glyph legend as the
paper: D/C AlltoAll, G/S ESP collectives, E experts, R Gradient-AllReduce,
o others) for the default schedule, Tutel/PipeMoE, FSMoE without gradient
partitioning and full FSMoE on one configured layer, and checks the
qualitative claims: each added overlap shortens the makespan.
"""

from __future__ import annotations

from repro import MoELayerSpec, standard_layout
from repro.api.registry import get_cluster
from repro.models import profile_layer
from repro.report import ArtifactResult, ReportConfig
from repro.systems import DeepSpeedMoE, FSMoE, Tutel, TutelImproved

SYSTEMS = (DeepSpeedMoE(), Tutel(), TutelImproved(), FSMoE())


def render_all(cluster, models, solver_context=None):
    """ASCII Gantt text plus per-system makespans on one layer pair."""
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    spec = MoELayerSpec(
        batch_size=2,
        seq_len=1024,
        embed_dim=2048,
        hidden_scale=3,
        num_experts=parallel.n_ep,
        top_k=2,
        capacity_factor=1.2,
        num_heads=16,
    )
    profile = profile_layer(spec, parallel, models)
    profiles = [profile, profile]
    blocks = []
    makespans = {}
    for system in SYSTEMS:
        timeline = system.timeline(
            profiles, models, phase="backward",
            solver_context=solver_context,
        )
        makespans[system.name] = timeline.makespan_ms
        blocks.append(
            f"--- {system.name} (backward, {timeline.makespan_ms:.2f} ms) ---\n"
            f"{timeline.gantt_ascii(width=96)}"
        )
    return "\n\n".join(blocks), makespans


def produce(workspace, config: ReportConfig) -> ArtifactResult:
    """Regenerate the Fig. 3 schedule Gantt charts (Testbed B)."""
    cluster = get_cluster("B")
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    models = workspace.store.models(cluster, parallel)
    text, makespans = render_all(
        cluster, models, workspace.store.solver_context
    )
    body = (
        "Fig. 3 -- backward-pass schedules (glyphs: D dispatch, C combine, "
        "G allgather, S reducescatter, E experts, R grad-allreduce, "
        "o others)\n\n" + text
    )
    return ArtifactResult(
        artifact="fig3",
        outputs={"fig3_schedules.txt": body + "\n"},
        data={"makespans": makespans},
    )


def test_fig3_schedules(workspace, report_config, emit_result, benchmark):
    result = benchmark.pedantic(
        produce, args=(workspace, report_config), rounds=1, iterations=1
    )
    emit_result(result)
    makespans = result.data["makespans"]
    # Fig. 3's qualitative claim: (a) default is slowest; (d) FSMoE's
    # 3-stream overlap + gradient partitioning is fastest.
    assert makespans["FSMoE"] < makespans["Tutel"]
    assert makespans["Tutel"] <= makespans["DS-MoE"]
    assert makespans["FSMoE"] < makespans["DS-MoE"] / 1.2
