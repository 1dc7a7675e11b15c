"""Ablation (paper §4.4): forward and backward need different degrees.

The paper reports that 912 of the 1458 configurations have different
optimal pipeline degrees for the forward and backward phases on Testbed B.
This benchmark reruns Algorithm 1 per phase over the (sub-sampled) grid
and reports the fraction.
"""

from __future__ import annotations

from repro import standard_layout
from repro.api.registry import get_cluster
from repro.bench import configured_layer_grid, format_table
from repro.core.pipeline_degree import find_optimal_pipeline_degree
from repro.report import ArtifactResult, ReportConfig

PAPER_FRACTION = 912 / 1458  # ~62.6%


def count_differing(cluster, store, stride):
    """(differing, total) forward/backward degree disagreements."""
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    models = store.models(cluster, parallel)
    specs = configured_layer_grid(
        "B", num_experts=cluster.num_nodes, stride=stride
    )
    differing = 0
    for spec in specs:
        profile = store.layer_profile(spec, parallel, models)
        context = store.solver_context
        fw = find_optimal_pipeline_degree(
            profile.ctx_fw, solver_context=context
        ).degree
        bw = find_optimal_pipeline_degree(
            profile.ctx_bw, solver_context=context
        ).degree
        if fw != bw:
            differing += 1
    return differing, len(specs)


def produce(workspace, config: ReportConfig) -> ArtifactResult:
    """Regenerate the fw-vs-bw degree-disagreement table."""
    cluster = get_cluster("B")
    stride = 1 if config.full else 9
    differing, total = count_differing(cluster, workspace.store, stride)
    fraction = differing / total
    table = format_table(
        ["metric", "measured", "paper"],
        [
            ["configs with fw != bw degree", f"{differing}/{total}",
             "912/1458"],
            ["fraction", f"{fraction:.1%}", f"{PAPER_FRACTION:.1%}"],
        ],
        title="Ablation §4.4 -- per-phase pipeline degrees (Testbed B grid)",
    )
    return ArtifactResult(
        artifact="fw-bw-degree",
        outputs={"ablation_fw_bw_degree.txt": table + "\n"},
        data={"fraction": fraction},
    )


def test_fw_bw_degrees_differ(workspace, report_config, emit_result,
                              benchmark):
    result = benchmark.pedantic(
        produce, args=(workspace, report_config), rounds=1, iterations=1
    )
    emit_result(result)
    # Shape: a substantial fraction of configurations differ, justifying
    # per-phase scheduling.
    assert result.data["fraction"] > 0.25
