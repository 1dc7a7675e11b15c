"""Ablation of §3.1's customizable dispatch: AlltoAll algorithm choice.

FSMoE pre-implements three AlltoAll algorithms (NCCL direct, Hetu 1DH,
Tutel/DeepSpeed 2DH) because the best one depends on message size: the
hierarchical variants aggregate the node's traffic into fewer, larger
messages (winning the per-peer latency game at small sizes) but pay an
intra-node staging phase (losing at large sizes).  This benchmark sweeps
message sizes on both testbeds, locates the crossover, and shows the
per-layer choice the plan compiler makes.
"""

from __future__ import annotations

from repro import MoELayerSpec
from repro.api.registry import get_cluster
from repro.bench.reporting import format_table
from repro.parallel.collectives import A2AAlgorithm, CollectiveCostModel
from repro.planner import PlanCompiler
from repro.report import ArtifactResult, ReportConfig

SIZES = tuple(int(4 ** i * 1e3) for i in range(1, 9))  # 4 KB .. 65 MB


def _crossover_table(testbed, cluster):
    """One testbed's cost sweep plus the small/large endpoint costs."""
    oracle = CollectiveCostModel(cluster)
    group = cluster.num_nodes
    rows = []
    for size in SIZES:
        costs = {
            algo: oracle.alltoall_ms(size, group, algo)
            for algo in A2AAlgorithm
        }
        best = min(costs, key=costs.get)
        rows.append(
            [
                f"{size / 1e6:.3f} MB",
                f"{costs[A2AAlgorithm.NCCL]:.4f}",
                f"{costs[A2AAlgorithm.HIER_1D]:.4f}",
                f"{costs[A2AAlgorithm.HIER_2D]:.4f}",
                best.value,
            ]
        )
    table = format_table(
        ["buffer", "NCCL (ms)", "1DH (ms)", "2DH (ms)", "best"],
        rows,
        title=(
            f"AlltoAll algorithm choice vs message size (Testbed "
            f"{testbed}, EP group of {group})"
        ),
    )
    endpoints = {
        "small_hier": oracle.alltoall_ms(SIZES[0], group, A2AAlgorithm.HIER_1D),
        "small_nccl": oracle.alltoall_ms(SIZES[0], group, A2AAlgorithm.NCCL),
        "large_hier": oracle.alltoall_ms(SIZES[-1], group, A2AAlgorithm.HIER_1D),
        "large_nccl": oracle.alltoall_ms(SIZES[-1], group, A2AAlgorithm.NCCL),
    }
    return table, endpoints


def produce(workspace, config: ReportConfig) -> ArtifactResult:
    """Regenerate the AlltoAll-crossover sweep for both testbeds."""
    outputs: dict[str, str] = {}
    endpoints: dict[str, dict[str, float]] = {}
    for testbed in ("A", "B"):
        cluster = get_cluster(testbed)
        table, ends = _crossover_table(testbed, cluster)
        outputs[f"ablation_a2a_algorithms_{testbed}.txt"] = table + "\n"
        endpoints[testbed] = ends
    return ArtifactResult(
        artifact="a2a-algorithms",
        outputs=outputs,
        data={"endpoints": endpoints},
    )


def test_a2a_algorithm_crossover(workspace, report_config, emit_result,
                                 benchmark):
    result = benchmark.pedantic(
        produce, args=(workspace, report_config), rounds=1, iterations=1
    )
    emit_result(result)
    # Shape: the hierarchical algorithm wins somewhere small, the direct
    # algorithm wins somewhere large -- a real crossover exists.
    for testbed, ends in result.data["endpoints"].items():
        assert ends["small_hier"] < ends["small_nccl"], testbed
        assert ends["large_nccl"] < ends["large_hier"], testbed


def test_compiler_picks_per_layer(cluster_b):
    compiler = PlanCompiler(cluster_b)
    tiny = MoELayerSpec(
        batch_size=1, seq_len=32, embed_dim=256, num_experts=8,
        top_k=1, capacity_factor=1.0, num_heads=4,
    )
    huge = MoELayerSpec(
        batch_size=4, seq_len=1024, embed_dim=4096, num_experts=8,
        top_k=2, capacity_factor=2.4, num_heads=32,
    )
    best_tiny, _ = compiler.best_a2a_algorithm(tiny)
    best_huge, _ = compiler.best_a2a_algorithm(huge)
    assert best_tiny is A2AAlgorithm.HIER_1D
    assert best_huge is A2AAlgorithm.NCCL
