#!/usr/bin/env python
"""Capacity planning: how fast would Mixtral-7B train on each testbed?

A downstream-user scenario: given a model and a cluster, estimate the
iteration time under every training system, the benefit of FSMoE's
scheduling, and where the time goes (communication vs computation) --
the kind of what-if analysis the simulated substrate makes free.

Run:  python examples/mixtral_cluster_planning.py [workspace-dir]

Pass a directory to keep the workspace between runs: the second
invocation answers every what-if from the persistent caches.
"""

import sys
import tempfile

from repro import (
    ExperimentSpec,
    StackSpec,
    Workspace,
    get_cluster,
    standard_layout,
)
from repro.bench import format_table
from repro.models import MIXTRAL_7B, layer_op_breakdown, layer_spec_for
from repro.models.memory import estimate_memory, max_layers_that_fit

def plan(workspace, testbed: str, seq_len: int, num_layers: int) -> None:
    store = workspace.store
    cluster = get_cluster(testbed)
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    models = store.models(cluster, parallel)

    spec = layer_spec_for(
        MIXTRAL_7B, batch_size=1, seq_len=seq_len, num_experts=parallel.n_ep
    )

    # memory check first -- the paper trims layer counts exactly this way.
    gpu_gib = cluster.node.gpu.memory_gib
    footprint = estimate_memory(spec, parallel, num_layers)
    limit = max_layers_that_fit(spec, parallel, gpu_gib)
    print(f"{cluster.name}: {num_layers} layers -> "
          f"{footprint.total_gib:.1f} GiB/GPU of {gpu_gib:.0f} GiB "
          f"({'fits' if footprint.fits(gpu_gib) else 'DOES NOT FIT'}; "
          f"max {limit} layers)")
    profile = store.layer_profile(spec, parallel, models)
    breakdown = layer_op_breakdown(profile, models, "backward")
    total = sum(breakdown.values())
    comm = (
        breakdown["AlltoAll"] + breakdown["AllGather"]
        + breakdown["ReduceScatter"] + breakdown["AllReduce"]
    )

    experiment = ExperimentSpec(
        name=f"mixtral-{testbed}",
        clusters=(testbed,),
        systems=("dsmoe", "tutel", "fsmoe"),
        stacks=(
            StackSpec(
                model=MIXTRAL_7B.name, seq_len=seq_len, num_layers=num_layers
            ),
        ),
    )
    (result,) = workspace.sweep(experiment).config_results()
    tokens = spec.batch_size * seq_len * parallel.n_dp

    rows = []
    for name in ("DS-MoE", "Tutel", "FSMoE"):
        t = result.times_ms[name]
        rows.append([
            name,
            f"{t:.1f}",
            f"{result.speedup(name, 'DS-MoE'):.2f}x",
            f"{tokens / (t / 1000.0):,.0f}",
        ])
    print(format_table(
        ["system", "iter (ms)", "vs DS-MoE", "tokens/s"],
        rows,
        title=(
            f"{cluster.name}: Mixtral-7B ({num_layers} layers, L={seq_len})"
            f" -- backward comm share {100 * comm / total:.0f}%"
        ),
    ))
    print()


def main(workspace: Workspace) -> None:
    # One workspace for both testbeds: re-running a what-if against an
    # already-profiled deployment costs nothing -- and with an on-disk
    # root, neither does re-running the whole script.
    plan(workspace, "A", seq_len=1024, num_layers=7)
    plan(workspace, "B", seq_len=256, num_layers=7)
    stats = workspace.stats
    print(f"(workspace {workspace.root}: {stats.profiles.misses} profiles "
          f"fitted, {stats.plan_misses} plans compiled this run; "
          f"{stats.profiles.hits} profiles and {stats.plan_hits} plans "
          f"served from cache)")
    print("Reading: FSMoE's gains grow with the communication share; the "
          "simulator lets you answer 'is this cluster worth it?' before "
          "renting it.")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(Workspace(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory(prefix="repro-planning-") as tmp:
            main(Workspace(tmp))
