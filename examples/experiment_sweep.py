#!/usr/bin/env python
"""The unified experiment API: Workspace + ExperimentSpec + registries.

The new front door in four steps:

1. describe a whole experiment -- clusters x stacks x systems -- as one
   declarative, serializable :class:`ExperimentSpec` (systems, models and
   clusters are named through the string registries, no imports needed);
2. open a :class:`Workspace`: a disk-rooted session owning a persistent
   profile store and a content-addressed plan cache;
3. sweep the grid; every profile and every compiled plan lands on disk;
4. re-run the sweep -- in this process or any later one -- and observe
   *zero* new profiles and *zero* new plans via the exact counters; any
   plan serializes to JSON and replays bit-identically.

The same spec drives the CLI:  python -m repro sweep spec.json -w ws

Run:  python examples/experiment_sweep.py
"""

import tempfile
import time

from repro import (
    ExperimentSpec,
    IterationPlan,
    Workspace,
    available_systems,
)

# 1. the experiment, as data.  This dict could equally live in a JSON or
# TOML file (ExperimentSpec.from_file) and run via `python -m repro sweep`.
SPEC = ExperimentSpec.from_dict(
    {
        "name": "demo-grid",
        "clusters": ["B"],
        "systems": ["tutel", "fsmoe"],
        "stacks": [
            {"model": "GPT2-XL", "seq_len": 512, "num_layers": 2},
            {
                "layers": [
                    {"batch_size": 1, "seq_len": 512, "embed_dim": 1024,
                     "num_experts": 24, "num_heads": 16},
                    {"batch_size": 1, "seq_len": 512, "embed_dim": 2048,
                     "num_experts": 24, "num_heads": 16},
                ]
            },  # a heterogeneous stack is just another grid entry
        ],
        "solver": "slsqp",  # the fast Step-2 solver for FSMoE
    }
)

with tempfile.TemporaryDirectory(prefix="repro-demo-ws-") as root:
    # 2. the session.  Point several processes at the same directory and
    # they share one cache.
    workspace = Workspace(root)
    print(f"registered systems: {', '.join(available_systems())}")

    # 3. the cold sweep: profiles fitted, plans compiled, all persisted.
    t0 = time.perf_counter()
    result = workspace.sweep(SPEC)
    cold_s = time.perf_counter() - t0
    stats = workspace.stats
    print(f"\ncold sweep: {len(result)} points in {cold_s:.1f}s "
          f"({stats.profiles.misses} profiles fitted, "
          f"{stats.plan_misses} plans compiled)")
    for row in result.rows():
        print(f"  {row['cluster']:<10} M={row['embed_dim']:<5} "
              f"{row['system']:>6}: {row['makespan_ms']:8.2f} ms")

    # 4. the warm re-run: a NEW session over the same directory computes
    # nothing -- every profile and plan comes off disk, bit-identically.
    rerun = Workspace(root)
    t0 = time.perf_counter()
    replay = rerun.sweep(SPEC)
    warm_s = time.perf_counter() - t0
    stats = rerun.stats
    assert stats.warm, stats
    assert [p.makespan_ms for p in replay.points] == [
        p.makespan_ms for p in result.points
    ]
    print(f"\nwarm re-run: {warm_s:.2f}s -- "
          f"{stats.profiles.misses} profiles fitted, "
          f"{stats.plan_misses} plans compiled, "
          f"{stats.plan_hits} plans replayed from cache")
    print("every makespan identical to the cold run (bit-identical replay)")

    # any plan serializes to JSON and replays bit-identically -- the
    # heterogeneous stack's included.
    plan = replay.points[-1].plan
    assert IterationPlan.from_json(plan.to_json()).simulate() == (
        plan.simulate()
    )
    print(f"heterogeneous plan: degrees {plan.degrees}, "
          "JSON round-trip OK")

    info = rerun.cache_info()
    print(f"\nworkspace layout: {info['plan_entries']} plan files "
          f"({info['plan_bytes']} bytes) + {info['profile_files']} "
          f"profile files under profiles/")
    print("CLI equivalent:  python -m repro sweep spec.json "
          f"--workspace {root} --expect-warm")
