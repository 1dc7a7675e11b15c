"""Seeded request lists for the three workloads.

Every list is a pure function of its arguments: the same seed gives the
same requests in the same order.  Requests are ``plan`` payloads in the
``repro serve --requests`` line schema, so the in-process worker and the
wire clients speak the same documents.

The composition of each list -- how many requests go to each system,
gate, testbed and stack depth -- is fixed and independent of the seed;
the seed only draws the layer shapes and the order.  Planning cost
depends mostly on that composition, so two seeds measure the same
amount of work and differ only in which plans do it.
"""

from __future__ import annotations

import itertools
import json
import random

#: every registered training system.
SYSTEMS = (
    "dsmoe", "tutel", "tutel-improved", "pipemoe-lina", "fsmoe-no-iio",
    "fsmoe",
)

#: every pre-implemented routing function.
GATES = ("gshard", "sigmoid", "xmoe", "expert_choice")

#: testbeds A and B, each whole and at half size: (name, GPUs, nodes).
CLUSTERS = (("A", 48, 6), ("A", 24, 3), ("B", 32, 8), ("B", 16, 4))

#: stack depths a request may ask for.
DEPTHS = (1, 2, 3, 4)

#: the layer-shape dimensions the seed draws from (the paper's Table 4).
BATCH_SIZES = (1, 2, 4)
NUM_HEADS = (8, 16, 32)
SEQ_LENS = {"A": (512, 1024, 2048), "B": (256, 512, 1024)}
EMBED_DIMS = (1024, 2048, 4096)
HIDDEN_SCALES = (2.0, 3.0, 4.0)
CAPACITY_FACTORS = (1.2, 2.4, None)
FFN_TYPES = ("simple", "mixtral")

#: layer shapes per testbed that one run's stacks are built from.
LAYER_POOL = 6

#: warm-wire working set: small enough that every plan stays in the
#: server's completed-plan cache.
WARM_SET_SIZE = 64

#: fleet-wire catalog size: above the 1024-entry L1 and completed-plan
#: bounds, below the cache server's 4096-entry bound.
FLEET_CATALOG_SIZE = 2016

#: Zipf exponent of fleet-wire popularity.
FLEET_ZIPF_S = 0.8

#: layer shapes per testbed in the fleet catalog.
FLEET_LAYER_POOL = 8


def canonical(payload: dict) -> str:
    """Deterministic JSON text of a payload (identity for distinctness)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _grid_order(salt: str) -> list[tuple]:
    """Every (cluster, gate, depth, system) cell in a fixed mixed order.

    The order depends on ``salt`` only, never on the run's seed, so a
    prefix of it has the same composition for every seed.
    """
    grid = list(itertools.product(CLUSTERS, GATES, DEPTHS, SYSTEMS))
    random.Random(salt).shuffle(grid)
    return grid


def _layer(rng: random.Random, testbed: str, nodes: int) -> dict:
    """One seeded layer shape for a testbed with ``nodes`` nodes."""
    heads = rng.choice(NUM_HEADS)
    return {
        "batch_size": rng.choice(BATCH_SIZES),
        "seq_len": rng.choice(SEQ_LENS[testbed]),
        "embed_dim": rng.choice(EMBED_DIMS),
        "hidden_scale": rng.choice(HIDDEN_SCALES),
        "num_experts": nodes * rng.choice((1, 2)),
        "top_k": 2,
        "capacity_factor": rng.choice(CAPACITY_FACTORS),
        "num_heads": heads,
        "ffn_type": rng.choice(FFN_TYPES),
    }


def _payload(cluster: tuple, system: str, gate: str, layers: list) -> dict:
    name, gpus, _ = cluster
    return {
        "cluster": {"name": name, "total_gpus": gpus},
        "system": system,
        "gate": gate,
        "stack": {"layers": layers},
    }


def _distinct_list(seed: int, count: int, salt: str) -> list[dict]:
    """``count`` pairwise-distinct payloads over the fixed grid order.

    Stacks draw their layers from a fixed pool of :data:`LAYER_POOL`
    shapes per testbed, the way real stacks repeat layer shapes, so
    plans share some layer profiles and every plan is still distinct.
    The pool is seed-independent because the shapes set the cost of
    profiling and solving; the seed draws each stack from it.
    """
    pool_rng = random.Random(f"{salt}:pool")
    pools = {
        cluster: [
            _layer(pool_rng, cluster[0], cluster[2]) for _ in range(LAYER_POOL)
        ]
        for cluster in CLUSTERS
    }
    rng = random.Random(f"{salt}:{seed}")
    grid = _grid_order(salt)
    seen: set[str] = set()
    payloads: list[dict] = []
    for index in range(count):
        cluster, gate, depth, system = grid[index % len(grid)]
        while True:
            layers = [rng.choice(pools[cluster]) for _ in range(depth)]
            payload = _payload(cluster, system, gate, layers)
            key = canonical(payload)
            if key not in seen:
                break
        seen.add(key)
        payloads.append(payload)
    rng.shuffle(payloads)
    return payloads


def cold_requests(seed: int, count: int) -> list[dict]:
    """cold-compile: ``count`` distinct payloads spanning every system,
    gate, testbed size and depth 1-4."""
    return _distinct_list(seed, count, "cold")


def warm_set() -> list[dict]:
    """warm-wire: the fixed :data:`WARM_SET_SIZE` distinct plans.

    Seed-independent: answering a summary re-simulates the plan, so its
    cost follows the plan's task graph, and a per-seed set would change
    the work with the seed.  Each run's seed orders the requests.
    """
    return _distinct_list(0, WARM_SET_SIZE, "warm")


def warm_stream(seed: int, count: int) -> list[int]:
    """warm-wire: ``count`` indices into :func:`warm_set`, each plan
    requested equally often (to within one), in seeded order."""
    stream = [index % WARM_SET_SIZE for index in range(count)]
    random.Random(f"warm-stream:{seed}").shuffle(stream)
    return stream


def fleet_catalog() -> list[dict]:
    """fleet-wire: the fixed catalog of :data:`FLEET_CATALOG_SIZE` plans.

    Seed-independent, so one compile of it serves every run of a
    checkout; each run's seed picks which plans are popular.  Stacks are
    drawn from a small per-testbed pool of layer shapes.
    """
    rng = random.Random("fleet-catalog")
    cells = list(itertools.product(CLUSTERS, SYSTEMS, GATES))
    per_cell = FLEET_CATALOG_SIZE // len(cells)
    payloads: list[dict] = []
    seen: set[str] = set()
    for cluster in CLUSTERS:
        pool = [
            _layer(rng, cluster[0], cluster[2])
            for _ in range(FLEET_LAYER_POOL)
        ]
        stacks: list[list[dict]] = []
        stack_keys: set[str] = set()
        while len(stacks) < per_cell:
            depth = DEPTHS[len(stacks) % len(DEPTHS)]
            stack = [rng.choice(pool) for _ in range(depth)]
            key = json.dumps(stack, sort_keys=True)
            if key not in stack_keys:
                stack_keys.add(key)
                stacks.append(stack)
        for _, system, gate in (c for c in cells if c[0] == cluster):
            for stack in stacks:
                payload = _payload(cluster, system, gate, stack)
                seen.add(canonical(payload))
                payloads.append(payload)
    if len(seen) != FLEET_CATALOG_SIZE:
        raise RuntimeError("fleet catalog plans are not distinct")
    return payloads


def zipf_counts(total: int, size: int, s: float = FLEET_ZIPF_S) -> list[int]:
    """Requests per popularity rank: Zipf(``s``) shares of ``total``,
    rounded by largest remainder so they sum to ``total`` exactly."""
    weights = [1.0 / (rank + 1) ** s for rank in range(size)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    short = total - sum(counts)
    by_remainder = sorted(
        range(size), key=lambda r: (counts[r] - exact[r], r)
    )
    for rank in by_remainder[:short]:
        counts[rank] += 1
    return counts


def fleet_stream(seed: int, count: int) -> list[int]:
    """fleet-wire: ``count`` catalog indices with Zipf-like popularity.

    The per-rank request counts are fixed (:func:`zipf_counts`); the
    seed maps ranks to catalog plans and shuffles the order, so every
    seed touches the same number of distinct plans.
    """
    rng = random.Random(f"fleet-stream:{seed}")
    plans = list(range(FLEET_CATALOG_SIZE))
    rng.shuffle(plans)
    stream: list[int] = []
    for rank, times in enumerate(zipf_counts(count, FLEET_CATALOG_SIZE)):
        stream.extend([plans[rank]] * times)
    rng.shuffle(stream)
    return stream
