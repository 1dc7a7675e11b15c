"""Tiered-cache performance: L1 vs disk lookups, cross-process L3 hits.

Two measurements, one committed baseline (``BENCH_cache.json``):

* **warm lookup latency** -- the same content-addressed plan probed
  through the in-memory L1 tier (:meth:`LRUCache.get`) and through the
  disk path (read + JSON decode + key validation), plus the end-to-end
  warm ``Workspace.plan()`` rate for context.  The tier exists to make
  warm lookups non-I/O; the floor asserts L1 >= 20x the disk path.
* **cross-process L3 warm hits** -- a 4-process fleet sharing one
  in-process :class:`~repro.cache.CacheServer`: the first process
  compiles cold (publishing plans *and* profiles), the other three run
  against fresh roots and must answer every plan fetch from the shared
  tier.  The floor asserts >= 75% of the non-compiling processes' plan
  fetches are L3 hits, proved by the exact per-tier counters.

Under ``REPRO_PERF_SMOKE=1`` the loops shrink and the committed JSON
baseline is not rewritten; both floors still hold.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro import Workspace
from repro.api.workspace import _load_plan
from repro.report import ArtifactResult, ReportConfig
from repro.cache import CacheServer
from repro.serve import duplicate_heavy_requests

from .conftest import RESULTS_DIR

RESULTS_PATH = RESULTS_DIR / "BENCH_cache.json"

SRC = Path(__file__).resolve().parent.parent / "src"

#: floor on the L1-vs-disk warm lookup ratio (both full and smoke).
MIN_L1_VS_DISK = 20.0

#: floor on the fleet's non-compiling plan fetches answered by L3.
MIN_L3_HIT_RATE = 0.75

#: the 4-process fleet: one cold compiler, three warm readers.
FLEET_WARM = 3

_CHILD = """
import json, sys
from repro import Workspace
from repro.serve import duplicate_heavy_requests

root, distinct, depth = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
requests = duplicate_heavy_requests(distinct, distinct, depth=depth)
ws = Workspace(root)  # remote tier from $REPRO_CACHE_REMOTE
for req in requests:
    ws.plan(
        req.stack, req.system, req.cluster, parallel=req.parallel,
        gate_kind=req.gate_kind, routing_overhead=req.routing_overhead,
        include_gar=req.include_gar, noise=req.noise, seed=req.seed,
    )
stats = ws.stats
cache = stats.cache
print(json.dumps({
    "plan_hits": stats.plan_hits,
    "plan_misses": stats.plan_misses,
    "profile_misses": stats.profiles.misses,
    "l2_hits": cache.l2.hits,
    "l3_hits": cache.l3.hits,
    "l3_misses": cache.l3.misses,
    "l3_writes": cache.l3.writes,
    "profiles_remote_hits": cache.profiles_remote.hits,
    "profiles_remote_writes": cache.profiles_remote.writes,
}))
"""


def _lookup_iterations(config: ReportConfig) -> int:
    if config.smoke:
        return 300
    return 2000


def _measure_lookup_tiers(scratch: Path, config: ReportConfig) -> dict:
    """Time one warm plan's L1 probe against its disk load."""
    request = duplicate_heavy_requests(1, 1, depth=4)[0]
    ws = Workspace(scratch / "lookup")
    plan_kwargs = dict(
        parallel=request.parallel,
        gate_kind=request.gate_kind,
        routing_overhead=request.routing_overhead,
        include_gar=request.include_gar,
        noise=request.noise,
        seed=request.seed,
    )
    ws.plan(request.stack, request.system, request.cluster, **plan_kwargs)

    key_json, dig = request.key_json, request.digest
    path = ws.plans_dir / f"{dig}.json"
    assert path.exists() and ws._l1.get(dig) is not None

    n = _lookup_iterations(config)
    start = time.perf_counter()
    for _ in range(n):
        assert ws._l1.get(dig) is not None
    l1_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(n):
        assert ws._read_disk(path, _load_plan, key_json) is not None
    disk_s = time.perf_counter() - start

    # End-to-end warm plan() rate for context: key encode + digest +
    # L1 hit, no disk and no solver.
    m = max(50, n // 4)
    start = time.perf_counter()
    for _ in range(m):
        ws.plan(request.stack, request.system, request.cluster,
                **plan_kwargs)
    warm_plan_s = time.perf_counter() - start

    return {
        "iterations": n,
        "l1_lookup_us": 1e6 * l1_s / n,
        "disk_lookup_us": 1e6 * disk_s / n,
        "l1_vs_disk": disk_s / l1_s if l1_s > 0 else float("inf"),
        "warm_plan_rps": m / warm_plan_s if warm_plan_s > 0 else 0.0,
    }


def _run_fleet(scratch: Path, config: ReportConfig) -> dict:
    """One cold process fills a shared L3; three warm processes hit it."""
    distinct, depth = (2, 2) if config.smoke else (2, 4)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    server = CacheServer()
    env["REPRO_CACHE_REMOTE"] = server.start()

    def child(tag: str) -> dict:
        root = scratch / f"fleet-{tag}"
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(root),
             str(distinct), str(depth)],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        cold = child("cold")
        warm = [child(f"warm{i}") for i in range(FLEET_WARM)]
    finally:
        stat = server.store.stats
        server.close()

    warm_lookups = sum(p["plan_hits"] + p["plan_misses"] for p in warm)
    warm_l3_hits = sum(p["l3_hits"] for p in warm)
    return {
        "processes": 1 + FLEET_WARM,
        "distinct_plans": distinct,
        "stack_depth": depth,
        "cold": cold,
        "warm": warm,
        "warm_plan_lookups": warm_lookups,
        "warm_l3_hits": warm_l3_hits,
        "l3_hit_rate": warm_l3_hits / warm_lookups if warm_lookups else 0.0,
        "warm_plans_compiled": sum(p["plan_misses"] for p in warm),
        "warm_profiles_fitted": sum(p["profile_misses"] for p in warm),
        "server": {
            "entries": stat.entries,
            "bytes": stat.bytes,
            "hits": stat.hits,
            "misses": stat.misses,
        },
    }


def produce(workspace, config: ReportConfig) -> ArtifactResult:
    """Measure the cache tiers and build the JSON baseline.

    Timing-dependent (registered non-deterministic); smoke runs omit
    the committed ``BENCH_cache.json`` so CI never rewrites the
    full-size baseline with scaled-down numbers.
    """
    with tempfile.TemporaryDirectory(prefix="repro-perf-cache-") as tmp:
        scratch = Path(tmp)
        lookup = _measure_lookup_tiers(scratch, config)
        fleet = _run_fleet(scratch, config)

    payload = {
        "lookup": {k: round(v, 4) if isinstance(v, float) else v
                   for k, v in lookup.items()},
        "fleet": fleet,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    summary = (
        f"cache tiers: L1 {lookup['l1_lookup_us']:.2f} us/lookup vs disk "
        f"{lookup['disk_lookup_us']:.2f} us ({lookup['l1_vs_disk']:.0f}x), "
        f"warm plan() {lookup['warm_plan_rps']:.0f} req/s; "
        f"fleet of {fleet['processes']}: {fleet['warm_l3_hits']}/"
        f"{fleet['warm_plan_lookups']} warm plan fetches from L3 "
        f"({100.0 * fleet['l3_hit_rate']:.0f}%), "
        f"{fleet['warm_plans_compiled']} warm compiles"
    )
    outputs = {"perf_cache.txt": summary + "\n"}
    if not config.smoke:
        outputs["BENCH_cache.json"] = json.dumps(payload, indent=2) + "\n"
    return ArtifactResult(
        artifact="perf-cache",
        outputs=outputs,
        data={"lookup": lookup, "fleet": fleet},
    )


def test_cache_tiers(workspace, report_config, emit_result, benchmark):
    result = benchmark.pedantic(
        produce, args=(workspace, report_config), rounds=1, iterations=1
    )
    emit_result(result)

    lookup = result.data["lookup"]
    assert lookup["l1_vs_disk"] >= MIN_L1_VS_DISK, (
        f"L1 warm lookup is only {lookup['l1_vs_disk']:.1f}x the disk "
        f"path (required >= {MIN_L1_VS_DISK}x)"
    )

    fleet = result.data["fleet"]
    # Only the cold process compiles or fits anything...
    assert fleet["cold"]["plan_misses"] == fleet["distinct_plans"]
    assert fleet["cold"]["l3_writes"] == fleet["distinct_plans"]
    assert fleet["warm_plans_compiled"] == 0
    assert fleet["warm_profiles_fitted"] == 0
    # ...and the warm fleet answers its plan fetches from the shared
    # tier (fresh roots: L1 and disk start empty).
    assert fleet["l3_hit_rate"] >= MIN_L3_HIT_RATE, (
        f"only {100.0 * fleet['l3_hit_rate']:.0f}% of warm plan fetches "
        f"hit L3 (required >= {100.0 * MIN_L3_HIT_RATE:.0f}%)"
    )
