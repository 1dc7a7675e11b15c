"""The in-process planning caller (cold-compile) and reference compiler.

    python3 planbench/worker.py cold ROOT L3 REQUESTS OUT TRACE
    python3 planbench/worker.py compile ROOT L3 REQUESTS OUT

Both modes import ``repro``, open a :class:`~repro.Workspace` at ROOT
(write-through to the cache server at L3; ``-`` for none) and print
``ready``.

``cold`` then waits for one line on standard input: ``go`` plans every
payload of the REQUESTS file in order, timing each ``Workspace.plan``
call plus ``makespan_ms()``, and writes the phase's results to OUT; end
of input exits at once (a set-up probe).  With TRACE 1 the layer
wrappers time the phase.

``compile`` plans every payload and writes, per payload, the plan's
summary and the hash of its document, plus every document the workspace
published to the cache server.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from planbench import procfs  # noqa: E402
from planbench.check import check_roundtrip, plan_hash  # noqa: E402
from planbench.layers import LayerClock, workspace_counts  # noqa: E402


def _plan(workspace, request):
    plan = workspace.plan(
        request.stack, request.system, request.cluster,
        parallel=request.parallel, gate_kind=request.gate_kind,
        routing_overhead=request.routing_overhead,
        include_gar=request.include_gar, noise=request.noise,
        seed=request.seed,
    )
    return plan, plan.makespan_ms()


def _open(root: str, l3: str):
    from repro import Workspace

    return Workspace(root, remote="" if l3 == "-" else l3, trace=False)


def cold(root: str, l3: str, requests_path: str, out: str, trace: bool) -> int:
    from repro.serve import parse_plan_payload

    clock = LayerClock()
    if trace:
        clock.install()
    workspace = _open(root, l3)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    payloads = json.loads(Path(requests_path).read_text())
    requests = [parse_plan_payload(payload) for payload in payloads]

    before = workspace.stats
    cpu_before = procfs.cpu_seconds()
    answers: list[tuple[object, float, float]] = []
    errors: list[str] = []
    if trace:
        clock.start()
    started = time.perf_counter()
    for request in requests:
        begin = time.perf_counter()
        try:
            plan, makespan = _plan(workspace, request)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        answers.append((plan, makespan, time.perf_counter() - begin))
    wall_s = time.perf_counter() - started
    phase = clock.stop() if trace else None
    cpu_s = procfs.cpu_seconds() - cpu_before
    peak_rss_mb = procfs.peak_rss_mb()
    counts = workspace_counts(workspace.stats, before)
    latencies_ms = []
    for plan, makespan, latency in answers:
        if check_roundtrip(plan, makespan):
            latencies_ms.append(latency * 1e3)
        else:
            errors.append(f"{plan.name}: makespan changed on JSON replay")
    result = {
        "attempted": len(requests),
        "answered": len(latencies_ms),
        "errors": errors[:5],
        "latencies_ms": latencies_ms,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "counts": counts,
        "phase": phase,
    }
    Path(out).write_text(json.dumps(result))
    return 0


def compile_all(root: str, l3: str, requests_path: str, out: str) -> int:
    from repro.cache.remote import RemoteTier
    from repro.serve import parse_plan_payload, plan_summary

    documents: dict[str, str] = {}
    put = RemoteTier.put

    def recording_put(self, key: str, value: str) -> bool:
        documents[key] = value
        return put(self, key, value)

    RemoteTier.put = recording_put
    workspace = _open(root, l3)
    print("ready", flush=True)
    results = []
    for payload in json.loads(Path(requests_path).read_text()):
        plan, _ = _plan(workspace, parse_plan_payload(payload))
        results.append(
            {"summary": plan_summary(plan), "hash": plan_hash(plan.to_dict())}
        )
    Path(out).write_text(
        json.dumps({"results": results, "documents": documents})
    )
    return 0


def main(argv: list[str]) -> int:
    mode, root, l3, requests_path, out = argv[:5]
    os.makedirs(root, exist_ok=True)
    if mode == "cold":
        return cold(root, l3, requests_path, out, argv[5] == "1")
    if mode == "compile":
        return compile_all(root, l3, requests_path, out)
    print(f"unknown worker mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
