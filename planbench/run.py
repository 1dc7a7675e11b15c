"""Run one benchmark workload against the ``repro`` source of this checkout.

    python3 planbench/run.py --workload cold-compile --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
Every run does a fixed, seeded list of requests whose length is a fixed
function of ``--seconds`` (sized so the list takes about that long on
the 2-core reference host); the clock never cuts a list short.  The last line of
standard output is the result object; the line before it gives the
machine probe measured before and after the run.

With ``--trace 0`` the result holds the end-to-end metrics, measured
with no wrappers installed.  With ``--trace 1`` the list runs twice,
untraced and then traced, and the result holds the per-layer metrics of
the traced pass plus the tracing overhead.

Everything a run writes stays under ``.planbench/`` in the checkout; the
fleet-wire catalog (compiled once per source tree) is kept there between
runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: the checkout under test: the directory the benchmark is run from.
ROOT = Path.cwd()
sys.path.insert(0, str(HERE.parent))

from planbench import procfs, wire, workloads  # noqa: E402
from planbench.check import check_full, check_summary  # noqa: E402
from planbench.stats import median, percentile, ratio  # noqa: E402

WORKLOADS = ("cold-compile", "warm-wire", "fleet-wire")

#: list length per requested second, per workload: about one second of
#: work each on the 2-core reference host.
PER_SECOND = {"cold-compile": 13, "warm-wire": 900, "fleet-wire": 360}

#: launches of the process under test per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3

#: worker processes compiling the fleet-wire catalog.
CATALOG_WORKERS = 2

#: layers each workload was chosen to exercise (name prefixes).
INTENDED = {
    "cold-compile": ("core.", "models.", "sim.", "planner."),
    "warm-wire": ("serve.summary", "sim.", "core.graph"),
    "fleet-wire": ("api.", "cache.", "planner.decode", "planner.encode"),
}

#: bound on any single wait for a child process.
WAIT_S = 150.0


class Child:
    """A child process whose standard output is read line by line."""

    def __init__(self, argv: list[str], log: Path, *, stdin: bool = False):
        self.argv = argv
        self.log = log
        self.launched = time.perf_counter()
        with open(log, "wb") as err:
            self.popen = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                cwd=ROOT,
                env=child_env(),
            )
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.popen.stdout:
            self.lines.put(line.decode("utf-8", "replace").rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str) -> tuple[str, float]:
        """The first output line starting with ``prefix`` and the seconds
        from launch to reading it.

        Raises:
            RuntimeError: when the child exits or stays silent too long.
        """
        deadline = time.monotonic() + WAIT_S
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(self.failure("timed out")) from None
            if line is None:
                raise RuntimeError(self.failure(f"exited before {prefix!r}"))
            if line.startswith(prefix):
                return line, time.perf_counter() - self.launched

    def failure(self, what: str) -> str:
        """An error message ending with the child's last stderr output."""
        tail = self.log.read_text(errors="replace")[-2000:]
        return f"{self.argv[1:3]} {what}; its stderr ends:\n{tail}"

    def signal(self, signum: int, ack: str) -> None:
        """Deliver ``signum`` and wait for the acknowledging line."""
        self.popen.send_signal(signum)
        self.expect(ack)

    def wait(self) -> int:
        """Wait for a child that exits by itself."""
        return self.popen.wait(timeout=WAIT_S)

    def stop(self) -> None:
        """Terminate (SIGTERM, then SIGKILL) and reap the child."""
        if self.popen.poll() is None:
            self.popen.terminate()
            try:
                self.popen.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()
        if self.popen.stdin is not None:
            self.popen.stdin.close()
        self._reader.join(timeout=5)
        self.popen.stdout.close()


def child_env() -> dict[str, str]:
    """The children's environment: this checkout's ``src`` and no
    ``REPRO_*`` settings from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Run:
    """One benchmark run: its scratch directory and its children."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.seed = seed
        self.count = seconds * PER_SECOND[workload]
        self.trace = trace
        self.dir = ROOT / ".planbench" / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.children: list[Child] = []
        self._serial = 0

    def path(self, stem: str) -> Path:
        self._serial += 1
        return self.dir / f"{self._serial:03d}-{stem}"

    def close(self) -> None:
        for child in reversed(self.children):
            child.stop()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- children ------------------------------------------------------------

    def spawn(self, argv: list[str], name: str, *, stdin: bool = False) -> Child:
        child = Child(argv, self.path(f"{name}.log"), stdin=stdin)
        self.children.append(child)
        return child

    def repro(
        self, args: list[str], traced: bool, name: str
    ) -> tuple[Child, Path | None]:
        """Launch ``repro ARGS``; traced, through the wrapper launcher."""
        if not traced:
            return self.spawn([sys.executable, "-m", "repro", *args], name), None
        report = self.path(f"{name}-layers.json")
        argv = [sys.executable, str(HERE / "launch.py"), str(report), "--", *args]
        return self.spawn(argv, name), report

    def cache_server(self, traced: bool = False) -> tuple[Child, str, Path | None]:
        child, report = self.repro(["cache", "serve", "--port", "0"], traced, "l3")
        line, _ = child.expect("cache server listening on ")
        return child, line.rsplit(" ", 1)[1], report

    def plan_server(
        self, traced: bool = False, remote: str | None = None
    ) -> tuple[Child, str, float, Path | None]:
        args = [
            "serve", "--listen", "127.0.0.1:0",
            "--workspace", str(self.path("server-ws")),
        ]
        if remote is not None:
            args += ["--remote", remote]
        child, report = self.repro(args, traced, "server")
        line, setup_s = child.expect("plan server listening on ")
        return child, line.rsplit(" ", 1)[1], setup_s, report

    def worker(
        self, mode: str, l3: str, requests: Path, out: Path, trace: bool = False
    ) -> Child:
        argv = [
            sys.executable, str(HERE / "worker.py"), mode,
            str(self.path("worker-ws")), l3, str(requests), str(out),
            "1" if trace else "0",
        ]
        return self.spawn(argv, f"worker-{mode}", stdin=True)

    def discard(self, child: Child) -> None:
        child.stop()
        self.children.remove(child)

    def write(self, stem: str, data: object) -> Path:
        path = self.path(stem)
        path.write_text(json.dumps(data))
        return path

    # -- shared phases -------------------------------------------------------

    def probe_servers(self, remote: str | None = None) -> list[float]:
        """Set-up times of plan servers launched and stopped unused."""
        samples = []
        for _ in range(SETUP_LAUNCHES - 1):
            child, _, setup_s, _ = self.plan_server(remote=remote)
            samples.append(setup_s)
            self.discard(child)
        return samples

    def compile(self, payloads: list[dict], l3: str = "-") -> dict:
        """Reference plans compiled by this checkout in a fresh worker."""
        out = self.path("compiled.json")
        child = self.worker("compile", l3, self.write("payloads.json", payloads), out)
        child.expect("ready")
        if child.wait() != 0:
            raise RuntimeError(child.failure("failed"))
        self.discard(child)
        return json.loads(out.read_text())

    def wire_phase(
        self,
        frames: list[bytes],
        order: list[int],
        check,
        traced: bool,
        *,
        touch: list[int] | None = None,
        l3: tuple[Child, str, Path | None] | None = None,
    ) -> dict:
        """One plan server answering ``order`` from one waiting caller."""
        server, address, setup_s, report = self.plan_server(
            traced, remote=None if l3 is None else l3[1]
        )
        touched = (
            wire.closed_loop(address, frames, touch, check)
            if touch is not None else None
        )
        marked = [c for c in (server, l3[0] if l3 else None) if c and traced]
        for child in marked:
            child.signal(signal.SIGUSR1, "planbench: phase started")
        server_cpu = procfs.cpu_seconds(server.popen.pid)
        gen_cpu = procfs.cpu_seconds()
        result = wire.closed_loop(address, frames, order, check)
        result["cpu_s"] = procfs.cpu_seconds(server.popen.pid) - server_cpu
        result["gen_cpu_s"] = procfs.cpu_seconds() - gen_cpu
        for child in marked:
            child.signal(signal.SIGUSR2, "planbench: phase stopped")
        result["net"] = wire.server_stats(address)["net"]
        result["peak_rss_mb"] = procfs.peak_rss_mb(server.popen.pid)
        result["setup_s"] = setup_s
        result["touch_failed"] = touched["failed"] if touched else 0
        result["distinct"] = len(set(order))
        if traced:
            result["phase"] = json.loads(report.read_text())
            result["counts"] = (result["phase"]["workspaces"] or [{}])[0]
            if l3 is not None:
                result["l3_phase"] = json.loads(l3[2].read_text())
        self.discard(server)
        return result


# -- workloads ----------------------------------------------------------------


def passes(run: Run, phase) -> list[dict]:
    """An untraced run's one pass, with its extra set-up launches; or a
    traced run's untraced and traced passes."""
    if not run.trace:
        return [phase(traced=False, probes=True)]
    return [phase(traced=False, probes=False), phase(traced=True, probes=False)]


def cold_compile(run: Run) -> list[dict]:
    payloads = workloads.cold_requests(run.seed, run.count)
    requests = run.write("requests.json", payloads)

    def phase(traced: bool, probes: bool) -> dict:
        l3, address, l3_report = run.cache_server(traced)
        setup = []
        if probes:
            for _ in range(SETUP_LAUNCHES - 1):
                probe = run.worker("cold", address, requests, run.path("unused"))
                setup.append(probe.expect("ready")[1])
                probe.popen.stdin.close()
                probe.wait()
                run.discard(probe)
        out = run.path("cold.json")
        worker = run.worker("cold", address, requests, out, traced)
        setup.append(worker.expect("ready")[1])
        if traced:
            l3.signal(signal.SIGUSR1, "planbench: phase started")
        worker.popen.stdin.write(b"go\n")
        worker.popen.stdin.flush()
        if worker.wait() != 0:
            raise RuntimeError(worker.failure("failed"))
        result = json.loads(out.read_text())
        if traced:
            l3.signal(signal.SIGUSR2, "planbench: phase stopped")
            result["l3_phase"] = json.loads(l3_report.read_text())
        result["failed"] = result["attempted"] - result["answered"]
        result["setup_samples"] = setup
        result["gen_cpu_s"] = 0.0
        result["distinct"] = len({workloads.canonical(p) for p in payloads})
        run.discard(worker)
        run.discard(l3)
        return result

    return passes(run, phase)


def warm_wire(run: Run) -> list[dict]:
    payloads = workloads.warm_set()
    order = workloads.warm_stream(run.seed, run.count)
    reference = [r["summary"] for r in run.compile(payloads)["results"]]
    frames = [
        wire.frame({"op": "plan", "schema": 1, "id": i, "detail": "summary", "request": p})
        for i, p in enumerate(payloads)
    ]

    def check(item: int, response: dict) -> bool:
        return response.get("id") == item and check_summary(response, reference[item])

    def phase(traced: bool, probes: bool) -> dict:
        setup = run.probe_servers() if probes else []
        result = run.wire_phase(
            frames, order, check, traced, touch=list(range(len(payloads)))
        )
        result["setup_samples"] = setup + [result["setup_s"]]
        return result

    return passes(run, phase)


def source_digest() -> str:
    """Content hash of the program and the benchmark (catalog cache key)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:20]


def catalog_path() -> Path:
    """Where this source tree's fleet-wire catalog is kept."""
    return ROOT / ".planbench" / f"catalog-{source_digest()}.json"


def build_catalog(run: Run) -> None:
    """Compile the fleet-wire catalog with this checkout, once.

    The catalog holds every catalog plan's document hash and every
    document the compile published to its cache server (plans and
    profiles), so a run can fill a fresh cache server with exactly the
    working set.  It is built by the first run of any workload.
    """
    cache = catalog_path()
    if cache.exists():
        return
    for stale in cache.parent.glob("catalog-*.json"):
        stale.unlink()
    payloads = workloads.fleet_catalog()
    l3, address, _ = run.cache_server()
    parts = []
    for part in range(CATALOG_WORKERS):
        out = run.path(f"catalog-{part}.json")
        requests = run.write(
            "catalog-payloads.json", payloads[part::CATALOG_WORKERS]
        )
        parts.append((run.worker("compile", address, requests, out), out))
    for child, out in parts:
        child.expect("ready")
        if child.popen.wait(timeout=600) != 0:
            raise RuntimeError(child.failure("failed"))
    hashes: list[str] = [""] * len(payloads)
    documents: dict[str, str] = {}
    for part, (child, out) in enumerate(parts):
        compiled = json.loads(out.read_text())
        hashes[part::CATALOG_WORKERS] = [r["hash"] for r in compiled["results"]]
        documents.update(compiled["documents"])
        run.discard(child)
    run.discard(l3)
    catalog = {"payloads": payloads, "hashes": hashes, "documents": documents}
    tmp = cache.with_name(cache.name + ".tmp")
    tmp.write_text(json.dumps(catalog))
    os.replace(tmp, cache)


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU.

    Each workload is a sequential chain, so one CPU loses no
    parallelism; every hand-off in the chain becomes a local context
    switch instead of a cross-CPU wake-up, whose cost varies with the
    load other tenants put on a shared host.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def fleet_wire(run: Run) -> list[dict]:
    catalog = json.loads(catalog_path().read_text())
    order = workloads.fleet_stream(run.seed, run.count)
    hashes = catalog["hashes"]
    frames = [
        wire.frame({"op": "plan", "schema": 1, "id": i, "detail": "plan", "request": p})
        for i, p in enumerate(catalog["payloads"])
    ]

    def check(item: int, response: dict) -> bool:
        return response.get("id") == item and check_full(response, hashes[item])

    def phase(traced: bool, probes: bool) -> dict:
        l3 = run.cache_server(traced)
        wire.preload(l3[1], catalog["documents"])
        setup = run.probe_servers(remote=l3[1]) if probes else []
        result = run.wire_phase(frames, order, check, traced, l3=l3)
        result["setup_samples"] = setup + [result["setup_s"]]
        run.discard(l3[0])
        return result

    return passes(run, phase)


# -- metrics ------------------------------------------------------------------


def plans_per_s(result: dict) -> float:
    return ratio(result["answered"], result["wall_s"])


def end_to_end(result: dict) -> dict:
    latencies = result["latencies_ms"]
    return {
        "plan_ms.p50": (percentile(latencies, 50.0), "ms"),
        "plan_ms.p90": (percentile(latencies, 90.0), "ms"),
        "plans_per_s": (plans_per_s(result), "1/s"),
        "setup_s": (median(result["setup_samples"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def per_layer(workload: str, untraced: dict, traced: dict, probe_ms: float) -> dict:
    phase = traced["phase"]
    calls, self_ms = phase["calls"], phase["self_ms"]
    samples = phase["samples_ms"]
    counts = traced.get("counts", {})
    l3_phase = traced.get("l3_phase") or {"self_ms": {}}
    requests = traced["attempted"]
    answered = traced["answered"]
    net = traced.get("net", {})

    def n(name: str) -> int:
        return calls.get(name, 0)

    def ms(name: str) -> float:
        return self_ms.get(name, 0.0)

    def p50(name: str) -> float:
        values = samples.get(name)
        return percentile(values, 50.0) if values else 0.0

    attributed = sum(self_ms.values())
    intended = sum(
        v for k, v in self_ms.items() if k.startswith(INTENDED[workload])
    )
    solver_lookups = counts.get("solver_solves", 0) + counts.get("solver_cache_hits", 0)
    l1_lookups = counts.get("l1_hits", 0) + counts.get("l1_misses", 0)
    return {
        "core.alg1.calls": (n("core.alg1"), "count"),
        "core.alg1.self_ms": (ms("core.alg1"), "ms"),
        "core.step2.calls": (n("core.step2"), "count"),
        "core.step2.self_ms": (ms("core.step2"), "ms"),
        "core.step2.candidates": (counts.get("step2_candidates", 0), "count"),
        "core.profile.self_ms": (ms("core.profile"), "ms"),
        "core.graph.self_ms": (ms("core.graph"), "ms"),
        "models.profile_layer.calls": (n("models.profile_layer"), "count"),
        "models.profile_layer.self_ms": (ms("models.profile_layer"), "ms"),
        "sim.simulate.calls_per_plan": (ratio(n("sim.simulate"), answered), "count/plan"),
        "sim.simulate.self_ms": (ms("sim.simulate"), "ms"),
        "planner.compile.self_ms": (ms("planner.compile"), "ms"),
        "planner.encode.self_ms": (ms("planner.encode"), "ms"),
        "planner.decode.self_ms": (ms("planner.decode"), "ms"),
        "planner.layer_fits": (counts.get("layer_fits", 0), "count"),
        "planner.solver_hit_ratio": (
            ratio(counts.get("solver_cache_hits", 0), solver_lookups), "ratio",
        ),
        "api.plan.calls": (n("api.plan"), "count"),
        "api.plan.self_ms": (ms("api.plan"), "ms"),
        "api.save.calls": (n("api.save"), "count"),
        "api.save.self_ms": (ms("api.save"), "ms"),
        "cache.l1.hit_ratio": (
            ratio(counts.get("l1_hits", 0), l1_lookups),
            "ratio",
        ),
        "cache.l2.hits": (counts.get("l2_hits", 0), "count"),
        "cache.l3.hits": (counts.get("l3_hits", 0), "count"),
        "cache.l3.errors": (counts.get("l3_errors", 0), "count"),
        "cache.l3.get.ms.p50": (p50("cache.l3.get"), "ms"),
        "cache.l3.put.ms.p50": (p50("cache.l3.put"), "ms"),
        "cache.server.handle.self_ms": (
            l3_phase["self_ms"].get("cache.server.handle", 0.0), "ms",
        ),
        "serve.parse.calls_per_request": (ratio(n("serve.parse"), requests), "count/req"),
        "serve.submit.self_ms": (ms("serve.submit"), "ms"),
        "serve.completed_hit_ratio": (ratio(phase["submit_done"], n("serve.submit")), "ratio"),
        "serve.coalescer.wait_ms.p50": (counts.get("service_p50_ms", 0.0), "ms"),
        "serve.summary.calls": (n("serve.summary"), "count"),
        "serve.summary.self_ms": (ms("serve.summary"), "ms"),
        "serve.encode.self_ms": (ms("serve.encode"), "ms"),
        "serve.failed": (net.get("failed", 0), "count"),
        "serve.shed": (net.get("shed", 0), "count"),
        "proc.server.cpu_ms_per_plan": (ratio(traced["cpu_s"] * 1e3, answered), "ms/plan"),
        "proc.gen.cpu_share": (ratio(traced["gen_cpu_s"], traced["wall_s"]), "ratio"),
        "trace.overhead": (ratio(plans_per_s(untraced), plans_per_s(traced)), "ratio"),
        "machine.probe_ms": (probe_ms, "ms"),
        "tier.completed.share": (ratio(phase["submit_done"], requests), "ratio"),
        "tier.l1.share": (ratio(counts.get("l1_hits", 0), requests), "ratio"),
        "tier.l2.share": (ratio(counts.get("l2_hits", 0), requests), "ratio"),
        "tier.l3.share": (ratio(counts.get("l3_hits", 0), requests), "ratio"),
        "requests.distinct_share": (ratio(traced.get("distinct", 0), requests), "ratio"),
        "requests.cold_share": (ratio(counts.get("plan_misses", 0), requests), "ratio"),
        "layers.intended.share": (ratio(intended, attributed), "ratio"),
    }


def machine_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's current speed."""
    samples = []
    for _ in range(5):
        begin = time.perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) % 1_000_003
        samples.append((time.perf_counter() - begin) * 1e3)
    return median(samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {ROOT} is not a source checkout (no src/repro); run "
            f"from the repository root",
            file=sys.stderr,
        )
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        build_catalog(run)
        pin_to_one_cpu()
        probe_before = machine_probe_ms()
        runner = {
            "cold-compile": cold_compile,
            "warm-wire": warm_wire,
            "fleet-wire": fleet_wire,
        }
        phases = runner[args.workload](run)
    finally:
        run.close()
    probe_after = machine_probe_ms()

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    touch_failed = sum(p.get("touch_failed", 0) for p in phases)
    if args.trace:
        metrics = per_layer(
            args.workload, phases[0], phases[1], (probe_before + probe_after) / 2
        )
    else:
        metrics = end_to_end(phases[0])
    errors = [e for p in phases for e in p.get("errors", [])]
    print(json.dumps({
        "machine.probe_ms": {"before": probe_before, "after": probe_after},
        "touch_failed": touch_failed,
        "errors": errors[:5],
    }))
    print(json.dumps({
        "correct": failed == 0 and touch_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
