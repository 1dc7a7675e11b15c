"""``python -m repro``: plan, sweep, bench, serve, report and cache.

Subcommands over the :class:`~repro.api.workspace.Workspace` API:

* ``plan``  -- compile one iteration plan; ``--json`` prints the exact
  :meth:`IterationPlan.to_json` document (replayable bit-identically).
* ``sweep`` -- run a declarative :class:`~repro.api.spec.ExperimentSpec`
  file (JSON or TOML); prints the result table and exact cache
  counters.  ``--expect-warm`` turns "100% cache hits" into an exit
  code, for CI.
* ``bench`` -- evaluate a model preset across systems on a testbed and
  print the speedup table (the Fig. 6 shape, from the shell).
* ``serve`` -- run a coalescing :class:`~repro.serve.PlanService` over
  the workspace: ``--requests FILE`` answers a JSON-lines request
  stream (``-`` for stdin) and prints one JSON result per line;
  ``--demo N`` runs the closed-loop load generator and reports
  coalesced throughput against the serial ``plan()`` loop;
  ``--listen HOST:PORT`` serves the same request schema over TCP
  (priority lanes, shed-with-retry backpressure, graceful drain on
  Ctrl-C) and ``--connect HOST:PORT`` sends a ``--requests`` stream to
  such a server instead of planning locally.
* ``report`` -- regenerate every paper artifact (the full manifest or
  ``--only fig7,table5``) through one workspace, writing
  ``benchmarks/results/*`` plus a generated ``REPORT.md``;
  ``--check`` re-runs the deterministic artifacts and exits non-zero
  on any byte drift against the committed files; ``--trace FILE``
  records per-artifact spans to a JSON-lines trace alongside the
  report.
* ``trace`` -- render a JSON-lines trace file (what ``REPRO_TRACE=``
  and ``report --trace`` write) as an indented span tree with per-span
  total/self times and attributes.
* ``metrics`` -- print a workspace's counters as Prometheus text
  exposition (or ``--json``): the same exact numbers
  ``workspace.stats`` holds, under the ``repro.*`` metric namespace;
  ``--remote HOST:PORT`` scrapes a running ``cache serve`` instead.
* ``docs``  -- regenerate ``docs/CLI.md`` from this very parser
  (``--check`` verifies the committed page instead).
* ``cache`` -- inspect a workspace's cache tiers (plus the process's
  degree-solver counters), ``--gc DAYS``/``--max-bytes``/
  ``--max-entries`` away stale or excess plan files (LRU order),
  ``clear`` everything, or ``cache serve`` a shared remote tier other
  processes warm through.

Every subcommand takes ``--workspace PATH``; without it, ``plan``,
``bench`` and ``serve`` run against a throwaway in-memory session.
Planning subcommands also take ``--remote HOST:PORT`` (or the
``REPRO_CACHE_REMOTE`` environment variable) to read and write plans
through a shared ``cache serve`` tier.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

from ..bench.reporting import format_table
from ..bench.runner import speedups_over
from ..config import MoELayerSpec, standard_layout
from ..core.gradient_partition import STEP2_SOLVERS
from ..errors import ConfigError, ReproError
from ..models.configs import available_model_presets
from ..moe.gates import GateKind
from ..serve import DEFAULT_CAPACITY, DEFAULT_FLUSH_MS
from ..systems.registry import available_systems, get_system
from .registry import available_clusters
from .spec import ClusterRef, ExperimentSpec, StackSpec
from .workspace import Workspace, WorkspaceStats


def _add_workspace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workspace",
        "-w",
        metavar="PATH",
        default=None,
        help="workspace directory holding the persistent caches",
    )
    parser.add_argument(
        "--remote",
        metavar="HOST:PORT",
        default=None,
        help=(
            "shared remote cache server to read/write through "
            "(defaults to $REPRO_CACHE_REMOTE; empty disables)"
        ),
    )


def _add_knob_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--gate",
        default=GateKind.GSHARD.value,
        choices=[kind.value for kind in GateKind],
        help="routing function for the timing profiles",
    )
    parser.add_argument(
        "--solver",
        default="de",
        choices=list(STEP2_SOLVERS),
        help="FSMoE Step-2 gradient-partition solver",
    )
    parser.add_argument(
        "--r-max", type=int, default=None, help="pipeline-degree cap"
    )
    parser.add_argument(
        "--noise", type=float, default=0.0, help="profiler jitter std-dev"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="profiler RNG seed"
    )


def _add_stack_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        default=None,
        help=f"model preset ({', '.join(available_model_presets())})",
    )
    parser.add_argument("--layers", type=int, default=None,
                        help="stack depth (default: preset's, or 1)")
    parser.add_argument("--batch-size", type=int, default=1)
    parser.add_argument("--seq-len", type=int, default=1024)
    parser.add_argument(
        "--num-experts", type=int, default=None,
        help="experts per layer (default: the deployment's EP width)",
    )
    parser.add_argument("--embed-dim", type=int, default=2048,
                        help="(custom layers only)")
    parser.add_argument("--hidden-scale", type=float, default=4.0,
                        help="(custom layers only)")
    parser.add_argument("--num-heads", type=int, default=16,
                        help="(custom layers only)")
    parser.add_argument("--top-k", type=int, default=2,
                        help="(custom layers only)")
    parser.add_argument(
        "--capacity-factor", type=float, default=1.2,
        help="(custom layers only; <= 0 means no token dropping)",
    )
    parser.add_argument("--ffn-type", default="simple",
                        choices=("simple", "mixtral"),
                        help="(custom layers only)")


def _stack_from_args(args, cluster: ClusterRef) -> StackSpec:
    """Build the stack entry a ``plan``/``bench`` invocation describes."""
    if args.model is not None:
        return StackSpec(
            model=args.model,
            batch_size=args.batch_size,
            seq_len=args.seq_len,
            num_experts=args.num_experts,
            num_layers=args.layers,
        )
    if args.num_experts is not None:
        num_experts = args.num_experts
    else:
        # same default the model-preset path uses: the deployment's EP
        # width (paper §6.4: one expert per node)
        resolved = cluster.resolve()
        num_experts = resolved.num_nodes
    capacity = args.capacity_factor
    layer = MoELayerSpec(
        batch_size=args.batch_size,
        seq_len=args.seq_len,
        embed_dim=args.embed_dim,
        hidden_scale=args.hidden_scale,
        num_experts=num_experts,
        top_k=args.top_k,
        capacity_factor=capacity if capacity > 0 else None,
        num_heads=args.num_heads,
        ffn_type=args.ffn_type,
    )
    return StackSpec(layers=(layer,), num_layers=args.layers or 1)


def _spec_from_args(args, systems: list[str]) -> ExperimentSpec:
    cluster = ClusterRef(name=args.cluster, total_gpus=args.gpus)
    return ExperimentSpec(
        name="cli",
        clusters=(cluster,),
        systems=tuple(systems),
        stacks=(_stack_from_args(args, cluster),),
        gate=args.gate,
        solver=args.solver,
        r_max=args.r_max,
        noise=args.noise,
        seed=args.seed,
    )


def _open_workspace(args, stack: "object") -> Workspace:
    """The named workspace, or a throwaway one for session-only runs."""
    remote = getattr(args, "remote", None)
    trace = getattr(args, "trace", None)
    if args.workspace is not None:
        workspace = Workspace(args.workspace, remote=remote, trace=trace)
    else:
        tmp = tempfile.TemporaryDirectory(prefix="repro-ws-")
        stack.callback(tmp.cleanup)  # type: ignore[attr-defined]
        workspace = Workspace(
            tmp.name, autosave=False, remote=remote, trace=trace
        )
    # closed on exit, after whatever the caller stacks on top of it
    return stack.enter_context(workspace)  # type: ignore[attr-defined]


def _print_cache_summary(stats: WorkspaceStats, out) -> None:
    profiles = stats.profiles
    for label, hits, misses in (
        ("profile cache", profiles.hits, profiles.misses),
        ("plan cache", stats.plan_hits, stats.plan_misses),
    ):
        total = hits + misses
        rate = 100.0 * hits / total if total else 100.0
        print(
            f"{label}: {hits} hits, {misses} misses ({rate:.0f}% hit rate)",
            file=out,
        )
    cache = stats.cache
    print(
        f"cache tiers: L1 {cache.l1.hits}h/{cache.l1.misses}m, "
        f"L2 {cache.l2.hits}h/{cache.l2.misses}m, "
        f"L3 {cache.l3.hits}h/{cache.l3.misses}m "
        f"({cache.l1.fills + cache.l2.fills} fills, "
        f"{cache.l1.evictions} evictions)",
        file=out,
    )
    solver = stats.solver
    print(
        f"degree solver: {solver.solves} solves, {solver.cache_hits} cache "
        f"hits, {solver.batch_calls} batch calls "
        f"(largest batch {solver.max_batch_size})",
        file=out,
    )
    print(
        f"step2 solver: {solver.step2_objective_calls} objective calls, "
        f"{solver.step2_candidates} candidates",
        file=out,
    )


def _flush_trace(workspace: Workspace, out) -> None:
    """Flush the workspace's trace file (if any) and say where it is."""
    tracer = workspace.tracer
    if tracer is None or tracer.path is None:
        return
    tracer.close()
    note = f"trace: {tracer.path}"
    if tracer.dropped:
        note += f" ({tracer.dropped} span(s) dropped at the buffer bound)"
    print(note, file=out)


def _cmd_plan(args) -> int:
    with contextlib.ExitStack() as resources:
        workspace = _open_workspace(args, resources)
        spec = _spec_from_args(args, [args.system])
        result = workspace.sweep(spec)
        point = result.points[0]
        plan = point.plan
        # The JSON document goes to stdout *alone* so it can be piped
        # straight into IterationPlan.from_json; counters go to stderr.
        if args.json:
            print(plan.to_json(indent=2))
            _print_cache_summary(workspace.stats, sys.stderr)
        else:
            print(f"system:    {plan.name}")
            print(f"cluster:   {point.cluster.name}")
            print(f"layers:    {plan.num_layers}")
            print(f"degrees:   {plan.degrees}")
            print(f"makespan:  {point.makespan_ms:.3f} ms")
            _print_cache_summary(workspace.stats, sys.stdout)
    return 0


def _cmd_sweep(args) -> int:
    spec = ExperimentSpec.from_file(args.spec)
    with contextlib.ExitStack() as resources:
        return _run_sweep(args, spec, _open_workspace(args, resources))


def _run_sweep(args, spec: ExperimentSpec, workspace: Workspace) -> int:
    result = workspace.sweep(spec)
    if args.json:
        print(json.dumps(result.rows(), indent=2))
    else:
        rows = [
            [
                str(row["cluster"]),
                str(row["system"]),
                f"{row['num_layers']}",
                f"B={row['batch_size']} L={row['seq_len']} "
                f"M={row['embed_dim']} E={row['num_experts']}",
                f"{row['makespan_ms']:.2f}",
            ]
            for row in result.rows()
        ]
        print(
            format_table(
                ["cluster", "system", "layers", "shape", "makespan (ms)"],
                rows,
                title=f"sweep '{spec.name}': {len(result)} points",
            )
        )
    stats = workspace.stats
    _print_cache_summary(stats, sys.stdout)
    _flush_trace(workspace, sys.stderr)
    if args.expect_warm and not stats.warm:
        print(
            "error: --expect-warm but the run was not fully cached "
            f"({stats.profiles.misses} profile misses, "
            f"{stats.plan_misses} plan misses)",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_bench(args) -> int:
    systems = [name.strip() for name in args.systems.split(",") if name.strip()]
    with contextlib.ExitStack() as resources:
        workspace = _open_workspace(args, resources)
        spec = _spec_from_args(args, systems)
        result = workspace.sweep(spec)
        case = result.config_results()[0]
        speedups = speedups_over([case], args.baseline)
        rows = [
            [
                name,
                f"{case.times_ms[name]:.1f}",
                f"{speedups[name]:.2f}x",
            ]
            for name in case.times_ms
        ]
        print(
            format_table(
                ["system", "iteration (ms)", f"speedup vs {args.baseline}"],
                rows,
                title=(
                    f"bench: {args.model or 'custom layer'} on "
                    f"{result.points[0].cluster.name}"
                ),
            )
        )
        _print_cache_summary(workspace.stats, sys.stdout)
    return 0


def _parse_request_line(line: str, line_no: int):
    """One JSON-lines serve request -> ``(payload, PlanRequest)``.

    Delegates the payload schema to
    :func:`repro.serve.protocol.parse_plan_payload` -- the same parser
    the network server runs -- and keeps only the line-number context;
    the raw payload rides along for ``--connect``, which ships it
    verbatim instead of resolving locally.

    Raises:
        ConfigError: for invalid JSON or a malformed request document.
    """
    from ..serve.protocol import parse_plan_payload

    try:
        data = json.loads(line)
    except ValueError as exc:
        raise ConfigError(
            f"request line {line_no}: invalid JSON: {exc}"
        ) from exc
    try:
        return data, parse_plan_payload(data)
    except ConfigError as exc:
        raise ConfigError(f"request line {line_no}: {exc}") from exc


def _print_service_stats(stats, out) -> None:
    print(
        f"service: {stats.requests} requests, {stats.resolved} resolved, "
        f"{stats.dedup_hits} dedup hits ({100.0 * stats.dedup_rate:.0f}%), "
        f"{stats.batches} batches (largest {stats.max_batch}, mean "
        f"{stats.mean_batch:.1f}), latency p50 {stats.p50_latency_ms:.2f} ms "
        f"/ p95 {stats.p95_latency_ms:.2f} ms",
        file=out,
    )


def _cmd_serve(args) -> int:
    from ..serve import (
        PlanService,
        duplicate_heavy_requests,
        run_serial_session,
        run_service,
    )

    modes = [
        args.requests is not None,
        args.demo is not None,
        args.listen is not None,
    ]
    if sum(modes) != 1:
        print(
            "error: serve needs exactly one of --requests, --demo "
            "and --listen",
            file=sys.stderr,
        )
        return 2
    if args.connect is not None and args.requests is None:
        print(
            "error: --connect sends a --requests stream; give it one",
            file=sys.stderr,
        )
        return 2

    if args.listen is not None:
        return _serve_listen(args)

    if args.demo is not None:
        requests = duplicate_heavy_requests(
            total=args.demo, distinct=args.distinct
        )
        with contextlib.ExitStack() as resources:
            if args.workspace is not None:
                base = Path(args.workspace).expanduser()
            else:
                tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
                resources.callback(tmp.cleanup)
                base = Path(tmp.name)
            serial = run_serial_session(requests, base / "demo-serial")
            served = run_service(
                requests,
                base / "demo-service",
                flush_ms=args.flush_ms,
                capacity=args.capacity,
                workers=args.workers,
            )
        identical = all(
            a.to_json() == b.to_json()
            for a, b in zip(serial.plans, served.plans)
        )
        speedup = serial.wall_s / served.wall_s if served.wall_s else 0.0
        print(
            f"demo: {len(requests)} requests, {args.distinct} distinct\n"
            f"serial plan() loop: {serial.wall_s * 1e3:.1f} ms "
            f"({serial.throughput_rps:.0f} req/s)\n"
            f"coalescing service: {served.wall_s * 1e3:.1f} ms "
            f"({served.throughput_rps:.0f} req/s)\n"
            f"speedup: {speedup:.1f}x, plans bit-identical: {identical}"
        )
        _print_service_stats(served.stats, sys.stdout)
        return 0 if identical else 1

    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = Path(args.requests).read_text().splitlines()
    parsed = [
        _parse_request_line(line, i + 1)
        for i, line in enumerate(lines)
        if line.strip()
    ]

    if args.connect is not None:
        return _serve_connect(args, [payload for payload, _ in parsed])

    with contextlib.ExitStack() as resources:
        workspace = _open_workspace(args, resources)
        service = PlanService(
            workspace,
            flush_ms=args.flush_ms,
            capacity=args.capacity,
            workers=args.workers,
        )
        resources.callback(service.close)
        futures = [
            (request.cluster, service.submit(request))
            for _, request in parsed
        ]
        for index, (cluster, future) in enumerate(futures):
            plan = future.result()
            print(
                json.dumps(
                    {
                        "index": index,
                        "system": plan.name,
                        "cluster": cluster.name,
                        "num_layers": plan.num_layers,
                        "degrees": plan.degrees,
                        "makespan_ms": plan.makespan_ms(),
                    }
                )
            )
        _print_service_stats(service.stats_snapshot(), sys.stderr)
    return 0


def _serve_in_foreground(server, banner: str) -> None:
    """Print ``banner``, then block until SIGINT or SIGTERM arrives or
    the server closes.

    Both signals stop the same way: the caller then closes the server,
    which drains.  SIGTERM matters because shells start backgrounded
    jobs with SIGINT ignored; its handler is in place before the banner
    tells anyone the address.  The main thread polls :meth:`wait`
    rather than blocking in it, so any other signal handler the process
    installed runs promptly.
    """
    import signal
    import threading

    stop = threading.Event()
    previous = signal.signal(
        signal.SIGTERM, lambda signum, frame: stop.set()
    )
    try:
        # flushed, so scripts (and the benchmarks) can read the bound
        # port before any traffic arrives
        print(banner, flush=True)
        while not stop.is_set() and not server.wait(timeout_s=0.2):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)


def _serve_listen(args) -> int:
    """``serve --listen``: a NetServer in the foreground until a signal,
    then a graceful drain."""
    from ..rpc import parse_address
    from ..serve import NetServer

    host, port = parse_address(args.listen)
    with contextlib.ExitStack() as resources:
        workspace = _open_workspace(args, resources)
        server = NetServer(
            workspace,
            host=host,
            port=port,
            flush_ms=args.flush_ms,
            capacity=args.capacity,
            workers=args.workers,
        )
        resources.callback(server.close)
        address = server.start()
        _serve_in_foreground(server, f"plan server listening on {address}")
        print("draining...", file=sys.stderr, flush=True)
    return 0


def _serve_connect(args, payloads: list) -> int:
    """``serve --connect``: the request stream against a remote server."""
    from ..errors import ServiceError
    from ..serve import NetClient

    with contextlib.closing(NetClient(args.connect)) as client:
        for index, payload in enumerate(payloads):
            try:
                response = client.plan(payload, priority=args.priority)
            except ServiceError as exc:
                print(
                    f"error: request {index}: {exc}", file=sys.stderr
                )
                return 1
            print(json.dumps({"index": index, **response["result"]}))
        stats = client.stats()
        service = stats.get("service", {})
        net = stats.get("net", {})
        print(
            f"server: {net.get('requests', 0)} wire requests, "
            f"{service.get('resolved', 0)} resolved, "
            f"{service.get('dedup_hits', 0)} dedup hits",
            file=sys.stderr,
        )
    return 0


def _cmd_report(args) -> int:
    from ..report import (
        ReportConfig,
        check_run,
        default_results_dir,
        render_report,
        run_report,
        select_artifacts,
        write_outputs,
    )

    if args.list:
        artifacts = select_artifacts(args.only)
        rows = [
            [
                artifact.name,
                artifact.paper_ref,
                ", ".join(artifact.outputs),
                "yes" if artifact.deterministic else "no",
            ]
            for artifact in artifacts
        ]
        print(
            format_table(
                ["artifact", "paper ref", "outputs", "checked"],
                rows,
                title=f"manifest: {len(artifacts)} artifact(s)",
            )
        )
        return 0

    env = ReportConfig.from_env()
    config = ReportConfig(
        full=args.full or env.full,
        solver=args.solver if args.solver is not None else env.solver,
        smoke=env.smoke,
    )
    results_dir = (
        Path(args.results_dir) if args.results_dir else default_results_dir()
    )
    if results_dir is None:
        print(
            "error: cannot locate benchmarks/results (the `benchmarks` "
            "package is not importable); pass --results-dir",
            file=sys.stderr,
        )
        return 2

    only = args.only
    if args.check and (config.full or config.solver is not None):
        # The committed files were produced under the default config; a
        # --full or non-default-solver re-run would "drift" on every
        # file for configuration reasons, not reproducibility ones.
        print(
            "error: --check compares against the committed "
            "default-configuration files; drop --full/--solver (and "
            "unset REPRO_BENCH_FULL/REPRO_BENCH_SOLVER)",
            file=sys.stderr,
        )
        return 2
    if args.check:
        # --check verifies byte-reproducibility; artifacts that embed
        # wall-clock measurements cannot drift meaningfully, so running
        # them would burn minutes verifying nothing.
        checkable = [
            artifact.name
            for artifact in select_artifacts(only)
            if artifact.deterministic
        ]
        if not checkable:
            print(
                "error: --check selected no deterministic artifacts "
                "(see `repro report --list`)",
                file=sys.stderr,
            )
            return 2
        only = checkable

    with contextlib.ExitStack() as resources:
        workspace = _open_workspace(args, resources)
        run = run_report(
            workspace,
            config,
            only=only,
            progress=lambda line: print(line, file=sys.stderr),
        )
        _flush_trace(workspace, sys.stderr)

    if args.check:
        drifts = check_run(run, results_dir)
        checked = sum(
            len(record.result.outputs)
            for record in run.runs
            if record.artifact.deterministic
        )
        if drifts:
            for drift in drifts:
                print(f"drift: {drift}", file=sys.stderr)
            print(
                f"error: {len(drifts)} of {checked} checked file(s) "
                f"drifted from {results_dir}",
                file=sys.stderr,
            )
            return 1
        print(
            f"report check passed: {checked} file(s) byte-identical to "
            f"{results_dir}"
        )
        return 0

    written = write_outputs(run, results_dir)
    report_path = (
        Path(args.report_file)
        if args.report_file
        else results_dir.parent / "REPORT.md"
    )
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(
        render_report(run, include_timings=not args.no_timings)
    )
    print(
        f"wrote {len(written)} artifact file(s) to {results_dir} and "
        f"{report_path} in {run.wall_s:.1f} s"
    )
    _print_cache_summary(workspace.stats, sys.stdout)
    return 0


def _cmd_docs(args) -> int:
    from ..report.clidoc import render_cli_markdown

    rendered = render_cli_markdown()
    path = Path(args.out)
    if args.check:
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 1
        if path.read_text() != rendered:
            print(
                f"error: {path} is stale; regenerate it with "
                f"`python -m repro docs`",
                file=sys.stderr,
            )
            return 1
        print(f"{path} matches the parser")
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rendered)
    print(f"wrote {path}")
    return 0


def _cmd_trace(args) -> int:
    """Render a JSON-lines trace file as an indented span tree."""
    from ..obs import canonical_tree, read_trace, render_tree

    records = read_trace(args.file)
    if not records:
        print(f"error: {args.file} holds no spans", file=sys.stderr)
        return 1
    if args.canonical:
        print(json.dumps(canonical_tree(records), indent=2, sort_keys=True))
    else:
        print(
            render_tree(records, include_timings=not args.no_timings)
        )
    return 0


def _cmd_metrics(args) -> int:
    """Print exact counters as Prometheus exposition (or JSON)."""
    from ..obs import render_json, render_prometheus, stats_samples

    if args.remote is not None and args.workspace is None:
        # Scrape a running `cache serve` over its own line protocol;
        # the server renders its exposition itself.
        from ..cache import RemoteTier

        with RemoteTier(args.remote) as tier:
            exposition = tier.metrics()
        if exposition is None:
            print(
                f"error: cache server {args.remote} unreachable",
                file=sys.stderr,
            )
            return 2
        print(exposition, end="")
        return 0
    if args.workspace is None:
        print(
            "error: metrics needs --workspace PATH (or --remote "
            "HOST:PORT to scrape a cache server)",
            file=sys.stderr,
        )
        return 2
    root = Path(args.workspace).expanduser()
    if not root.is_dir():
        # Like `cache info`: a mistyped path must not silently
        # materialize an empty workspace and report zeros as real.
        print(f"error: no workspace at {root}", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as resources:
        workspace = _open_workspace(args, resources)
        if args.spec is not None:
            # Exercise the workspace first so the session counters are
            # live numbers, not the zeros of a fresh open.
            spec = ExperimentSpec.from_file(args.spec)
            workspace.sweep(spec)
        samples = stats_samples(workspace.stats, "repro.workspace.")
        if args.json:
            print(render_json(samples))
        else:
            print(render_prometheus(samples), end="")
        _flush_trace(workspace, sys.stderr)
    return 0


def _cmd_cache_serve(args) -> int:
    """Run a shared cache server (the L3 tier) until SIGINT or SIGTERM."""
    from ..cache import CacheServer

    server = CacheServer(
        args.host,
        args.port,
        max_entries=args.max_entries if args.max_entries else 4096,
        max_bytes=args.max_bytes if args.max_bytes else 256 * 1024 * 1024,
    )
    try:
        address = server.start()
        _serve_in_foreground(server, f"cache server listening on {address}")
    finally:
        server.close()
    return 0


def _cmd_cache(args) -> int:
    if args.action == "serve":
        return _cmd_cache_serve(args)
    gc_requested = (
        args.gc is not None
        or args.max_bytes is not None
        or args.max_entries is not None
    )
    if args.action == "clear" and gc_requested:
        # Refuse the ambiguous combination: `clear` wipes everything,
        # `--gc` promises age-bounded eviction -- silently doing either
        # would betray the other's contract.
        print(
            "error: --gc cannot be combined with 'clear' "
            "(use `cache --gc DAYS --max-bytes N --max-entries N` "
            "for bounded eviction)",
            file=sys.stderr,
        )
        return 2
    if args.workspace is None:
        print(
            f"error: cache {args.action} needs --workspace PATH",
            file=sys.stderr,
        )
        return 2
    if args.action == "clear":
        # File-level discard: must work even on caches a plain open would
        # refuse (schema-version mismatch) -- this IS the recovery path.
        removed = Workspace.discard(args.workspace)
        print(
            f"cleared {removed['profiles']} profile file(s) and "
            f"{removed['plans']} plan file(s) from {args.workspace}"
        )
        return 0
    root = Path(args.workspace).expanduser()
    if not root.is_dir():
        print(f"error: no workspace at {root}", file=sys.stderr)
        return 2
    if gc_requested:
        # File-level like `clear`: trims workspaces a plain open would
        # refuse, and never rewrites surviving plans' mtimes.
        swept = Workspace.gc_plans(
            root,
            max_age_days=args.gc,
            max_bytes=args.max_bytes,
            max_entries=args.max_entries,
        )
        if args.gc is not None:
            print(
                f"gc: removed {swept['removed']} plan file(s) older than "
                f"{args.gc:g} day(s), kept {swept['kept']}"
            )
        else:
            print(
                f"gc: removed {swept['removed']} plan file(s) in LRU "
                f"order, kept {swept['kept']}"
            )
        print(
            f"gc: evicted {swept['removed_bytes']} bytes, kept "
            f"{swept['kept_bytes']} bytes"
        )
        return 0
    # info is read-only: a mistyped path must not silently materialize an
    # empty workspace and report it as real
    workspace = Workspace(root, remote=args.remote)
    info = workspace.cache_info()
    for key, value in info.items():
        print(f"{key}: {value}")
    if args.remote:
        from ..cache import RemoteTier

        with RemoteTier(args.remote) as tier:
            stat = tier.stat()
        if stat is None:
            print(f"remote_tier: {args.remote} unreachable")
        else:
            print(
                f"remote_tier: {stat.get('entries', 0)} entries, "
                f"{stat.get('bytes', 0)} bytes, {stat.get('hits', 0)} "
                f"hits, {stat.get('misses', 0)} misses"
            )
    solver = workspace.stats.solver
    print(
        f"degree_solver: {solver.solves} solves, {solver.cache_hits} "
        f"cache hits, {solver.batch_calls} batch calls "
        f"(largest batch {solver.max_batch_size})"
    )
    print(
        f"step2_solver: {solver.step2_objective_calls} objective calls, "
        f"{solver.step2_candidates} candidates"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser(
        "plan", help="compile one iteration plan (optionally as JSON)"
    )
    plan.add_argument(
        "--cluster",
        "-c",
        required=True,
        help=f"cluster name ({', '.join(available_clusters())}, ...)",
    )
    plan.add_argument("--gpus", type=int, default=None,
                      help="scale the cluster to this many GPUs")
    plan.add_argument(
        "--system",
        "-s",
        required=True,
        help=f"system name ({', '.join(available_systems())})",
    )
    _add_stack_args(plan)
    _add_knob_args(plan)
    _add_workspace_arg(plan)
    plan.add_argument(
        "--json",
        action="store_true",
        help="print the plan's JSON document on stdout (nothing else)",
    )
    plan.set_defaults(func=_cmd_plan)

    sweep = sub.add_parser(
        "sweep", help="run an ExperimentSpec file (JSON or TOML)"
    )
    sweep.add_argument("spec", help="path to the experiment spec document")
    _add_workspace_arg(sweep)
    sweep.add_argument(
        "--json", action="store_true", help="print rows as JSON"
    )
    sweep.add_argument(
        "--expect-warm",
        action="store_true",
        help="exit 3 unless every profile and plan came from cache",
    )
    sweep.set_defaults(func=_cmd_sweep)

    bench = sub.add_parser(
        "bench", help="compare systems on one workload (speedup table)"
    )
    bench.add_argument("--cluster", "-c", required=True)
    bench.add_argument("--gpus", type=int, default=None)
    bench.add_argument(
        "--systems",
        default="dsmoe,tutel,tutel-improved,pipemoe-lina,fsmoe-no-iio,fsmoe",
        help="comma-separated system names",
    )
    bench.add_argument(
        "--baseline", default="DS-MoE", help="display name to normalize by"
    )
    _add_stack_args(bench)
    _add_knob_args(bench)
    _add_workspace_arg(bench)
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="serve concurrent plan requests (coalescing + dedup)",
    )
    serve.add_argument(
        "--requests",
        metavar="FILE",
        default=None,
        help="JSON-lines request stream ('-' reads stdin); one result "
             "object is printed per request, in input order",
    )
    serve.add_argument(
        "--demo",
        type=int,
        metavar="N",
        default=None,
        help="run the closed-loop load generator with N requests and "
             "report coalesced throughput vs the serial plan() loop",
    )
    serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="serve the JSON-lines wire protocol over TCP (port 0 "
             "picks a free port, printed on startup) until interrupted; "
             "Ctrl-C drains gracefully",
    )
    serve.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="send the --requests stream to a --listen server instead "
             "of planning locally",
    )
    serve.add_argument(
        "--priority",
        choices=["interactive", "batch"],
        default="interactive",
        help="lane for --connect requests",
    )
    serve.add_argument(
        "--distinct", type=int, default=4,
        help="distinct requests in the --demo stream",
    )
    serve.add_argument(
        "--flush-ms", type=float, default=DEFAULT_FLUSH_MS,
        help="coalescer flush window in milliseconds (0 drains on "
             "arrival: a batch is what queued while the last one "
             "resolved)",
    )
    serve.add_argument(
        "--capacity", type=int, default=DEFAULT_CAPACITY,
        help="bound on the undrained request backlog",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="threads resolving a batch's distinct requests",
    )
    _add_workspace_arg(serve)
    serve.set_defaults(func=_cmd_serve)

    report = sub.add_parser(
        "report",
        help="regenerate every paper artifact (or verify with --check)",
    )
    report.add_argument(
        "--only",
        metavar="LIST",
        default=None,
        help="comma-separated artifact names (see --list); default: all",
    )
    report.add_argument(
        "--list",
        action="store_true",
        help="list the manifest (names, paper refs, files) and exit",
    )
    report.add_argument(
        "--check",
        action="store_true",
        help="re-run the deterministic artifacts and exit 1 on any byte "
             "drift against the committed result files (writes nothing)",
    )
    report.add_argument(
        "--full",
        action="store_true",
        help="paper-sized grids (equivalent to REPRO_BENCH_FULL=1)",
    )
    report.add_argument(
        "--solver",
        default=None,
        choices=list(STEP2_SOLVERS),
        help="FSMoE Step-2 solver override for the big sweeps",
    )
    report.add_argument(
        "--results-dir",
        metavar="PATH",
        default=None,
        help="artifact directory (default: the repo's benchmarks/results)",
    )
    report.add_argument(
        "--report-file",
        metavar="PATH",
        default=None,
        help="where to write REPORT.md (default: next to the results dir)",
    )
    report.add_argument(
        "--no-timings",
        action="store_true",
        help="omit wall-clock columns from REPORT.md (byte-stable "
             "output: re-runs of an unchanged tree produce no diff)",
    )
    report.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="append per-artifact spans to this JSON-lines trace file "
             "(render it with `repro trace FILE`)",
    )
    _add_workspace_arg(report)
    report.set_defaults(func=_cmd_report)

    trace = sub.add_parser(
        "trace",
        help="render a JSON-lines trace file as a span tree",
    )
    trace.add_argument(
        "file",
        help="trace file written by REPRO_TRACE= or `report --trace`",
    )
    trace.add_argument(
        "--no-timings",
        action="store_true",
        help="omit the total/self time columns (attribute-stable output)",
    )
    trace.add_argument(
        "--canonical",
        action="store_true",
        help="print the canonical span tree as JSON (ids and timings "
             "stripped; byte-identical across runs of the same workload)",
    )
    trace.set_defaults(func=_cmd_trace)

    metrics = sub.add_parser(
        "metrics",
        help="print exact workspace counters as Prometheus exposition",
    )
    _add_workspace_arg(metrics)
    metrics.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="run this ExperimentSpec through the workspace first, so "
             "the session counters are live numbers",
    )
    metrics.add_argument(
        "--json",
        action="store_true",
        help="print the metrics snapshot as JSON instead of exposition",
    )
    metrics.set_defaults(func=_cmd_metrics)

    docs = sub.add_parser(
        "docs",
        help="regenerate docs/CLI.md from this parser (or verify --check)",
    )
    docs.add_argument(
        "--out",
        metavar="PATH",
        default="docs/CLI.md",
        help="where the generated CLI reference lives",
    )
    docs.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the committed page differs from a fresh render",
    )
    docs.set_defaults(func=_cmd_docs)

    cache = sub.add_parser(
        "cache",
        help=(
            "inspect, trim or clear a workspace's caches, or run the "
            "shared cache server"
        ),
    )
    cache.add_argument(
        "action",
        nargs="?",
        default="info",
        choices=("info", "clear", "serve"),
    )
    cache.add_argument("--workspace", "-w", metavar="PATH", default=None)
    cache.add_argument(
        "--remote",
        metavar="HOST:PORT",
        default=None,
        help="also report the shared remote tier's occupancy (info)",
    )
    cache.add_argument(
        "--gc",
        type=float,
        metavar="DAYS",
        default=None,
        help="evict plan files not used in DAYS days",
    )
    cache.add_argument(
        "--max-bytes",
        type=int,
        metavar="N",
        default=None,
        help=(
            "with --gc/alone: evict least recently used plan files "
            "until under N bytes; with serve: the server's byte bound"
        ),
    )
    cache.add_argument(
        "--max-entries",
        type=int,
        metavar="N",
        default=None,
        help=(
            "with --gc/alone: evict least recently used plan files "
            "until at most N remain; with serve: the server's entry "
            "bound"
        ),
    )
    cache.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve: bind address of the cache server",
    )
    cache.add_argument(
        "--port",
        type=int,
        default=0,
        help="serve: bind port (0 picks a free one, printed on start)",
    )
    cache.set_defaults(func=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # `repro trace FILE | head` closes stdout early; exit the way
        # POSIX filters do, and point the interpreter's shutdown flush
        # at devnull so it cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
