"""Outside-in layer timing: wrappers around each module's public calls.

The benchmark does not edit the program.  In a traced process it
replaces a few public functions and methods with wrappers that count
calls and time them; a layer's *self* time is its wrapped call's wall
time minus the time spent in wrapped calls it made on the same thread.
End-to-end metrics always come from untraced processes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: wrapped module-level functions: layer name -> (module, function).
FUNCTIONS = {
    "core.alg1": ("repro.core.pipeline_degree", "solve_degrees"),
    "core.step2": (
        "repro.core.gradient_partition", "plan_gradient_partition",
    ),
    "core.profile": ("repro.core.profiler", "profile_cluster"),
    "core.graph": ("repro.core.schedules", "build_iteration_graph"),
    "models.profile_layer": ("repro.models.transformer", "profile_layer"),
    "sim.simulate": ("repro.sim.engine", "simulate"),
    "serve.parse": ("repro.serve.protocol", "parse_plan_payload"),
    "serve.summary": ("repro.serve.protocol", "plan_summary"),
    "serve.encode": ("repro.serve.protocol", "encode_frame"),
}

#: wrapped methods: layer name -> (module, class, method).
METHODS = {
    "planner.compile": ("repro.planner.compiler", "PlanCompiler", "compile"),
    "planner.encode": ("repro.planner.plan", "IterationPlan", "to_dict"),
    "planner.decode": ("repro.planner.plan", "IterationPlan", "from_dict"),
    "api.plan": ("repro.api.workspace", "Workspace", "plan"),
    "api.save": ("repro.api.workspace", "Workspace", "save"),
    "cache.l3.get": ("repro.cache.remote", "RemoteTier", "get"),
    "cache.l3.put": ("repro.cache.remote", "RemoteTier", "put"),
    "cache.server.handle": (
        "repro.cache.remote", "CacheServer", "handle_line",
    ),
    "serve.submit": ("repro.serve.service", "PlanService", "submit"),
}

#: layers whose individual call latencies are kept for percentiles.
SAMPLED = frozenset({"cache.l3.get", "cache.l3.put"})

#: the modules a traced process must have imported before wrapping, so
#: every ``from x import f`` binding already exists and gets rebound.
IMPORTS = ("repro", "repro.api.cli", "repro.serve.net", "repro.cache.remote")


class LayerClock:
    """Call counts and self times of wrapped calls, across threads.

    Off until :meth:`start`; a wrapper costs one attribute test while
    off.  :meth:`stop` freezes the counts of one measured phase.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.enabled = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: ``PlanService.submit`` calls whose future was already
        #: settled on return: answered from the completed-plan cache.
        self.submit_done = 0

    def start(self) -> None:
        """Zero every count and start counting."""
        with self._lock:
            self.calls.clear()
            self.self_s.clear()
            self.samples.clear()
            self.submit_done = 0
        self.enabled = True

    def stop(self) -> dict:
        """Stop counting; the phase's counts as plain data."""
        self.enabled = False
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
                "samples_ms": {
                    k: [x * 1e3 for x in v] for k, v in self.samples.items()
                },
                "submit_done": self.submit_done,
            }

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """A timing wrapper around ``fn`` reporting under ``name``."""
        clock = self
        sampled = name in SAMPLED
        is_submit = name == "serve.submit"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not clock.enabled:
                return fn(*args, **kwargs)
            stack = clock._stack()
            stack.append(0.0)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with clock._lock:
                    clock.calls[name] += 1
                    clock.self_s[name] += elapsed - children
                    if sampled:
                        clock.samples[name].append(elapsed)
                    if is_submit and result is not None and result.done():
                        clock.submit_done += 1

        return wrapper

    def install(self) -> None:
        """Wrap every :data:`FUNCTIONS` and :data:`METHODS` entry.

        A function is rebound wherever a ``repro`` module holds it (the
        ``from x import f`` copies included); a method is replaced on
        its class.
        """
        for module in IMPORTS:
            importlib.import_module(module)
        for name, (module, attr) in FUNCTIONS.items():
            target = getattr(importlib.import_module(module), attr)
            wrapper = self.wrap(name, target)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is target:
                        setattr(loaded, key, wrapper)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))


def workspace_counts(later, earlier) -> dict:
    """The exact cache and solver counters of one phase of a workspace
    (two :class:`~repro.api.WorkspaceStats` snapshots)."""
    window = later.since(earlier)
    cache = window.cache
    solver = window.solver
    counts = {
        "plan_misses": window.plan_misses,
        "layer_fits": window.profiles.layer_misses,
        "solver_solves": solver.solves,
        "solver_cache_hits": solver.cache_hits,
        "step2_candidates": solver.step2_candidates,
        "l1_hits": cache.l1.hits,
        "l1_misses": cache.l1.misses,
        "l2_hits": cache.l2.hits,
        "l3_hits": cache.l3.hits,
        "l3_errors": cache.l3.errors + cache.profiles_remote.errors,
    }
    if later.service is not None and earlier.service is not None:
        service = later.service - earlier.service
        counts["service_p50_ms"] = service.p50_latency_ms
    return counts
