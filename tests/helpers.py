"""Shared test helpers: random pipeline contexts, per-system times."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.bench import CONFIGURED_LAYER_COUNT, ConfigResult
from repro.core.constraints import PipelineContext
from repro.core.perf_model import LinearPerfModel
from repro.planner import PlanCompiler


def count_identity_calls(monkeypatch) -> list:
    """Patch the plan-request identity computation to record each call.

    Returns the list the patched function appends each request to, so a
    test asserts exactly how often a request's digest was computed.
    """
    from repro.api import request as request_module

    calls: list = []
    compute = request_module._compute_identity

    def counting(request):
        calls.append(request)
        return compute(request)

    monkeypatch.setattr(request_module, "_compute_identity", counting)
    return calls


def config_result(
    spec, cluster, models, systems, num_layers=CONFIGURED_LAYER_COUNT
) -> ConfigResult:
    """Every system's iteration time on ``num_layers`` copies of ``spec``."""
    compiler = PlanCompiler(cluster, models=models)
    stack = [spec] * num_layers
    return ConfigResult(
        spec=spec,
        parallel=compiler.parallel,
        times_ms={
            system.name: compiler.iteration_time_ms(stack, system)
            for system in systems
        },
    )


@st.composite
def pipeline_contexts(
    draw,
    with_gar: bool = False,
    max_alpha: float = 0.5,
) -> PipelineContext:
    """Random but physically plausible pipeline contexts.

    Alphas span launch latencies (0.01-0.5 ms); per-chunk byte/MAC volumes
    span light to heavy layers, so all four cases of §4.2 are reachable.
    """
    def model() -> LinearPerfModel:
        return LinearPerfModel(
            alpha=draw(st.floats(0.01, max_alpha)),
            beta=draw(st.floats(1e-8, 1e-6)),
        )

    volume = st.floats(1e5, 5e8)
    t_gar = draw(st.floats(0.0, 30.0)) if with_gar else 0.0
    return PipelineContext(
        a2a=model(),
        n_a2a=draw(volume),
        ag=model(),
        n_ag=draw(volume),
        rs=model(),
        n_rs=draw(volume),
        exp=LinearPerfModel(
            alpha=draw(st.floats(0.01, max_alpha)),
            beta=draw(st.floats(1e-11, 1e-9)),
        ),
        n_exp=draw(st.floats(1e8, 1e12)),
        t_gar=t_gar,
    )
