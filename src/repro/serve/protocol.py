"""The plan-serving wire protocol: schema, plan payloads, overload codes.

One request object per line, one response object per line, UTF-8 JSON
over a plain TCP socket.  The transport -- framing, the frame gate, the
envelopes, the transport ``E_*`` codes and :class:`Backoff` -- is the
RPC kernel :mod:`repro.rpc`, which the shared cache tier
(:mod:`repro.cache.remote`) speaks too; this module re-exports it and
adds what only plan serving has.  :class:`~repro.serve.net.NetServer`
and :class:`~repro.serve.net.NetClient` both import it, and
``docs/SERVING.md`` documents the same tables.

Request envelope (client -> server)::

    {"op": "plan", "schema": 1, "id": 7, "priority": "interactive",
     "detail": "summary", "request": {...}}

``op`` is one of ``plan``, ``ping``, ``stats``, ``metrics``; ``id`` is
an arbitrary client-chosen JSON value echoed back verbatim (absent
echoes ``null``); ``priority`` selects the server lane (``interactive``
default, or ``batch``); ``detail`` selects the result shape
(``summary`` default, or ``plan`` for the full replayable document);
``digest`` (boolean) additionally asks for the plan's content address.
The ``request`` payload is exactly the ``repro serve --requests`` line
schema, parsed by :func:`parse_plan_payload`.

Response envelope (server -> client)::

    {"ok": true, "id": 7, "result": {...}}                      # success
    {"ok": false, "id": 7, "error": {"code": "shed",
     "message": "..."}, "retry_after_ms": 50.0}                 # refusal

Every refusal carries a stable machine-readable ``error.code``: the
kernel's transport codes or the plan codes below.  Only the codes in
:data:`RETRYABLE_CODES` (``shed``, ``draining``) carry
``retry_after_ms`` and may be retried verbatim -- everything else means
the frame itself is wrong.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..api.request import PlanRequest
from ..api.spec import ClusterRef, StackSpec
from ..config import standard_layout
from ..errors import ConfigError
from ..moe.gates import GateKind
from ..planner.plan import IterationPlan
from ..rpc import (
    E_BAD_FRAME,
    E_BAD_JSON,
    E_BAD_REQUEST,
    E_BAD_SCHEMA,
    E_INTERNAL,
    E_OVERSIZED,
    E_UNKNOWN_OP,
    Backoff,
    encode_frame,
    error_response,
    ok_response,
)
from ..systems.registry import get_system

#: on-wire schema version of the plan-serving protocol; a mismatch is
#: refused (``bad-schema``) on every frame, so a mixed-version fleet
#: fails loudly instead of misreading envelopes.
PROTOCOL_SCHEMA_VERSION = 1

#: refuse (and resync past) absurd single request lines instead of
#: buffering them; responses are bounded by the client's
#: :data:`~repro.rpc.MAX_RESPONSE_BYTES` (plan documents are large).
MAX_LINE_BYTES = 1 * 1024 * 1024

# -- plan-serving error codes (the wire contract; see docs/SERVING.md) ----

#: overload shed: the priority lane (or a per-client bound) is full.
E_SHED = "shed"
#: the server is draining for shutdown and takes no new work.
E_DRAINING = "draining"
#: the plan resolution itself failed (the request's own fault:
#: impossible topology, solver failure, ...).
E_PLAN_FAILED = "plan-failed"

#: codes a client may retry verbatim, honoring ``retry_after_ms``.
RETRYABLE_CODES = frozenset({E_SHED, E_DRAINING})

#: the 5xx class: codes that indicate a server fault, not a bad request.
SERVER_FAULT_CODES = frozenset({E_INTERNAL})

#: keys a ``plan`` payload may carry (the CLI request-line schema).
PLAN_PAYLOAD_KEYS = frozenset({
    "cluster", "system", "stack", "gate", "solver", "r_max",
    "routing_overhead", "noise", "seed",
})


def parse_plan_payload(data: dict) -> PlanRequest:
    """One ``plan`` request payload -> a normalized
    :class:`~repro.api.request.PlanRequest`.

    The payload is exactly the ``repro serve --requests`` line schema:
    ``cluster`` (name or ``{"name", "total_gpus"}``), ``system``,
    ``stack`` (a :class:`~repro.api.spec.StackSpec` document), plus the
    optional ``gate``/``solver``/``r_max``/``routing_overhead``/
    ``noise``/``seed`` knobs.  Both the CLI's file path and the network
    server parse through here, so the two surfaces cannot drift.

    Raises:
        ConfigError: for a non-object payload, unknown keys, missing
            required keys, or any malformed component.
    """
    if not isinstance(data, dict):
        raise ConfigError(
            f"plan payload must be an object, got {type(data).__name__}"
        )
    unknown = set(data) - PLAN_PAYLOAD_KEYS
    if unknown:
        raise ConfigError(
            f"unknown keys {sorted(unknown)}; expected a subset of "
            f"{sorted(PLAN_PAYLOAD_KEYS)}"
        )
    for required in ("cluster", "system", "stack"):
        if required not in data:
            raise ConfigError(f"lacks {required!r}")
    cluster = ClusterRef.from_data(data["cluster"]).resolve()
    stack_spec = StackSpec.from_data(data["stack"])
    parallel = standard_layout(cluster.total_gpus, cluster.gpus_per_node)
    stack = stack_spec.resolve(parallel)
    try:
        gate = GateKind(data.get("gate", GateKind.GSHARD.value))
    except ValueError as exc:
        raise ConfigError(f"unknown gate {data.get('gate')!r}") from exc
    gates = stack_spec.resolve_gates(len(stack), gate)
    system = get_system(
        data["system"],
        r_max=data.get("r_max"),
        solver=data.get("solver", "de"),
    )
    try:
        routing_overhead = float(data.get("routing_overhead", 1.0))
        noise = float(data.get("noise", 0.0))
        seed = int(data.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed numeric knob: {exc}") from exc
    return PlanRequest(
        stack=stack,
        system=system,
        cluster=cluster,
        parallel=parallel,
        gate_kind=gates,
        routing_overhead=routing_overhead,
        noise=noise,
        seed=seed,
    )


def plan_summary(plan: IterationPlan) -> dict:
    """The compact ``detail="summary"`` result body for one plan."""
    return {
        "system": plan.name,
        "num_layers": plan.num_layers,
        "degrees": list(plan.degrees),
        "makespan_ms": plan.makespan_ms(),
    }


def retry_priorities(
    total: int, *, batch_fraction: float = 0.25, seed: int = 0
) -> list[str]:
    """A deterministic mixed-priority assignment for ``total`` requests.

    The load drivers and the CI smoke both need "mixed-priority" to
    mean the same stream run to run: a seeded coin per request,
    ``batch`` with probability ``batch_fraction``.

    Raises:
        ConfigError: for a fraction outside ``[0, 1]``.
    """
    if not 0.0 <= batch_fraction <= 1.0:
        raise ConfigError(
            f"batch_fraction must be in [0, 1], got {batch_fraction}"
        )
    rng = random.Random(seed)
    return [
        "batch" if rng.random() < batch_fraction else "interactive"
        for _ in range(total)
    ]


#: names re-exported through :mod:`repro.serve`.
__all__: Sequence[str] = (
    "PROTOCOL_SCHEMA_VERSION",
    "MAX_LINE_BYTES",
    "E_BAD_JSON",
    "E_BAD_FRAME",
    "E_BAD_SCHEMA",
    "E_UNKNOWN_OP",
    "E_OVERSIZED",
    "E_BAD_REQUEST",
    "E_SHED",
    "E_DRAINING",
    "E_PLAN_FAILED",
    "E_INTERNAL",
    "RETRYABLE_CODES",
    "SERVER_FAULT_CODES",
    "Backoff",
    "encode_frame",
    "error_response",
    "ok_response",
    "parse_plan_payload",
    "plan_summary",
    "retry_priorities",
)
