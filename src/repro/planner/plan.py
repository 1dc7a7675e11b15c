"""Serializable iteration plans: persist a schedule, replay it anywhere.

The back-end's product is a fully-resolved description of one training
iteration -- per-layer pipeline degrees, chunk timings, stream mapping
and gradient-AllReduce placement.  :class:`IterationPlan` captures that
product as plain numbers so it can be written to JSON, shipped to
another process, and re-simulated *bit-identically* without re-running
profiling, Algorithm 1 or the gradient partitioner.

Round-trip guarantee: ``IterationPlan.from_json(plan.to_json())``
reconstructs a plan whose simulated timeline equals the original's
exactly.  JSON floats survive because Python serializes them with
``repr`` (shortest round-tripping form) and parses them back to the same
IEEE-754 value.

The JSON schema (version 1) is documented in the README.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..core.constraints import PipelineContext
from ..core.gradient_partition import GradientPartitionPlan
from ..core.perf_model import LinearPerfModel
from ..core.schedules import (
    GarMode,
    GarPlacement,
    IterationSpec,
    LayerPhaseSchedule,
    StreamMap,
    build_iteration_graph,
)
from ..errors import ScheduleError
from ..sim.engine import simulate
from ..sim.timeline import Timeline

#: current serialization format version.
PLAN_SCHEMA_VERSION = 1


def _model_to_dict(model: LinearPerfModel) -> dict:
    return {"alpha": model.alpha, "beta": model.beta}


def _model_from_dict(data: dict) -> LinearPerfModel:
    return LinearPerfModel(alpha=data["alpha"], beta=data["beta"])


def _ctx_to_dict(ctx: PipelineContext) -> dict:
    return {
        "a2a": _model_to_dict(ctx.a2a),
        "n_a2a": ctx.n_a2a,
        "ag": _model_to_dict(ctx.ag),
        "n_ag": ctx.n_ag,
        "rs": _model_to_dict(ctx.rs),
        "n_rs": ctx.n_rs,
        "exp": _model_to_dict(ctx.exp),
        "n_exp": ctx.n_exp,
        "t_gar": ctx.t_gar,
    }


def _ctx_from_dict(data: dict) -> PipelineContext:
    return PipelineContext(
        a2a=_model_from_dict(data["a2a"]),
        n_a2a=data["n_a2a"],
        ag=_model_from_dict(data["ag"]),
        n_ag=data["n_ag"],
        rs=_model_from_dict(data["rs"]),
        n_rs=data["n_rs"],
        exp=_model_from_dict(data["exp"]),
        n_exp=data["n_exp"],
        t_gar=data["t_gar"],
    )


def _phase_to_dict(phase: LayerPhaseSchedule) -> dict:
    return {
        "degree": phase.degree,
        "dense_ms": phase.dense_ms,
        "ctx": _ctx_to_dict(phase.ctx),
    }


def _phase_from_dict(data: dict) -> LayerPhaseSchedule:
    return LayerPhaseSchedule(
        ctx=_ctx_from_dict(data["ctx"]),
        degree=data["degree"],
        dense_ms=data["dense_ms"],
    )


@dataclass(frozen=True)
class IterationPlan:
    """A fully-resolved, serializable training-iteration schedule.

    Thin immutable wrapper around the same information as
    :class:`~repro.core.schedules.IterationSpec`, with the gradient
    placement reduced to :class:`~repro.core.schedules.GarPlacement`
    (plain numbers, no solver state).

    Attributes:
        name: system label the plan was compiled for.
        forward: per-layer forward schedules (may all differ --
            heterogeneous stacks are first-class).
        backward: per-layer backward schedules.
        grad_bytes: dense-gradient bytes produced per layer.
        ar_model: fitted Gradient-AllReduce model.
        streams: stream mapping (contention model).
        gar_mode: Gradient-AllReduce placement strategy.
        gar_chunk_bytes: chunk size for ``FIXED_CHUNKS``.
        gar: byte placement, present iff ``gar_mode`` is ``ADAPTIVE``.
    """

    name: str
    forward: tuple[LayerPhaseSchedule, ...]
    backward: tuple[LayerPhaseSchedule, ...]
    grad_bytes: tuple[float, ...]
    ar_model: LinearPerfModel
    streams: StreamMap
    gar_mode: GarMode
    gar_chunk_bytes: float
    gar: GarPlacement | None = None

    @property
    def num_layers(self) -> int:
        """Generalized layers in the planned iteration."""
        return len(self.forward)

    @property
    def degrees(self) -> tuple[tuple[int, int], ...]:
        """Per-layer (forward, backward) pipeline degrees."""
        return tuple(
            (fw.degree, bw.degree)
            for fw, bw in zip(self.forward, self.backward)
        )

    # -- spec bridge ---------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: IterationSpec) -> "IterationPlan":
        """Capture an :class:`IterationSpec` as a persistable plan."""
        gar: GarPlacement | None = None
        if spec.plan is not None:
            if isinstance(spec.plan, GradientPartitionPlan):
                gar = spec.plan.placement
            else:
                gar = spec.plan
        return cls(
            name=spec.name,
            forward=spec.forward,
            backward=spec.backward,
            grad_bytes=spec.grad_bytes,
            ar_model=spec.ar_model,
            streams=spec.streams,
            gar_mode=spec.gar_mode,
            gar_chunk_bytes=spec.gar_chunk_bytes,
            gar=gar,
        )

    def to_spec(self) -> IterationSpec:
        """Rebuild the :class:`IterationSpec` this plan describes."""
        return IterationSpec(
            name=self.name,
            forward=self.forward,
            backward=self.backward,
            grad_bytes=self.grad_bytes,
            ar_model=self.ar_model,
            streams=self.streams,
            gar_mode=self.gar_mode,
            gar_chunk_bytes=self.gar_chunk_bytes,
            plan=self.gar,
        )

    def simulate(self, phase: str = "both") -> Timeline:
        """Execute the planned iteration on the discrete-event engine."""
        return simulate(build_iteration_graph(self.to_spec(), phase=phase))

    def makespan_ms(self, phase: str = "both") -> float:
        """Simulated duration of the planned iteration (or one phase).

        Simulated once per plan object and phase: a plan is immutable,
        so the value never changes.  The memo lives in the instance
        ``__dict__``, outside the dataclass fields, so equality, hashing,
        ``repr`` and the plan document never see it; two threads filling
        it at once store the same deterministic value.
        """
        memo = self.__dict__.setdefault("_makespan_memo", {})
        value = memo.get(phase)
        if value is None:
            value = memo[phase] = self.simulate(phase=phase).makespan_ms
        return value

    def _simulated(self, phase: str = "both") -> bool:
        """Whether :meth:`makespan_ms` for ``phase`` is already memoized."""
        return phase in self.__dict__.get("_makespan_memo", ())

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data representation (schema version 1)."""
        return {
            "version": PLAN_SCHEMA_VERSION,
            "name": self.name,
            "streams": {
                "compute": self.streams.compute,
                "intra": self.streams.intra,
                "inter": self.streams.inter,
            },
            "gar_mode": self.gar_mode.value,
            "gar_chunk_bytes": self.gar_chunk_bytes,
            "grad_bytes": list(self.grad_bytes),
            "ar_model": _model_to_dict(self.ar_model),
            "layers": [
                {
                    "forward": _phase_to_dict(fw),
                    "backward": _phase_to_dict(bw),
                }
                for fw, bw in zip(self.forward, self.backward)
            ],
            "gar": (
                None
                if self.gar is None
                else {
                    "moe_window_bytes": list(self.gar.moe_window_bytes),
                    "dense_window_bytes": list(self.gar.dense_window_bytes),
                    "extra_bytes": list(self.gar.extra_bytes),
                    "tail_bytes": self.gar.tail_bytes,
                    "t_gar_ms": list(self.gar.t_gar_ms),
                }
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IterationPlan":
        """Inverse of :meth:`to_dict`.

        Raises:
            ScheduleError: for an unknown schema version.
        """
        version = data.get("version")
        if version != PLAN_SCHEMA_VERSION:
            raise ScheduleError(
                f"unsupported plan schema version {version!r} "
                f"(this build reads version {PLAN_SCHEMA_VERSION})"
            )
        gar_data = data.get("gar")
        gar = None
        if gar_data is not None:
            gar = GarPlacement(
                moe_window_bytes=tuple(gar_data["moe_window_bytes"]),
                dense_window_bytes=tuple(gar_data["dense_window_bytes"]),
                extra_bytes=tuple(gar_data["extra_bytes"]),
                tail_bytes=gar_data["tail_bytes"],
                t_gar_ms=tuple(gar_data["t_gar_ms"]),
            )
        return cls(
            name=data["name"],
            forward=tuple(
                _phase_from_dict(layer["forward"]) for layer in data["layers"]
            ),
            backward=tuple(
                _phase_from_dict(layer["backward"]) for layer in data["layers"]
            ),
            grad_bytes=tuple(data["grad_bytes"]),
            ar_model=_model_from_dict(data["ar_model"]),
            streams=StreamMap(
                compute=data["streams"]["compute"],
                intra=data["streams"]["intra"],
                inter=data["streams"]["inter"],
            ),
            gar_mode=GarMode(data["gar_mode"]),
            gar_chunk_bytes=data["gar_chunk_bytes"],
            gar=gar,
        )

    def to_json(self, *, indent: int | None = None) -> str:
        """Serialize to a JSON string (floats round-trip exactly)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "IterationPlan":
        """Parse a plan serialized with :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
