"""One plan request and its identity, normalized and digested once.

A :class:`PlanRequest` is the :meth:`Workspace.plan` surface as a value.
Construction canonicalizes the spelling (a single spec becomes a
1-tuple, one gate becomes a uniform gate tuple, an implicit layout
becomes the cluster's standard layout), so two requests for the same
plan are equal fields.  The content address -- the canonical JSON text
of the codec-encoded key and the digest that names the plan file -- is
computed on first use and memoized on the object, so every layer that
holds the request (the wire parse memo, the service's grouping, the
workspace's tier walk, the ``digest`` response field) reads one value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..config import MoELayerSpec, ParallelSpec, standard_layout
from ..errors import ConfigError
from ..moe.gates import GateKind
from ..parallel.topology import ClusterSpec
from ..systems.base import TrainingSystem
from .codec import canonical_json, encode, text_digest


@dataclass(frozen=True)
class PlanRequest:
    """One plan request, exactly the :meth:`Workspace.plan` surface.

    Attributes mirror the workspace call and hold their normalized
    values after construction; ``system`` is identified by its
    :meth:`~repro.systems.base.TrainingSystem.fingerprint`, so two
    equal-configured instances share one identity.

    Raises:
        ConfigError: for an empty stack or a gate sequence whose length
            differs from the stack's.
    """

    stack: MoELayerSpec | Sequence[MoELayerSpec]
    system: TrainingSystem
    cluster: ClusterSpec
    parallel: ParallelSpec | None = None
    gate_kind: GateKind | Sequence[GateKind] = GateKind.GSHARD
    routing_overhead: float = 1.0
    include_gar: bool = True
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        stack = self.stack
        if isinstance(stack, MoELayerSpec):
            stack = (stack,)
        stack = tuple(stack)
        if not stack:
            raise ConfigError("stack must contain at least one layer spec")
        parallel = self.parallel
        if parallel is None:
            parallel = standard_layout(
                self.cluster.total_gpus, self.cluster.gpus_per_node
            )
        if isinstance(self.gate_kind, GateKind):
            gates = (self.gate_kind,) * len(stack)
        else:
            gates = tuple(self.gate_kind)
            if len(gates) != len(stack):
                raise ConfigError(
                    f"gate_kind sequence has {len(gates)} entries for "
                    f"{len(stack)} layers"
                )
        for name, value in (
            ("stack", stack),
            ("parallel", parallel),
            ("gate_kind", gates),
            ("routing_overhead", float(self.routing_overhead)),
            ("include_gar", bool(self.include_gar)),
            ("noise", float(self.noise)),
            ("seed", int(self.seed)),
        ):
            object.__setattr__(self, name, value)

    def _identity(self) -> tuple[str, str]:
        """``(key_json, digest)``, computed once per object.

        The memo lives in the instance ``__dict__``, outside the
        dataclass fields, so equality, hashing and ``repr`` never see
        it; two threads filling it at once store equal values.
        """
        identity = self.__dict__.get("_identity_memo")
        if identity is None:
            identity = _compute_identity(self)
            self.__dict__["_identity_memo"] = identity
        return identity

    @property
    def key(self) -> object:
        """The codec-encoded plan key, as a plan document stores it.

        Encoded afresh on each access and not memoized: only a compile
        writes it, while a memoized copy would stay alive in every
        request a parse memo holds.
        """
        return _encode_key(self)

    @property
    def key_json(self) -> str:
        """Canonical JSON text of :attr:`key`, what tier reads validate."""
        return self._identity()[0]

    @property
    def digest(self) -> str:
        """Content address: names ``plans/<digest>.json`` and the L1/L3 key."""
        return self._identity()[1]


def _encode_key(request: PlanRequest) -> object:
    """The codec-encoded plan key of one request."""
    return encode(
        (
            "plan",
            request.cluster,
            request.parallel,
            request.stack,
            request.gate_kind,
            tuple(request.system.fingerprint()),
            request.routing_overhead,
            request.include_gar,
            request.noise,
            request.seed,
        )
    )


def _compute_identity(request: PlanRequest) -> tuple[str, str]:
    """Encode, canonicalize and hash one request's plan identity."""
    key_json = canonical_json(_encode_key(request))
    return key_json, text_digest(key_json)
