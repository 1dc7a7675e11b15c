"""PipeMoE + Lina: fixed-size gradient chunking (paper §6.4).

Lina partitions the gradient into fixed chunks (30 MB) and overlaps the
chunked aggregation with expert computation and non-MoE backward work,
giving AlltoAll priority on the network.  The fixed size is its weakness
("its performance is hit or miss", §6.4): too-large chunks head-of-line
block AlltoAll, too-small chunks waste startup latency -- which is exactly
what FSMoE's adaptive partitioning fixes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..core.context import SolverContext
from ..core.perf_model import PerfModelSet
from ..core.schedules import GarMode, IterationSpec, LINA_CHUNK_BYTES
from ..models.transformer import LayerProfile
from .tutel import Tutel, _oracle_degree, _pipemoe_spec


class PipeMoELina(Tutel):
    """PipeMoE pipelining + Lina's fixed 30 MB gradient chunks."""

    name = "PipeMoE+Lina"

    def __init__(self, r_max: int = 16, chunk_bytes: float = LINA_CHUNK_BYTES):
        super().__init__(r_max)
        self.chunk_bytes = chunk_bytes

    def fingerprint(self) -> tuple:
        """Cache identity: the base fingerprint plus the chunk size."""
        return super().fingerprint() + ("chunk_bytes", self.chunk_bytes)

    def build_iteration_spec(
        self,
        profiles: Sequence[LayerProfile],
        models: PerfModelSet,
        include_gar: bool = True,
        *,
        solver_context: SolverContext | None = None,
    ) -> IterationSpec:
        """PipeMoE schedule with background 30 MB AllReduce chunks.

        ``profiles`` may be heterogeneous; the oracle sweep then picks
        the single degree that minimizes the whole stack's makespan.
        """
        if solver_context is None:
            solver_context = SolverContext()
        key = tuple(profiles)
        degree = _oracle_degree(
            key, models, self.r_max, include_gar, solver_context
        )
        spec = _pipemoe_spec(
            key, models, degree, GarMode.FIXED_CHUNKS, include_gar, self.name
        )
        return replace(spec, gar_chunk_bytes=self.chunk_bytes)
