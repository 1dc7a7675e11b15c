"""DeepSpeed-MoE baseline: the paper's "default schedule" (Fig. 3a).

Every operation runs synchronously on the default CUDA stream -- no
pipelining (r = 1), no communication/computation overlap, gradient
AllReduce exposed after backward.  Its routing/ordering implementations
are also less optimized than FSMoE's fused ones (paper §1 and Table 6),
modelled as a constant multiplier on the (small) gate + order compute.
"""

from __future__ import annotations

from typing import Sequence

from ..core.context import SolverContext
from ..core.perf_model import PerfModelSet
from ..core.schedules import (
    GarMode,
    IterationSpec,
    LayerPhaseSchedule,
    SINGLE_STREAM,
)
from ..models.transformer import LayerProfile
from .base import TrainingSystem

#: slowdown of DeepSpeed-MoE's un-fused routing/ordering kernels relative
#: to FSMoE's implementations.  The affected ops are <1.5% of a layer
#: (Table 2), so this contributes only a few percent end-to-end.
ROUTING_OVERHEAD = 3.0


class DeepSpeedMoE(TrainingSystem):
    """Sequential single-stream schedule with r = 1."""

    name = "DS-MoE"

    def build_iteration_spec(
        self,
        profiles: Sequence[LayerProfile],
        models: PerfModelSet,
        include_gar: bool = True,
        *,
        solver_context: SolverContext | None = None,
    ) -> IterationSpec:
        """All ops on one stream; gradient AllReduce at the very end.

        ``profiles`` may be heterogeneous; with ``r = 1`` everywhere each
        layer simply contributes its own unchunked op times.
        """
        extra = (ROUTING_OVERHEAD - 1.0)
        forward = tuple(
            LayerPhaseSchedule(
                ctx=p.ctx_fw,
                degree=1,
                dense_ms=p.dense_fw_ms + extra * (p.gate_ms + p.order_ms),
            )
            for p in profiles
        )
        backward = tuple(
            LayerPhaseSchedule(
                ctx=p.ctx_bw,
                degree=1,
                dense_ms=p.dense_bw_ms + extra * (p.gate_ms + p.order_ms),
            )
            for p in profiles
        )
        grad_bytes = tuple(
            p.grad_bytes if include_gar else 0.0 for p in profiles
        )
        return IterationSpec(
            name=self.name,
            forward=forward,
            backward=backward,
            grad_bytes=grad_bytes,
            ar_model=models.allreduce,
            streams=SINGLE_STREAM,
            gar_mode=GarMode.END,
        )
