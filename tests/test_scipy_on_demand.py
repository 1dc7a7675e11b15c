"""SciPy stays out of every process that does not ask for SLSQP.

The default planning path (Algorithm 1's batched sweep, Step 2's in-tree
differential evolution) needs only NumPy; SciPy's ``minimize`` is
imported inside the SLSQP code paths that call it.  Each case runs in a
fresh interpreter, since this test process has SciPy loaded already.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

from tests.test_workspace import SRC

#: Prelude of every probe: a cold workspace and a stack whose FSMoE plan
#: runs Step 2 (two layers leave a residual for the search to place).
_PRELUDE = """
import sys

from repro import MoELayerSpec, Workspace, testbed_b
from repro.systems import get_system

SPEC = MoELayerSpec(
    batch_size=1, seq_len=1024, embed_dim=2048, num_experts=8, num_heads=16
)
ROOT = sys.argv[1]  # the workspace root


def scipy_loaded():
    return "scipy" in sys.modules
"""


def _run(body: str, root) -> None:
    script = _PRELUDE + textwrap.dedent(body)
    result = subprocess.run(
        [sys.executable, "-c", script, str(root)],
        capture_output=True, text=True, timeout=300,
        env=dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [str(SRC), os.environ.get("PYTHONPATH", "")]
            ),
        ),
    )
    assert result.returncode == 0, result.stderr[-3000:]


def test_default_paths_never_load_scipy(tmp_path):
    _run("""
        assert not scipy_loaded(), "import repro"
        import repro.api.cli, repro.serve.net  # what `repro serve` loads
        assert not scipy_loaded(), "repro serve"

        with Workspace(ROOT) as ws:
            plan = ws.plan([SPEC] * 2, get_system("fsmoe"), testbed_b())
            assert ws.stats.solver.step2_objective_calls > 0, "no Step 2"
        assert plan.makespan_ms() > 0
        assert not scipy_loaded(), "cold default plan"
    """, tmp_path)


def test_slsqp_paths_load_scipy_on_demand(tmp_path):
    _run("""
        from repro import PlanCompiler, ProfileStore

        store = ProfileStore(degree_solver="slsqp")
        compiler = PlanCompiler(testbed_b(), store=store)
        small = MoELayerSpec(
            batch_size=1, seq_len=256, embed_dim=512, num_experts=8,
            num_heads=8,
        )
        assert not scipy_loaded()
        plan = compiler.compile([small], get_system("fsmoe"))
        assert plan.makespan_ms() > 0
        assert "scipy.optimize" in sys.modules, "Algorithm-1 SLSQP"
    """, tmp_path)
    _run("""
        with Workspace(ROOT) as ws:
            assert not scipy_loaded()
            ws.plan([SPEC] * 2, get_system("fsmoe"), testbed_b())
            assert ws.stats.solver.step2_objective_calls > 0, "no Step 2"
            assert not scipy_loaded(), "the DE needs no SciPy"
            plan = ws.plan(
                [SPEC] * 2, get_system("fsmoe", solver="slsqp"), testbed_b()
            )
        assert plan.makespan_ms() > 0
        assert "scipy.optimize" in sys.modules, "Step-2 SLSQP"
    """, tmp_path)
