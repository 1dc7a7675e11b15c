"""Tests for IterationPlan serialization and replay."""

from __future__ import annotations

import pytest

from repro.core.schedules import GarMode, GarPlacement
from repro.errors import ScheduleError, SolverError
from repro.planner import IterationPlan, PlanCompiler
from repro.systems import (
    DeepSpeedMoE,
    FSMoE,
    FSMoENoIIO,
    PipeMoELina,
    Tutel,
    TutelImproved,
)

ALL = [
    DeepSpeedMoE, Tutel, TutelImproved, PipeMoELina, FSMoENoIIO, FSMoE,
]


@pytest.fixture(scope="module")
def compiler(cluster_b):
    return PlanCompiler(cluster_b)


@pytest.fixture(scope="module")
def hetero_stack(small_spec):
    """Three generalized layers with three distinct shapes."""
    return [
        small_spec,
        small_spec.with_(embed_dim=2048, hidden_scale=3.0),
        small_spec.with_(top_k=1),
    ]


class TestCompileToPlan:
    @pytest.mark.parametrize("system_cls", ALL)
    def test_heterogeneous_stack_plans_and_simulates(
        self, compiler, hetero_stack, system_cls
    ):
        """Acceptance: >=2 distinct specs end-to-end under every system."""
        plan = compiler.compile(hetero_stack, system_cls())
        assert plan.num_layers == 3
        timeline = plan.simulate()
        assert timeline.makespan_ms > 0
        # one expert block per layer per phase actually executed.
        from repro.sim.events import TaskKind
        expert_records = [
            r for r in timeline.records if r.task.kind is TaskKind.EXPERT
        ]
        assert len(expert_records) >= 2 * plan.num_layers

    def test_heterogeneous_layers_get_distinct_schedules(
        self, compiler, hetero_stack
    ):
        plan = compiler.compile(hetero_stack, FSMoE())
        # distinct shapes -> distinct chunk volumes in the contexts.
        volumes = {phase.ctx.n_a2a for phase in plan.forward}
        assert len(volumes) == 3

    def test_spec_round_trip(self, compiler, small_spec):
        plan = compiler.compile([small_spec] * 2, FSMoE())
        rebuilt = IterationPlan.from_spec(plan.to_spec())
        assert rebuilt == plan


class TestJsonRoundTrip:
    @pytest.mark.parametrize("system_cls", ALL)
    def test_bit_identical_simulation(
        self, compiler, hetero_stack, system_cls
    ):
        """Acceptance: serialize -> deserialize -> simulate, exactly."""
        plan = compiler.compile(hetero_stack, system_cls())
        replayed = IterationPlan.from_json(plan.to_json())
        assert replayed == plan
        original = plan.simulate()
        again = replayed.simulate()
        assert original == again  # bit-identical records, not approx
        assert original.to_json() == again.to_json()

    def test_json_is_versioned_plain_data(self, compiler, small_spec):
        plan = compiler.compile(small_spec, Tutel())
        data = plan.to_dict()
        assert data["version"] == 1
        assert len(data["layers"]) == 1
        assert set(data["layers"][0]) == {"forward", "backward"}

    def test_unknown_version_rejected(self, compiler, small_spec):
        plan = compiler.compile(small_spec, Tutel())
        data = plan.to_dict()
        data["version"] = 99
        with pytest.raises(ScheduleError):
            IterationPlan.from_dict(data)

    def test_adaptive_plan_keeps_gar_placement(self, compiler, small_spec):
        plan = compiler.compile([small_spec] * 3, FSMoE())
        assert plan.gar_mode is GarMode.ADAPTIVE
        assert plan.gar is not None
        replayed = IterationPlan.from_json(plan.to_json())
        assert replayed.gar == plan.gar
        # placed + tail bytes account for every gradient byte.
        placed = (
            sum(replayed.gar.moe_ar_bytes)
            + sum(replayed.gar.dense_window_bytes)
            + replayed.gar.tail_bytes
        )
        assert placed == pytest.approx(sum(plan.grad_bytes))


class TestGarPlacement:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SolverError):
            GarPlacement(
                moe_window_bytes=(1.0, 2.0),
                dense_window_bytes=(1.0,),
                extra_bytes=(0.0, 0.0),
                tail_bytes=0.0,
                t_gar_ms=(0.0, 0.0),
            )

    def test_moe_ar_bytes_sums_window_and_extra(self):
        placement = GarPlacement(
            moe_window_bytes=(1.0, 2.0),
            dense_window_bytes=(0.0, 0.0),
            extra_bytes=(3.0, 4.0),
            tail_bytes=0.0,
            t_gar_ms=(0.0, 0.0),
        )
        assert placement.moe_ar_bytes == (4.0, 6.0)


PHASES = ("both", "forward", "backward")


@pytest.fixture
def engine_calls(monkeypatch):
    """Count event-engine runs made through :meth:`IterationPlan.simulate`."""
    import repro.planner.plan as plan_module

    calls = []
    engine = plan_module.simulate

    def counting(graph):
        calls.append(graph)
        return engine(graph)

    monkeypatch.setattr(plan_module, "simulate", counting)
    return calls


class TestMakespanMemo:
    @pytest.fixture(scope="class")
    def compiled(self, compiler, hetero_stack):
        return compiler.compile(hetero_stack, FSMoE())

    def fresh(self, compiled) -> IterationPlan:
        """An equal plan object whose memo is still empty."""
        return IterationPlan.from_json(compiled.to_json())

    @pytest.mark.parametrize("phase", PHASES)
    def test_memo_equals_fresh_simulation(self, compiled, phase):
        plan = self.fresh(compiled)
        copy = IterationPlan.from_json(plan.to_json())
        expected = plan.simulate(phase).makespan_ms
        for target in (plan, copy):
            first = target.makespan_ms(phase)
            assert first == expected
            assert target.makespan_ms(phase) == first

    def test_document_identity_unchanged_by_fill(self, compiled):
        plan = self.fresh(compiled)
        before = (
            plan.to_dict(), plan.to_json(), hash(plan), repr(plan),
        )
        for phase in PHASES:
            plan.makespan_ms(phase)
        after = (plan.to_dict(), plan.to_json(), hash(plan), repr(plan))
        assert after == before
        assert plan == self.fresh(compiled)

    def test_engine_runs_once_per_phase_per_object(
        self, compiled, engine_calls
    ):
        plan = self.fresh(compiled)
        for _ in range(3):
            for phase in PHASES:
                plan.makespan_ms(phase)
        assert len(engine_calls) == len(PHASES)
        # an equal but distinct object has its own memo.
        self.fresh(compiled).makespan_ms()
        assert len(engine_calls) == len(PHASES) + 1

    def test_invalid_phase_raises_every_call(self, compiled):
        plan = self.fresh(compiled)
        plan.makespan_ms()
        for _ in range(2):
            with pytest.raises(ScheduleError, match="unknown phase"):
                plan.makespan_ms("sideways")
        assert not plan._simulated("sideways")

    def test_concurrent_callers_agree(self, compiled):
        import threading

        plan = self.fresh(compiled)
        barrier = threading.Barrier(8)
        results = []

        def call():
            barrier.wait()
            results.append(plan.makespan_ms())

        threads = [threading.Thread(target=call) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 8
        assert set(results) == {compiled.simulate().makespan_ms}
