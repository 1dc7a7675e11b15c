"""Tests for the batched Algorithm-1 solver (core/fastsolve.py)."""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.constraints import ContextArrays, PipelineContext
from repro.core.cases import analytic_time, analytic_time_batch, classify, classify_batch
from repro.core.context import SolverContext
from repro.core.fastsolve import solve_degree, solve_degrees_batch
from repro.core.perf_model import LinearPerfModel
from repro.core.pipeline_degree import (
    find_optimal_pipeline_degree,
    oracle_integer_degree,
    solve_degrees,
)
from repro.errors import SolverError

from .helpers import pipeline_contexts


def random_contexts(n: int, seed: int = 0) -> list[PipelineContext]:
    """Physically plausible random contexts spanning all four cases."""
    rng = np.random.default_rng(seed)

    def model(lo: float = 1e-8, hi: float = 1e-6) -> LinearPerfModel:
        return LinearPerfModel(
            alpha=float(rng.uniform(0.01, 0.5)),
            beta=float(rng.uniform(lo, hi)),
        )

    out = []
    for _ in range(n):
        out.append(
            PipelineContext(
                a2a=model(),
                n_a2a=float(rng.uniform(1e5, 5e8)),
                ag=model(),
                n_ag=float(rng.uniform(1e5, 5e8)),
                rs=model(),
                n_rs=float(rng.uniform(1e5, 5e8)),
                exp=model(1e-11, 1e-9),
                n_exp=float(rng.uniform(1e8, 1e12)),
                t_gar=float(rng.uniform(0.0, 30.0)),
            )
        )
    return out


def degenerate_variants(base: PipelineContext) -> list[PipelineContext]:
    """Zero-comm / zero-compute / zero-everything edge contexts."""
    return [
        replace(base, n_a2a=0.0),
        replace(base, n_ag=0.0, n_rs=0.0),
        replace(base, n_exp=0.0),
        replace(base, n_a2a=0.0, n_ag=0.0, n_rs=0.0),
        replace(base, n_a2a=0.0, n_ag=0.0, n_rs=0.0, n_exp=0.0),
        replace(base, t_gar=0.0),
        replace(base, t_gar=1e6),
    ]


class TestMatchesOracle:
    def test_batch_matches_oracle_on_200_random_contexts(self):
        """The acceptance property: exact agreement with the oracle.

        250 random contexts plus degenerate variants (zero comm, zero
        compute, everything zero) at several r_max values, including
        r_max=1.
        """
        ctxs = random_contexts(250, seed=7)
        ctxs += degenerate_variants(ctxs[0])
        ctxs += degenerate_variants(ctxs[1])
        assert len(ctxs) > 200
        for r_max in (16, 5, 1):
            solutions = solve_degrees_batch(ctxs, r_max)
            for ctx, solution in zip(ctxs, solutions):
                oracle = oracle_integer_degree(ctx, r_max)
                assert solution.degree == oracle.degree
                assert abs(solution.time_ms - oracle.time_ms) <= 1e-9
                assert solution.case is oracle.case

    @given(ctx=pipeline_contexts(with_gar=True))
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_oracle_hypothesis(self, ctx):
        solution = solve_degree(ctx, 16)
        oracle = oracle_integer_degree(ctx, 16)
        assert solution.degree == oracle.degree
        assert abs(solution.time_ms - oracle.time_ms) <= 1e-9

    def test_solution_time_is_exact_analytic_time(self):
        for ctx in random_contexts(20, seed=3):
            solution = solve_degree(ctx, 16)
            assert solution.time_ms == pytest.approx(
                analytic_time(ctx, float(solution.degree))
            )
            assert 1 <= solution.degree <= 16

    def test_per_case_times_cover_all_cases(self):
        ctx = random_contexts(1, seed=5)[0]
        solution = solve_degree(ctx, 16)
        assert len(solution.per_case_time_ms) == 4
        assert min(solution.per_case_time_ms.values()) < float("inf")
        # The winning case's best time is the solution time.
        assert solution.per_case_time_ms[solution.case] == pytest.approx(
            solution.time_ms
        )


class TestVectorizedPrimitives:
    def test_classify_batch_matches_scalar(self):
        ctxs = random_contexts(40, seed=11)
        arrays = ContextArrays.pack(ctxs)
        degrees = np.arange(1, 17, dtype=float).reshape(1, -1)
        cases = classify_batch(arrays, degrees)
        for i, ctx in enumerate(ctxs):
            for j, r in enumerate(range(1, 17)):
                assert cases[i, j] == classify(ctx, float(r)).value

    def test_analytic_time_batch_bitwise_matches_scalar(self):
        ctxs = random_contexts(40, seed=13) + degenerate_variants(
            random_contexts(1, seed=17)[0]
        )
        arrays = ContextArrays.pack(ctxs)
        degrees = np.arange(1, 17, dtype=float).reshape(1, -1)
        times = analytic_time_batch(arrays, degrees)
        for i, ctx in enumerate(ctxs):
            for j, r in enumerate(range(1, 17)):
                assert times[i, j] == analytic_time(ctx, float(r))


class TestInterface:
    def test_rejects_bad_rmax(self):
        ctx = random_contexts(1)[0]
        with pytest.raises(SolverError):
            solve_degrees_batch([ctx], 0)

    def test_empty_batch(self):
        assert solve_degrees_batch([], 16) == ()

    def test_duplicates_resolve_to_one_solve(self):
        ctx = random_contexts(1, seed=23)[0]
        context = SolverContext()
        solutions = solve_degrees_batch([ctx] * 10, 16, context)
        assert len(solutions) == 10
        assert len({id(s) for s in solutions}) == 1
        assert context.stats.solves == 1

    def test_memo_hits_across_calls(self):
        ctx = random_contexts(1, seed=29)[0]
        context = SolverContext()
        solve_degree(ctx, 16, context)
        before = context.stats
        solve_degree(ctx, 16, context)
        after = context.stats
        assert after.cache_hits == before.cache_hits + 1
        assert after.solves == before.solves

    def test_stats_track_batch_sizes(self):
        ctxs = random_contexts(12, seed=31)
        context = SolverContext()
        solve_degrees_batch(ctxs, 16, context)
        assert context.stats.batch_calls == 1
        assert context.stats.max_batch_size == 12

    def test_contexts_share_nothing(self):
        ctx = random_contexts(1, seed=43)[0]
        first, second = SolverContext(), SolverContext()
        solve_degree(ctx, 16, first)
        solve_degree(ctx, 16, second)
        # the second context solved it again: no memo hit leaked across
        assert first.stats.solves == second.stats.solves == 1
        assert first.stats.cache_hits == second.stats.cache_hits == 0

    def test_shared_context_counts_exactly_under_threads(self):
        """Threads sharing one context lose no counter update and see
        one memoized value per key."""
        ctxs = random_contexts(6, seed=47)
        context = SolverContext()
        seen: list[object] = []
        rounds, workers = 2000, 8

        def work() -> None:
            for i in range(rounds):
                if i % 100 == 0:
                    solve_degrees_batch(ctxs, 16, context)
                    seen.append(context.memo("t", "key", object, 4))
                context.record_step2(3)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        stats = context.stats
        assert stats.solves == len(ctxs)
        assert stats.step2_objective_calls == rounds * workers
        assert stats.step2_candidates == 3 * rounds * workers
        assert len({id(value) for value in seen}) == 1


class TestSolverDispatch:
    def test_default_solver_is_batch(self):
        assert SolverContext().degree_solver == "batch"

    def test_find_optimal_accepts_explicit_solver(self):
        ctx = random_contexts(1, seed=37)[0]
        batch = find_optimal_pipeline_degree(
            ctx, solver_context=SolverContext("batch")
        )
        slsqp = find_optimal_pipeline_degree(
            ctx, solver_context=SolverContext("slsqp")
        )
        # SLSQP is near-optimal; batch is exact.
        assert batch.time_ms <= slsqp.time_ms + 1e-9

    def test_unknown_solver_rejected(self):
        with pytest.raises(SolverError):
            SolverContext("bogus")

    def test_context_solver_drives_solve_degrees(self):
        context = SolverContext("slsqp")
        ctx = random_contexts(1, seed=41)[0]
        via_context = solve_degrees((ctx,), 16, solver_context=context)[0]
        # the SLSQP path memoizes without touching the batch counters
        assert context.stats.solves == 0
        assert via_context is solve_degrees(
            (ctx,), 16, solver_context=context
        )[0]
        fresh = find_optimal_pipeline_degree(
            ctx, solver_context=SolverContext("slsqp")
        )
        assert via_context == fresh
