"""The in-tree Step-2 DE against SciPy's ``differential_evolution``.

:func:`repro.core.de.differential_evolution` reproduces exactly the call
Step 2 used to make into SciPy: unit box, ``best1bin``, dither
``(0.5, 1)``, crossover 0.7, Latin-hypercube init, legacy
``RandomState(seed)``, ``updating="deferred"``, ``polish=False``,
``tol=1e-6``.  SciPy is the oracle here and nowhere else: every case
asserts a byte-identical ``x``.

Pinned on SciPy 1.17.1.  A SciPy release that changes the draw order or
the arithmetic of its DE fails these tests; that is a change in the
oracle, not in the planner, whose committed plans the in-tree DE keeps.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import differential_evolution as scipy_de

from repro.core import gradient_partition
from repro.core.de import TOL, differential_evolution
from repro.core.gradient_partition import plan_gradient_partition

from .test_gradient_partition import AR, _plans_identical, _stacks

#: The SciPy release the byte-identity was established on.
PINNED_SCIPY = "1.17.1"

_ORACLE_DRIFT = (
    f"in-tree DE differs from SciPy {scipy.__version__}'s "
    f"(pinned on {PINNED_SCIPY})"
)


def _scipy_run(objective, n, *, vectorized, maxiter, popsize, seed):
    """Step 2's former SciPy call, batched or one candidate per call."""

    def func(x):
        if vectorized:
            # SciPy hands a vectorized objective (n_params, candidates);
            # the copy keeps row sums in the in-tree call's order.
            return objective(np.ascontiguousarray(np.asarray(x).T))
        return float(objective(np.asarray(x)[None, :])[0])

    return scipy_de(
        func,
        bounds=[(0.0, 1.0)] * n,
        maxiter=maxiter,
        popsize=popsize,
        seed=seed,
        tol=TOL,
        polish=False,
        updating="deferred",
        vectorized=vectorized,
    )


def _bowl(n, seed):
    """A weighted quadratic with its minimum somewhere in the box."""
    rng = np.random.default_rng(seed)
    centre = rng.uniform(0.0, 1.0, n)
    weight = rng.uniform(0.1, 10.0, n)

    def objective(pop):
        return ((pop - centre) ** 2 * weight).sum(axis=1) + 1.0

    return objective


def _terraced(n, seed):
    """A staircase: many exact ties in acceptance and best-member choice."""
    rng = np.random.default_rng(seed)
    weight = rng.uniform(0.5, 2.0, n)

    def objective(pop):
        return np.floor(4.0 * (pop * weight).sum(axis=1)) + 3.0

    return objective


def _flat(n, seed):
    """Nearly constant: ``std(E) <= tol * |mean(E)|`` after a few steps."""
    rng = np.random.default_rng(seed)
    weight = rng.uniform(0.5, 2.0, n)

    def objective(pop):
        return 1e3 + 1e-6 * (pop * weight).sum(axis=1)

    return objective


def _level(n, seed):
    """Identically zero: ``std(E) == tol * |mean(E)| == 0`` stops at once."""

    def objective(pop):
        return np.zeros(len(pop))

    return objective


SHAPES = {
    "bowl": _bowl,
    "terraced": _terraced,
    "flat": _flat,
    "level": _level,
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 8),
    popsize=st.integers(3, 15),
    maxiter=st.integers(1, 40),
    shape=st.sampled_from(sorted(SHAPES)),
    vectorized=st.booleans(),
)
def test_matches_scipy_byte_for_byte(
    seed, n, popsize, maxiter, shape, vectorized
):
    objective = SHAPES[shape](n, seed)
    calls = []

    def counted(pop):
        calls.append(pop.shape)
        if vectorized:
            return objective(pop)
        # The scalar call shape: one candidate per objective evaluation.
        return np.array([float(objective(row[None, :])[0]) for row in pop])

    ours = differential_evolution(
        counted, n, maxiter=maxiter, popsize=popsize, seed=seed
    )
    theirs = _scipy_run(
        objective, n, vectorized=vectorized, maxiter=maxiter,
        popsize=popsize, seed=seed,
    )
    assert ours.tobytes() == theirs.x.tobytes(), _ORACLE_DRIFT
    # One pass for the initial population, one per generation run.
    assert len(calls) == theirs.nit + 1
    size = max(5, popsize * n)
    assert all(shape == (size, n) for shape in calls)


@pytest.mark.parametrize("shape", ["flat", "level"])
@pytest.mark.parametrize("vectorized", [True, False], ids=["batch", "scalar"])
def test_tolerance_stops_early_like_scipy(vectorized, shape):
    n, popsize, maxiter = 3, 6, 40
    objective = SHAPES[shape](n, seed=11)
    calls = []

    def counted(pop):
        calls.append(len(pop))
        return objective(pop)

    ours = differential_evolution(
        counted, n, maxiter=maxiter, popsize=popsize, seed=5
    )
    theirs = _scipy_run(
        objective, n, vectorized=vectorized, maxiter=maxiter,
        popsize=popsize, seed=5,
    )
    assert theirs.nit < maxiter  # the tol exit fired, not the budget
    assert len(calls) == theirs.nit + 1
    assert ours.tobytes() == theirs.x.tobytes(), _ORACLE_DRIFT


def _scipy_step2(impl):
    """Step 2's former search: SciPy's DE, as ``plan_gradient_partition``
    called it, behind the in-tree DE's signature."""

    def search(objective, n, *, maxiter, popsize, seed):
        return _scipy_run(
            objective, n, vectorized=(impl == "batch"), maxiter=maxiter,
            popsize=popsize, seed=seed,
        ).x

    return search


@settings(max_examples=20, deadline=None)
@given(stack=_stacks(), seed=st.integers(0, 1000), impl=st.sampled_from(
    ["batch", "scalar"]
))
def test_step2_plans_match_the_scipy_search(stack, seed, impl):
    layers, _ = stack
    kwargs = dict(seed=seed, de_maxiter=12, step2_impl=impl)
    ours = plan_gradient_partition(list(layers), AR, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            gradient_partition, "differential_evolution", _scipy_step2(impl)
        )
        theirs = plan_gradient_partition(list(layers), AR, **kwargs)
    _plans_identical(ours, theirs)
