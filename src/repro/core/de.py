"""Differential evolution on the unit box: Step 2's search (paper §5.3).

The paper solves the Step-2 gradient partition (Eq. 5) by differential
evolution, once before training.  This is that search, reduced to the
one configuration the partitioner uses: parameters in ``[0, 1]``,
``best1bin`` mutation with a dither factor drawn from ``U(0.5, 1)`` once
per generation, binomial crossover with probability 0.7, a
Latin-hypercube initial population of ``max(5, popsize * n)`` members,
one deferred (whole-generation) update per iteration, no polishing, and
a stop once the population's energies agree (``std(E) <= TOL *
|mean(E)|``).

It draws the same random numbers in the same order as SciPy's
``differential_evolution(..., seed=seed, tol=1e-6, polish=False,
updating="deferred")`` on that box, from a legacy
``np.random.RandomState(seed)``, and applies the same floating-point
operations, so its answer is byte-identical to SciPy's.  The tests pin
that against SciPy itself (``tests/test_de.py``); SciPy is not needed at
run time.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: Bounds of the per-generation dither factor (mutation constant).
DITHER = (0.5, 1.0)

#: Binomial crossover probability.
RECOMBINATION = 0.7

#: Smallest population, whatever ``popsize * n`` is.
MIN_POPULATION = 5

#: Relative convergence tolerance on the population energies.
TOL = 1e-6


def _scaled(population: np.ndarray) -> np.ndarray:
    # SciPy's unit-box parameter scaling, ``0.5 + (p - 0.5) * |1 - 0|``:
    # not always the identity in the last bit, so it is kept as written.
    return 0.5 + (population - 0.5)


def _promote_best(population: np.ndarray, energies: np.ndarray) -> None:
    """Swap the lowest-energy member (first on ties) into row 0."""
    best = int(np.argmin(energies))
    energies[[0, best]] = energies[[best, 0]]
    population[[0, best], :] = population[[best, 0], :]


def differential_evolution(
    objective: Callable[[np.ndarray], np.ndarray],
    n_params: int,
    *,
    maxiter: int,
    popsize: int,
    seed: int,
) -> np.ndarray:
    """Minimize ``objective`` over the unit box ``[0, 1] ** n_params``.

    Args:
        objective: maps a ``(candidates, n_params)`` population to its
            ``(candidates,)`` finite energies.  It is called once for the
            initial population and once per generation.
        n_params: number of parameters (at least 1).
        maxiter: maximum number of generations.
        popsize: population size per parameter.
        seed: seed of the legacy ``RandomState`` every draw comes from.

    Returns:
        The best member found, shape ``(n_params,)``.
    """
    rng = np.random.RandomState(seed)
    size = max(MIN_POPULATION, popsize * n_params)

    # Latin hypercube: one uniform draw per segment of each parameter's
    # range, then an independent shuffle of the segments per parameter.
    samples = (1.0 / size) * rng.uniform(size=(size, n_params)) + np.linspace(
        0.0, 1.0, size, endpoint=False
    )[:, np.newaxis]
    population = np.zeros_like(samples)
    for j in range(n_params):
        population[:, j] = samples[rng.permutation(size), j]
    energies = np.array(objective(_scaled(population)), dtype=float)
    _promote_best(population, energies)

    members = np.arange(size)
    # Shuffled in place for every member's donor draw, so its order
    # carries over from one draw to the next.
    shuffled = np.arange(size)
    donors = np.empty((size, 2), dtype=np.intp)
    for _ in range(maxiter):
        scale = rng.uniform(*DITHER)
        for member in range(size):
            rng.shuffle(shuffled)
            head = shuffled[:3]
            donors[member] = head[head != member][:2]
        mutant = population[0] + scale * (
            population[donors[:, 0]] - population[donors[:, 1]]
        )
        fill = rng.randint(n_params, size=size, dtype=np.int64)
        crossover = rng.uniform(size=(size, n_params)) < RECOMBINATION
        crossover[members, fill] = True
        trial = np.where(crossover, mutant, population)
        outside = (trial > 1) | (trial < 0)
        if count := np.count_nonzero(outside):
            trial[outside] = rng.uniform(size=count)

        trial_energies = np.array(objective(_scaled(trial)), dtype=float)
        accept = trial_energies <= energies
        population = np.where(accept[:, np.newaxis], trial, population)
        energies = np.where(accept, trial_energies, energies)
        _promote_best(population, energies)
        if np.std(energies) <= TOL * np.abs(np.mean(energies)):
            break
    return _scaled(population[0])
