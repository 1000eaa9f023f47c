"""Seeded Monte Carlo sampling of per-cycle outcome counts.

The shots of one grid point are independent copies of one Markov chain, so
the vector of per-cycle outcome counts is itself a Markov chain (Kemeny &
Snell, Finite Markov Chains, 1960). Given the counts c at cycle n - 1, the
counts at cycle n are the sum over k of Multinomial(c[k], K[k]), where
K = (1 - gamma) L + gamma J / dim is the one-cycle kernel with its
depolarizing coin: with probability gamma per cycle the outcome is replaced
by a uniformly random basis index, which reproduces the depolarizing channel
at the level of outcome statistics (the depolarized branch is measured
immediately in the same basis). run_shots draws the counts directly into
one (T, n_max+1, dim) float64 stack, exact below 2**53, and divides it by
shots in place, so it holds one trace. This has the same joint law as
walking every shot, at a cost independent of the number of shots; single
shots are never materialised.

Randomness comes from numpy's counter-based Philox generator: a run with
seed s draws from the one stream Generator(Philox(key = s)), so different
seeds never share a stream. Each draw covers the whole grid, in this order:

- row 0: multinomial(shots, p0, size=T), an independent measurement of the
  bare initial state at each grid point;
- cycle 1: multinomial(shots, (1 - gamma) p1 + gamma / dim) over the
  (T, dim) stack;
- each later cycle: multinomial(counts[:, n - 1], K) over the (T, dim, dim)
  stack, summed over the previous outcome.

So a grid point's counts depend on the grid around it, though not their
law, and different grid points stay independent. p0 is
Model.initial_distribution; the stacks of p1 and L come from one
evolve.first_cycle call. Reruns with one seed and one grid are
byte-identical within one numpy version only, since NEP 19 does not promise
stable Generator.multinomial streams across versions.
"""

from __future__ import annotations

import numpy as np

from . import evolve
from .model import Model
from .traces import check_trace


def _pvals(p: np.ndarray) -> np.ndarray:
    """Probability rows clipped to [0, 1] and renormalised to sum to 1.

    Rounding can push a Born probability or kernel entry a few ulp past 1
    (1.0000000000000009 on a dimension-16 model), and Generator.multinomial
    rejects any entry above 1.
    """
    p = np.clip(p, 0.0, 1.0)
    return p / p.sum(axis=-1, keepdims=True)


def run_shots(
    m: Model, taus, n_max: int, gamma: float = 0.0, *, shots: int, seed: int
) -> np.ndarray:
    """The checked (T, n_max+1, dim) outcome frequencies of shots trajectories per grid point.

    counts[i, n, k] / shots, where counts[i, n, k] is the number of shots at
    tau_i that gave outcome k at cycle n; row 0 tallies an independent
    measurement of the bare initial state. Deterministic given the seed, the
    grid and the numpy version: one stream per run, drawn in the order the
    module docstring fixes.
    """
    taus, gamma = evolve.check_run(taus, n_max, gamma)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    dim = m.dim
    p1, l = evolve.first_cycle(m, taus)
    first = _pvals((1.0 - gamma) * p1 + gamma / dim)
    kernels = _pvals((1.0 - gamma) * l + gamma / dim)

    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = np.empty((len(taus), n_max + 1, dim))
    counts[:, 0] = rng.multinomial(shots, _pvals(m.initial_distribution), size=len(taus))
    if n_max > 0:  # each draw takes the int64 counts of the cycle before
        counts[:, 1] = cycle = rng.multinomial(shots, first)
    for n in range(2, n_max + 1):
        counts[:, n] = cycle = rng.multinomial(cycle, kernels).sum(axis=1)
    counts /= float(shots)
    return check_trace(counts)
