"""Seeded Monte Carlo sampling of per-cycle outcome counts.

The shots of one grid point are independent copies of one Markov chain, so
the vector of per-cycle outcome counts is itself a Markov chain (Kemeny &
Snell, Finite Markov Chains, 1960). Given the counts c at cycle n - 1, the
counts at cycle n are the sum over k of Multinomial(c[k], K[k]), where
K = (1 - gamma) L + gamma J / dim is the one-cycle kernel with its
depolarizing coin: with probability gamma per cycle the outcome is replaced
by a uniformly random basis index, which reproduces the depolarizing channel
at the level of outcome statistics (the depolarized branch is measured
immediately in the same basis). run_shots draws the counts directly, as one
(T, n_max+1, dim) int64 stack, and returns the trace counts / shots. This
has the same joint law as walking every shot, at a cost independent of the
number of shots; single shots are never materialised.

Randomness comes from numpy's counter-based Philox generator. Grid point i
of a run is keyed by (seed, i): its generator is
Generator(Philox(key = seed * 2^64 + i)), so different grid points of one
run and different seeds never share a stream. Within that generator the draw
order is fixed:

- row 0: Multinomial(shots, p0), an independent measurement of the bare
  initial state;
- cycle 1: Multinomial(shots, (1 - gamma) p1 + gamma / dim);
- each later cycle: one multinomial(counts[n - 1], K) call, summed over the
  previous outcome.

p0 is Model.initial_distribution, the Born law of the initial state; the
stacks of p1 and L come from one markov.first_cycle call over the whole
grid. Reruns with one seed are byte-identical within one numpy version only,
since NEP 19 does not promise stable Generator.multinomial streams across
versions.
"""

from __future__ import annotations

import numpy as np

from . import markov
from .model import Model
from .traces import check_trace

_WORD = 1 << 64


def _philox(seed: int, stream: int) -> np.random.Philox:
    """The bit generator of key (seed, stream), at counter 0."""
    return np.random.Philox(key=int(seed) * _WORD + int(stream))


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
    grid and the numpy version: grid point i draws from the stream (seed, i)
    in the order the module docstring fixes.
    """
    if not 0 <= seed < _WORD:
        raise ValueError("seed must lie in [0, 2**64)")
    if shots < 1:
        raise ValueError("n_shots must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    dim = m.dim
    p0 = _pvals(m.initial_distribution)
    p1, l = markov.first_cycle(m, taus)
    first = _pvals((1.0 - gamma) * p1 + gamma / dim)
    kernels = _pvals((1.0 - gamma) * l + gamma / dim)

    counts = np.zeros((len(kernels), n_max + 1, dim), dtype=np.int64)
    for i, (c, p1_i, kernel) in enumerate(zip(counts, first, kernels)):
        rng = np.random.Generator(_philox(seed, i))
        c[0] = rng.multinomial(shots, p0)
        if n_max > 0:
            c[1] = rng.multinomial(shots, p1_i)
        for n in range(2, n_max + 1):
            c[n] = rng.multinomial(c[n - 1], kernel).sum(axis=0)
    return check_trace(counts / float(shots))
