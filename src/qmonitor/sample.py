"""Seeded Monte Carlo sampling of per-cycle outcome counts.

The shots of one grid point are independent copies of one Markov chain, so
the vector of per-cycle outcome counts is itself a Markov chain (Kemeny &
Snell, Finite Markov Chains, 1960). Given the counts c at cycle n - 1, the
counts at cycle n are the sum over k of Multinomial(c[k], K[k]), where
K = (1 - gamma) L + gamma J / dim is the one-cycle kernel with its
depolarizing coin: with probability gamma per cycle the outcome is replaced
by a uniformly random basis index, which reproduces the depolarizing channel
at the level of outcome statistics (the depolarized branch is measured
immediately in the same basis). run_shots draws the counts directly. This
has the same joint law as walking every shot, at a cost independent of
n_shots; single shots are never materialised.

Randomness comes from numpy's counter-based Philox generator. A run at one
grid point is keyed by (seed, stream), where stream is the tau index: its
generator is Generator(Philox(key = seed * 2^64 + stream)), so different
grid points of one run and different seeds never share a stream. Within
that generator the draw order is fixed:

- row 0: Multinomial(n_shots, p0), an independent measurement of the bare
  initial state;
- cycle 1: Multinomial(n_shots, (1 - gamma) p1 + gamma / dim);
- each later cycle: one multinomial(counts[n - 1], K) call, summed over the
  previous outcome.

p0 is the Born law of the initial state; p1 and L come from one
markov.first_cycle call. Reruns with one seed are byte-identical within one
numpy version only, since NEP 19 does not promise stable
Generator.multinomial streams across versions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evolve, markov
from .model import Model
from .traces import ProbabilityTrace

_WORD = 1 << 64


@dataclass(frozen=True)
class ShotConfig:
    """Sampling run parameters."""

    n_shots: int
    seed: int
    n_max: int
    tau: float
    gamma: float = 0.0
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < _WORD:
            raise ValueError("seed must lie in [0, 2**64)")
        if not 0 <= self.stream < _WORD:
            raise ValueError("stream must lie in [0, 2**64)")
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")


@dataclass(frozen=True)
class EmpiricalTrace:
    """Shot-aggregated outcome statistics.

    counts[n, k] is the number of shots that produced outcome k at cycle n;
    row 0 tallies an independent measurement of the bare initial state.
    probabilities = counts / n_shots and stderr is the per-cell binomial
    standard error sqrt(p (1-p) / n_shots).
    """

    counts: np.ndarray
    n_shots: int
    probabilities: np.ndarray
    stderr: np.ndarray

    def trace(self) -> ProbabilityTrace:
        return ProbabilityTrace(values=self.probabilities)


def _philox(cfg: ShotConfig) -> np.random.Philox:
    """The bit generator of key (seed, stream), at counter 0."""
    return np.random.Philox(key=int(cfg.seed) * _WORD + int(cfg.stream))


def _pvals(p: np.ndarray) -> np.ndarray:
    """Probability rows clipped to [0, 1] and renormalised to sum to 1.

    Rounding can push a Born probability or kernel entry a few ulp past 1
    (1.0000000000000009 on a dimension-16 model), and Generator.multinomial
    rejects any entry above 1.
    """
    p = np.clip(p, 0.0, 1.0)
    return p / p.sum(axis=-1, keepdims=True)


def run_shots(m: Model, cfg: ShotConfig) -> EmpiricalTrace:
    """Per-cycle outcome counts of cfg.n_shots independent trajectories.

    Deterministic given (cfg.seed, cfg.stream) and the numpy version: the
    counts are drawn from the count chain in the order the module docstring
    fixes.
    """
    gamma, dim = cfg.gamma, m.dim
    p0 = evolve.born_probabilities(m.initial_state, m.basis)
    p1, l = markov.first_cycle(m, cfg.tau)
    rng = np.random.Generator(_philox(cfg))

    counts = np.zeros((cfg.n_max + 1, dim), dtype=np.int64)
    counts[0] = rng.multinomial(cfg.n_shots, _pvals(p0))
    if cfg.n_max > 0:
        counts[1] = rng.multinomial(cfg.n_shots, _pvals((1.0 - gamma) * p1 + gamma / dim))
    kernel = _pvals((1.0 - gamma) * l.l + gamma / dim)
    for n in range(2, cfg.n_max + 1):
        counts[n] = rng.multinomial(counts[n - 1], kernel).sum(axis=0)

    probs = counts / float(cfg.n_shots)
    stderr = np.sqrt(probs * (1.0 - probs) / cfg.n_shots)
    return EmpiricalTrace(counts=counts, n_shots=cfg.n_shots, probabilities=probs, stderr=stderr)
