"""Closed-form outcome probabilities for the built-in models.

These are exact trigonometric expressions in (n, tau) and serve as
independent oracles for the density-matrix and Markov engines. The n = 0
convention is cos(tau)^0 = 1 even at cos(tau) = 0, matching the identity
kernel at zero cycles. Each takes a cycle count n or a sequence of them
and a tau or a 1-D grid of them, and returns the probabilities of every
(tau, n) pair on the last axis: shape (dim,) for one pair, (T, R, dim) for
a grid and R cycle counts. closed_form_trace, the closed_form engine, calls
the CLOSED_FORMS entry of a built-in model name once for the whole grid.
"""

from __future__ import annotations

import math

import numpy as np

from . import evolve


def _cos(tau):
    """math.cos of a tau, or of each tau of a 1-D grid, as an array of the grid's shape."""
    return np.array([math.cos(t) for t in np.ravel(tau).tolist()]).reshape(np.shape(tau))[()]


def _power(base, n):
    """base ** n over the bases (an array) and n (a cycle count or a sequence of them).

    The result has shape base.shape + shape of n. Each power is Python's
    float power, libm's pow: np.power, which numpy may run through its own
    SIMD pow, differs from it in the last bit of some cells on CPUs with
    AVX-512, and the closed-form CSVs keep their bytes.
    """
    ns = list(map(int, np.ravel(n)))  # Python ints: a numpy int exponent would call np.power
    if min(ns, default=0) < 0:
        raise ValueError("n must be >= 0")
    powers = [[b ** k for k in ns] for b in np.ravel(base).tolist()]
    return np.array(powers, dtype=float).reshape(np.shape(base) + np.shape(n))[()]


def _columns(*probs) -> np.ndarray:
    """The outcome probabilities, broadcast together, as the last axis."""
    return np.stack(np.broadcast_arrays(*probs), axis=-1)


def magnetization_single_qubit(n, tau):
    """Population imbalance of the measured qubit after n cycles: cos(tau)^n."""
    return _power(_cos(tau), n)


def probs_single_qubit(n, tau) -> np.ndarray:
    """Outcome probabilities ((1 + cos^n tau)/2, (1 - cos^n tau)/2)."""
    m = magnetization_single_qubit(n, tau)
    return _columns((1.0 + m) / 2.0, (1.0 - m) / 2.0)


def probs_singlet_triplet(n, tau) -> np.ndarray:
    """Outcome probabilities in the singlet-triplet basis after n cycles.

    The singlet component is identically zero: the initial state lies in the
    symmetric manifold and the dynamics never leaves it.
    """
    c = _power(_cos(tau), n)
    # (3 cos 2tau + 1)^n / 4^n, paired to avoid overflow/underflow
    q = _power((3.0 * _cos(2.0 * np.asarray(tau, dtype=float)) + 1.0) / 4.0, n)
    p0 = (3.0 * c + q + 2.0) / 6.0
    p1 = (1.0 - q) / 3.0
    p3 = (-3.0 * c + q + 2.0) / 6.0
    return _columns(p0, p1, 0.0, p3)


def probs_bell(n, tau) -> np.ndarray:
    """Outcome probabilities in the Bell basis after n cycles.

    Components 2 and 3 are pinned at 1/2 and 0 for every n; only the first
    two states are mixed by the dynamics.
    """
    c = _power(_cos(2.0 * np.asarray(tau, dtype=float)), n)
    return _columns((1.0 + c) / 4.0, (1.0 - c) / 4.0, 0.5, 0.0)


# built-in model name -> its outcome probabilities after n cycles at tau
CLOSED_FORMS = {
    "single_qubit": probs_single_qubit,
    "two_qubit_singlet_triplet": probs_singlet_triplet,
    "two_qubit_bell": probs_bell,
}


def closed_form_trace(model: str, taus, n_max: int, gamma: float = 0.0) -> np.ndarray:
    """The checked (T, n_max+1, dim) closed-form trace of a built-in model over a tau grid.

    A nonzero gamma is folded in by ``evolve.noisy_closed_form``.
    """
    try:
        func = CLOSED_FORMS[model]
    except KeyError:
        raise ValueError(f"no closed form for model {model!r}") from None
    taus, gamma = evolve.check_run(taus, n_max, gamma)
    return evolve.noisy_closed_form(func(range(n_max + 1), taus), gamma)
