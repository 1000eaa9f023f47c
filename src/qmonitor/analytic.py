"""Closed-form outcome probabilities for the built-in models.

These are exact trigonometric expressions in (n, tau) and serve as
independent oracles for the density-matrix and Markov engines. The n = 0
convention is cos(tau)^0 = 1 even at cos(tau) = 0, matching the identity
kernel at zero cycles. closed_form_trace, the closed_form engine, reads the
CLOSED_FORMS entry of a built-in model name.
"""

from __future__ import annotations

import math

import numpy as np

from . import evolve


def _check_n(n: int) -> int:
    n = int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    return n


def magnetization_single_qubit(n: int, tau: float) -> float:
    """Population imbalance of the measured qubit after n cycles: cos(tau)^n."""
    n = _check_n(n)
    return math.cos(tau) ** n


def probs_single_qubit(n: int, tau: float) -> np.ndarray:
    """Outcome probabilities ((1 + cos^n tau)/2, (1 - cos^n tau)/2)."""
    m = magnetization_single_qubit(n, tau)
    return np.array([(1.0 + m) / 2.0, (1.0 - m) / 2.0])


def probs_singlet_triplet(n: int, tau: float) -> np.ndarray:
    """Outcome probabilities in the singlet-triplet basis after n cycles.

    The singlet component is identically zero: the initial state lies in the
    symmetric manifold and the dynamics never leaves it.
    """
    n = _check_n(n)
    c = math.cos(tau) ** n
    # (3 cos 2tau + 1)^n / 4^n, paired to avoid overflow/underflow
    q = ((3.0 * math.cos(2.0 * tau) + 1.0) / 4.0) ** n
    p0 = (3.0 * c + q + 2.0) / 6.0
    p1 = (1.0 - q) / 3.0
    p3 = (-3.0 * c + q + 2.0) / 6.0
    return np.array([p0, p1, 0.0, p3])


def probs_bell(n: int, tau: float) -> np.ndarray:
    """Outcome probabilities in the Bell basis after n cycles.

    Components 2 and 3 are pinned at 1/2 and 0 for every n; only the first
    two states are mixed by the dynamics.
    """
    n = _check_n(n)
    c = math.cos(2.0 * tau) ** n
    return np.array([(1.0 + c) / 4.0, (1.0 - c) / 4.0, 0.5, 0.0])


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
    values = np.empty((len(taus), n_max + 1, len(func(0, 0.0))))
    for block, tau in zip(values, taus.tolist()):
        block[:] = [func(n, tau) for n in range(n_max + 1)]
    return evolve.noisy_closed_form(values, gamma)
