"""The classical chain of the measurement protocol, and its long-time analysis.

Between consecutive measurements the outcome statistics follow a classical
Markov chain with kernel L[k, k'] = |<phi_k'| U(tau) |phi_k>|^2 = P(k -> k').
Distributions are row vectors and advance as p L. The kernel of a unitary is
doubly stochastic. It is symmetric when V^dag H V is real and in general not
when it is complex; everything here accepts both. The chain itself, p1, p1 L,
..., is ``evolve.propagate``, which ``evolve.run_exact`` runs for both the
exact and the markov engine; this module keeps the long-time analysis.

The analysis takes the (T, dim, dim) kernel stack of a whole tau grid and
reads the long-time behaviour from each kernel's support, the entries above
SUPPORT_TOL. A doubly stochastic kernel has no transient states, so the
connected components of its support are its closed classes, and each class
keeps the mass it starts with. A class of period 1 relaxes to uniform on
itself: one class gives infinite-temperature mixing, several give partial
thermalization with a separate weight in each. A class of period p > 1
cycles through p subsets forever, so the distribution never converges.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import evolve, linalg
# propagate lives in evolve; this name stays so that qmbench/tracing.py, which wraps
# every (module, name) of its ENTRY_POINTS, still finds markov.propagate.
from .evolve import STOCHASTIC_TOL, propagate
from .model import Model

# Kernel entries of at most this size count as absent from the support; they are
# probabilities, so the value is absolute. Near a resonance tau* the vanishing
# entries grow as (tau - tau*)^2, so the resonant classes hold over a window of
# about sqrt(SUPPORT_TOL) around tau*.
SUPPORT_TOL = 1e-9

KIND_FROZEN = "frozen"
KIND_OSCILLATORY = "oscillatory"
KIND_INFINITE_TEMPERATURE = "infinite_temperature"
KIND_PARTIAL = "partial"


class RegimeReport(NamedTuple):
    """Closed classes of the kernel at one tau, their periods, and the regime they give."""

    kind: str
    classes: tuple[tuple[int, ...], ...]
    periods: tuple[int, ...]
    details: str


def build_transition_matrix(m: Model, taus) -> np.ndarray:
    """The (T, dim, dim) kernels L(tau) of a tau grid, from ``evolve.first_cycle``."""
    return evolve.first_cycle(m, taus)[1]


def spectrum(l: np.ndarray) -> np.ndarray:
    """(T, dim) eigenvalues of a kernel stack, by descending real part, then imaginary part.

    Real, from np.linalg.eigvalsh, when every kernel is symmetric within
    STOCHASTIC_TOL; complex, from np.linalg.eigvals, otherwise.
    """
    l = np.asarray(l, dtype=float)
    if np.max(np.abs(l - np.swapaxes(l, -1, -2))) <= STOCHASTIC_TOL:
        return np.linalg.eigvalsh(l)[..., ::-1]
    lam = np.linalg.eigvals(l)
    order = np.lexsort((-lam.imag, -lam.real), axis=-1)
    return np.take_along_axis(lam, order, axis=-1)


def _report(classes: tuple[tuple[int, ...], ...], periods: tuple[int, ...]) -> RegimeReport:
    if all(len(c) == 1 for c in classes):
        kind, details = KIND_FROZEN, "every class is a single state; every outcome is frozen"
    elif max(periods) > 1:
        kind = KIND_OSCILLATORY
        details = f"a class has period {max(periods)}; the outcome distribution cycles with n"
    elif len(classes) == 1:
        kind = KIND_INFINITE_TEMPERATURE
        details = "one aperiodic class; distribution relaxes to uniform"
    else:
        kind = KIND_PARTIAL
        details = f"{len(classes)} aperiodic classes; class weights are conserved"
    return RegimeReport(kind=kind, classes=classes, periods=periods, details=details)


def classify(l: np.ndarray) -> list[RegimeReport]:
    """Classes, periods and regime of every kernel in a (T, dim, dim) stack.

    The classes are the connected components of the support L > SUPPORT_TOL
    made symmetric (``linalg.components``); for a doubly stochastic kernel
    they are its closed classes. A class's period is the gcd of the lengths
    n <= dim of the directed walks that return to one of its states: every
    simple cycle is at most dim long, so these lengths suffice. One boolean
    walk over the stack gives them all. frozen: every class is a single
    state. oscillatory: some class has period > 1. infinite_temperature: one
    aperiodic class. partial: several aperiodic classes.
    """
    l = np.asarray(l, dtype=float)
    if l.ndim != 3 or l.shape[1] != l.shape[2]:
        raise ValueError(f"expected a (T, dim, dim) kernel stack, got shape {l.shape}")
    evolve._check_doubly_stochastic(l)
    support = l > SUPPORT_TOL
    walk = support
    returns = [np.diagonal(walk, axis1=1, axis2=2)]  # returns[n - 1][t, i]: i -> i in n steps
    for _ in range(l.shape[-1] - 1):
        walk = walk @ support
        returns.append(np.diagonal(walk, axis1=1, axis2=2))
    lengths = np.arange(1, l.shape[-1] + 1)
    state_periods = np.gcd.reduce(np.where(np.stack(returns, axis=-1), lengths, 0), axis=-1)
    return [
        _report(classes, tuple(math.gcd(*(periods[i] for i in c)) for c in classes))
        for classes, periods in zip(linalg.components(support), state_periods.tolist())
    ]


def class_masses(classes: tuple[tuple[int, ...], ...], p: np.ndarray) -> list[float]:
    """The mass that distribution p puts on each class."""
    return [float(np.sum(p[list(c)])) for c in classes]


def stationary_limit(reports: list[RegimeReport], p0) -> list[np.ndarray | None]:
    """Large-n limit of p0 L^n for each report: uniform on each class, with p0's mass on it.

    None where the regime is oscillatory: a class of period > 1 never settles.
    """
    p = np.asarray(p0, dtype=float).reshape(-1)
    limits: list[np.ndarray | None] = []
    for report in reports:
        if sum(len(c) for c in report.classes) != p.shape[0]:
            raise ValueError("p0 has wrong length")
        if report.kind == KIND_OSCILLATORY:
            limits.append(None)
            continue
        limit = np.empty_like(p)
        for c, mass in zip(report.classes, class_masses(report.classes, p)):
            limit[list(c)] = mass / len(c)
        limits.append(limit)
    return limits
