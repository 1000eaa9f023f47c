"""Reference helpers that only the tests use.

Each one is an independent oracle or a convenience the package itself has
no use for: a propagator built from a fresh decomposition of H, a density
matrix validator, the large-n limits of the two-qubit models, outcome
projectors in computational coordinates, and the scalar hex colour of the
render ramp.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from qmonitor import linalg, render
from qmonitor.model import MeasurementBasis

Parity = Literal["even", "odd", "generic"]

PSD_TOL = -1e-10
RESONANCE_TOL = 1e-9


def unitary_from_hamiltonian(h: np.ndarray, tau: float) -> np.ndarray:
    """Propagator exp(-i h tau) (hbar = 1), built from the eigenbasis of h."""
    return linalg.unitary_from_eig(linalg.eig_hermitian(h), tau)


def check_density(rho: np.ndarray, trace_tol: float = 1e-12) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity (up to solver noise)."""
    rho = linalg.require_hermitian(rho)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace is {tr}, expected 1")
    eigs = linalg.eig_hermitian(rho).eigenvalues
    if float(np.min(eigs)) < PSD_TOL:
        raise ValueError(f"negative eigenvalue {np.min(eigs):.3e}")
    return rho


def projector(basis: MeasurementBasis, k: int) -> np.ndarray:
    """Rank-one projector onto outcome k, in computational coordinates."""
    col = basis.v[:, k]
    return np.outer(col, np.conj(col))


def ramp_color(x: float) -> str:
    """Hex color for x in [0, 1], clipped."""
    return "#%06x" % render.ramp_codes(x)


def _resonance_class(tau: float, step: float) -> int | None:
    """Index p of the nearest multiple p*step within RESONANCE_TOL, else None."""
    p = round(tau / step)
    if abs(tau - p * step) <= RESONANCE_TOL:
        return int(p)
    return None


def limit_probs(model_kind: str, tau: float, parity: Parity = "generic") -> np.ndarray | None:
    """Large-n outcome probabilities of the two-qubit models, or None if divergent.

    At resonant tau (multiples of pi, and of pi/2 for the Bell case) the
    distribution alternates with the parity of n; passing parity 'even' or
    'odd' selects a subsequence limit, while 'generic' reports divergence
    (None) where the plain limit does not exist.
    """
    if parity not in ("even", "odd", "generic"):
        raise ValueError(f"unknown parity {parity!r}")
    if model_kind == "singlet_triplet":
        p = _resonance_class(tau, math.pi)
        if p is None:
            return np.array([1 / 3, 1 / 3, 0.0, 1 / 3])
        if p % 2 == 0:
            return np.array([1.0, 0.0, 0.0, 0.0])
        # odd multiple of pi: hops between psi_0 and psi_3
        if parity == "even":
            return np.array([1.0, 0.0, 0.0, 0.0])
        if parity == "odd":
            return np.array([0.0, 0.0, 0.0, 1.0])
        return None
    if model_kind == "bell":
        p = _resonance_class(tau, math.pi / 2.0)
        if p is None:
            return np.array([0.25, 0.25, 0.5, 0.0])
        if p % 2 == 0:
            return np.array([0.5, 0.0, 0.5, 0.0])
        # odd multiple of pi/2: hops between beta_0 and beta_1
        if parity == "even":
            return np.array([0.5, 0.0, 0.5, 0.0])
        if parity == "odd":
            return np.array([0.0, 0.5, 0.5, 0.0])
        return None
    raise ValueError(f"no closed-form limits for model kind {model_kind!r}")
