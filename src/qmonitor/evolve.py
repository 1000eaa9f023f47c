"""Exact density-matrix propagation of the measurement protocol.

One protocol cycle is: unitary evolution for a time tau, projective
dephasing onto the measurement basis, and (optionally) a depolarizing
admixture of the completely mixed state with weight gamma. States are plain
complex128 density matrices.

run_exact propagates a whole tau grid at once, in measurement coordinates:
it builds W(tau) = exp(-i V^dag H V tau) for every grid point in one batched
step from the block-wise decomposition ``Model.measurement_eig``, so every
cross-block entry of W is an exact zero, and it rotates the initial state
into the measurement basis once. A cycle keeps only the real diagonal of
W rho W^dag (the projective dephasing), computed as sum_j (W rho)_kj
conj(W_kj), and mixes it with the uniform distribution (the depolarizing
channel). The first cycle starts from the full initial density matrix, so
its coherences are propagated as such: the engine is independent of the
Markov reduction, and the tests use it as the oracle for the other engines.
After it the dephased state is diagonal, so each later W rho is W with its
columns scaled by the populations.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from . import linalg
from .model import MeasurementBasis, Model
from .traces import check_trace

Direction = Literal["to_measurement", "to_computational"]


def initial_density(m: Model) -> np.ndarray:
    """The pure-state density matrix of the model's initial state."""
    psi = m.initial_state
    return np.outer(psi, np.conj(psi))


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return gamma


def check_run(taus, n_max: int = 0, gamma: float = 0.0) -> tuple[np.ndarray, float]:
    """The argument check every engine makes before any work: (taus as floats, gamma).

    Raises ValueError unless taus is a non-empty 1-D grid, n_max >= 0 and gamma
    lies in [0, 1].
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1:
        raise ValueError(f"taus must be a 1-D grid, got shape {taus.shape}")
    if len(taus) == 0:
        raise ValueError("taus must hold at least one grid point")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return taus, _check_gamma(gamma)


def run_exact(m: Model, taus, n_max: int, gamma: float = 0.0) -> np.ndarray:
    """Propagate the initial state over a tau grid for n_max cycles each.

    Returns the checked (T, n_max+1, dim) trace in grid order. Row 0 of a
    block is ``m.initial_distribution``, the Born law of the bare initial state;
    row n >= 1 is the distribution after n cycles. Every grid point advances
    together, one batched step per cycle: W rho with the full initial rho for
    the coherent first cycle, then W diag(pops) with the populations pops.
    """
    taus, gamma = check_run(taus, n_max, gamma)
    dim = m.dim
    w = linalg.unitary_from_eig(m.measurement_eig, taus)
    w_conj = np.conj(w)
    rows = np.empty((len(taus), n_max + 1, dim), dtype=float)
    rows[:, 0] = m.initial_distribution
    w_rho = w @ rho_in_basis(initial_density(m), m.basis, "to_measurement")
    for n in range(1, n_max + 1):
        pops = np.real(np.einsum("tkj,tkj->tk", w_rho, w_conj))  # diag(W rho W^dag)
        if gamma != 0.0:
            pops = (1.0 - gamma) * pops + gamma / dim
        rows[:, n] = pops
        np.multiply(w, pops[:, None, :], out=w_rho)  # W diag(pops)
    return check_trace(rows)


def noisy_closed_form(values: np.ndarray, gamma: float) -> np.ndarray:
    """Fold a per-cycle depolarizing channel into a (T, n_max+1, dim) trace, in place.

    Row n of every block becomes (1-gamma)^n * row_n + (1 - (1-gamma)^n) / dim
    (gamma = 0 leaves it untouched), and values is returned checked. This is
    valid because the measurement cycle and the depolarizing channel are both
    unital and therefore commute.
    """
    gamma = _check_gamma(gamma)
    if gamma != 0.0:
        survival = (1.0 - gamma) ** np.arange(values.shape[-2], dtype=float)
        values *= survival[:, None]
        values += ((1.0 - survival) / values.shape[-1])[:, None]
    return check_trace(values)


def rho_in_basis(rho: np.ndarray, basis: MeasurementBasis, direction: Direction) -> np.ndarray:
    """Re-express a density matrix between computational and measurement coordinates."""
    rho = linalg.as_matrix(rho)
    if rho.shape[0] != basis.dim:
        raise ValueError("dimension mismatch")
    v = basis.v
    if direction == "to_measurement":
        return linalg.rotate_matrix(rho, v)
    if direction == "to_computational":
        return linalg.rotate_matrix(rho, linalg.adjoint(v))
    raise ValueError(f"unknown direction {direction!r}")
