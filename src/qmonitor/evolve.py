"""The measurement cycle of the protocol, and the exact engine that iterates it.

A cycle is unitary evolution for a time tau, a projective measurement in the
basis V and, optionally, a depolarizing admixture of the completely mixed
state with weight gamma. A measurement leaves the state diagonal in its basis,
so each cycle after the first exactly maps the outcome distribution p to p L,
with the kernel L[k, k'] = |<phi_k'| U(tau) |phi_k>|^2 = P(k -> k'). The first
starts from the coherent initial state and gives p1 = |V^dag U psi|^2.
first_cycle computes (p1, L) for a whole tau grid from one batched
W = exp(-i V^dag H V tau), built block by block from ``Model.measurement_eig``,
so cross-block entries of W and L are exact zeros. Every engine advances
these stacks: run_exact, which runs both the exact and the markov engine,
fills p1, p1 L, ... with propagate and folds the depolarizing channel in
afterwards (noisy_closed_form), and sample.run_shots draws outcome counts
from them.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .model import Model
from .traces import check_trace

STOCHASTIC_TOL = 1e-12


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


def _check_doubly_stochastic(mat: np.ndarray) -> None:
    """Reject a kernel, or a stack of kernels, that is not doubly stochastic."""
    if not np.all(np.isfinite(mat)):
        raise ValueError("entries must be finite")
    if np.min(mat) < -STOCHASTIC_TOL or np.max(mat) > 1.0 + STOCHASTIC_TOL:
        raise ValueError("entries must be probabilities")
    if np.max(np.abs(mat.sum(axis=-2) - 1.0)) > STOCHASTIC_TOL:
        raise ValueError("columns must sum to 1")
    if np.max(np.abs(mat.sum(axis=-1) - 1.0)) > STOCHASTIC_TOL:
        raise ValueError("rows must sum to 1")


def _kernel(u_meas: np.ndarray) -> np.ndarray:
    """Kernels L[..., k, k'] = |u_meas[..., k', k]|^2 of one U or a stack, rows normalised.

    Rounding leaves row sums a few ulp off 1, which a chain would compound into
    a drift of the total probability. A dark row is an exact unit vector.
    """
    mat = np.abs(np.swapaxes(u_meas, -1, -2)) ** 2
    return mat / mat.sum(axis=-1, keepdims=True)


def first_cycle(m: Model, taus) -> tuple[np.ndarray, np.ndarray]:
    """(T, dim) first-cycle distributions p1 and (T, dim, dim) kernels L of a tau grid.

    Both come from one batched U. p1 = |U_meas V^dag psi|^2 keeps the coherences
    that the Born distribution p0 drops; without noise, row n >= 1 of a trace is
    p1 L^(n-1). Raises ValueError unless every kernel is doubly stochastic.
    """
    taus, _ = check_run(taus)
    u_meas = linalg.unitary_from_eig(m.measurement_eig, taus)
    psi_meas = linalg.adjoint(m.basis.v) @ m.initial_state
    l = _kernel(u_meas)
    _check_doubly_stochastic(l)
    return np.abs(u_meas @ psi_meas) ** 2, l


def propagate(l: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fill rows[..., m, :] = rows[..., 0, :] L^m in place, m = 1..R-1, and return rows.

    rows is a caller-allocated (..., R, dim) float array whose row 0 holds the
    start distributions p0; l is the matching (..., dim, dim) stack of kernels.
    Each step is one batched product written straight into rows, so the
    chain is held once.
    """
    l = np.asarray(l, dtype=float)
    p = rows[..., 0, :]
    if l.shape != p.shape + p.shape[-1:]:
        raise ValueError(f"p0 of shape {p.shape} does not match kernels of shape {l.shape}")
    if not (np.all(np.isfinite(l)) and np.all(np.isfinite(p))):
        raise ValueError("kernels and p0 must be finite")
    if np.min(p) < -STOCHASTIC_TOL or np.max(np.abs(p.sum(axis=-1) - 1.0)) > STOCHASTIC_TOL:
        raise ValueError("p0 is not a probability vector")
    p = p[..., None, :]
    for m in range(1, rows.shape[-2]):
        p = p @ l
        rows[..., m, :] = p[..., 0, :]
    return rows


def run_exact(m: Model, taus, n_max: int, gamma: float = 0.0) -> np.ndarray:
    """The checked (T, n_max+1, dim) trace p0, p1, p1 L, p1 L^2, ... of a tau grid.

    Row 0 of a block is ``m.initial_distribution``, the Born law of the bare
    initial state; row n >= 1 is the distribution after n cycles: p1 for the
    coherent first cycle, then p L. Every grid point advances together, one
    batched product per cycle. A nonzero gamma is folded in afterwards by
    noisy_closed_form.
    """
    taus, gamma = check_run(taus, n_max, gamma)
    p1, l = first_cycle(m, taus)
    values = np.empty((len(taus), n_max + 1, m.dim))
    values[:, 0] = m.initial_distribution
    if n_max > 0:
        values[:, 1] = p1
        propagate(l, values[:, 1:])
    return noisy_closed_form(values, gamma)


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
