"""Markov-chain reduction of the measurement protocol.

Between consecutive measurements the outcome statistics follow a classical
Markov chain with kernel L[k, k'] = |<phi_k'| U(tau) |phi_k>|^2 = P(k -> k').
Distributions are row vectors and advance as p L. The kernel of a unitary is
doubly stochastic but need not be symmetric (a Hamiltonian that is complex
in the measurement basis breaks the symmetry), and the engines accept any
such kernel. Only the spectral analysis requires a symmetric kernel: its
spectrum is then real, lies in [-1, 1], and contains the eigenvalue 1 with
the uniform eigenvector. A unique unit eigenvalue gives uniform
(infinite-temperature) mixing, a degenerate one preserves block weights, and
an eigenvalue -1 makes the distribution oscillate forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .model import BlockStructure, Model

STOCHASTIC_TOL = 1e-12
DEGENERACY_TOL = 1e-9

KIND_FROZEN = "frozen"
KIND_OSCILLATORY = "oscillatory"
KIND_INFINITE_TEMPERATURE = "infinite_temperature"
KIND_PARTIAL = "partial"


class AsymmetricKernelError(ValueError):
    """A doubly stochastic kernel that is not symmetric, which the spectral analysis rejects."""


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


@dataclass(frozen=True)
class TransitionMatrix:
    """Symmetric doubly stochastic jump kernel for one evolution period tau.

    Its spectrum is computed on first use and cached on the instance, so
    classify, stationary_limit and power share one decomposition. Changing
    ``l`` in place after first use is unsupported.
    """

    l: np.ndarray
    tau: float

    def __post_init__(self):
        mat = np.asarray(self.l, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("transition matrix must be square")
        _check_doubly_stochastic(mat)
        if np.max(np.abs(mat - mat.T)) > STOCHASTIC_TOL:
            raise AsymmetricKernelError("matrix must be symmetric")
        object.__setattr__(self, "l", mat)

    @property
    def dim(self) -> int:
        return self.l.shape[0]

    @cached_property
    def chain_spectrum(self) -> ChainSpectrum:
        """The kernel's spectrum, as returned by ``spectrum``."""
        return spectrum(self)


@dataclass(frozen=True)
class ChainSpectrum:
    """Eigenvalues (descending) and orthonormal real eigenvectors of the kernel."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if float(np.min(lam)) < -1.0 - STOCHASTIC_TOL or float(np.max(lam)) > 1.0 + STOCHASTIC_TOL:
            raise ValueError("spectrum escapes [-1, 1]; kernel is corrupt")
        if abs(lam[0] - 1.0) > STOCHASTIC_TOL:
            raise ValueError("leading eigenvalue must be 1")
        object.__setattr__(self, "eigenvalues", lam)


@dataclass(frozen=True)
class RegimeReport:
    """Asymptotic classification of the chain."""

    kind: str
    multiplicity_of_one: int
    has_minus_one: bool
    blocks: BlockStructure | None
    details: str


def _kernel(u_meas: np.ndarray) -> np.ndarray:
    """Kernels L[..., k, k'] = |u_meas[..., k', k]|^2 of one U or a stack, rows normalised.

    Rounding leaves row sums a few ulp off 1, which propagate would compound
    into a drift of the total probability. Cross-block entries of U are exact
    zeros (``Model.measurement_eig``), so a dark row is an exact unit vector.
    """
    mat = np.abs(np.swapaxes(u_meas, -1, -2)) ** 2
    return mat / mat.sum(axis=-1, keepdims=True)


def build_transition_matrix(m: Model, tau: float) -> TransitionMatrix:
    """The kernel L(tau) of one tau, from ``first_cycle`` over the grid [tau].

    Raises AsymmetricKernelError unless the kernel is symmetric.
    """
    return TransitionMatrix(l=first_cycle(m, [tau])[1][0], tau=float(tau))


def first_cycle(m: Model, taus) -> tuple[np.ndarray, np.ndarray]:
    """(T, dim) first-cycle distributions p1 and (T, dim, dim) kernels L of a tau grid.

    Both come from one batched U. p1 = |U_meas V^dag psi|^2 keeps the
    coherences that the Born distribution p0 drops; row n >= 1 of a trace is
    p1 L^(n-1). Raises ValueError unless every kernel is doubly stochastic.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1:
        raise ValueError(f"taus must be a 1-D grid, got shape {taus.shape}")
    u_meas = linalg.unitary_from_eig(m.measurement_eig, taus)
    psi_meas = linalg.adjoint(m.basis.v) @ m.initial_state
    l = _kernel(u_meas)
    _check_doubly_stochastic(l)
    return np.abs(u_meas @ psi_meas) ** 2, l


def spectrum(l: TransitionMatrix) -> ChainSpectrum:
    """Full eigendecomposition of the kernel, eigenvalues descending."""
    dec = linalg.eig_hermitian(l.l.astype(complex))
    order = slice(None, None, -1)
    lam = dec.eigenvalues[order].copy()
    vecs = dec.eigenvectors[:, order]
    if float(np.max(np.abs(vecs.imag))) > 1e-12:
        raise RuntimeError("eigenvectors of a real symmetric kernel came out complex")
    return ChainSpectrum(eigenvalues=lam, eigenvectors=np.real(vecs).copy())


def power(l: TransitionMatrix, n: int) -> np.ndarray:
    """n-th power of the kernel via its spectral decomposition."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return np.eye(l.dim)
    spec = l.chain_spectrum
    return (spec.eigenvectors * spec.eigenvalues**n) @ spec.eigenvectors.T


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


def classify(
    l: TransitionMatrix, h_blocks: BlockStructure, tol: float = DEGENERACY_TOL
) -> RegimeReport:
    """Name the asymptotic regime of the chain.

    frozen: the kernel is the identity (nothing moves). oscillatory: an
    eigenvalue -1 is present and the distribution never converges.
    infinite_temperature: unique unit eigenvalue, everything relaxes to
    uniform. partial: degenerate unit eigenvalue, per-block memory survives.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam = l.chain_spectrum.eigenvalues
    mult_one = int(np.sum(lam >= 1.0 - tol))
    has_minus_one = bool(np.any(lam <= -1.0 + tol))

    if float(np.max(np.abs(l.l - np.eye(l.dim)))) < tol:
        return RegimeReport(
            kind=KIND_FROZEN,
            multiplicity_of_one=l.dim,
            has_minus_one=False,
            blocks=None,
            details="kernel is the identity; every outcome is frozen",
        )
    if has_minus_one:
        return RegimeReport(
            kind=KIND_OSCILLATORY,
            multiplicity_of_one=mult_one,
            has_minus_one=True,
            blocks=None,
            details="eigenvalue -1 present; outcome distribution oscillates with n",
        )
    if mult_one == 1:
        return RegimeReport(
            kind=KIND_INFINITE_TEMPERATURE,
            multiplicity_of_one=1,
            has_minus_one=False,
            blocks=None,
            details="unique unit eigenvalue; distribution relaxes to uniform",
        )
    return RegimeReport(
        kind=KIND_PARTIAL,
        multiplicity_of_one=mult_one,
        has_minus_one=False,
        blocks=h_blocks,
        details=(
            f"unit eigenvalue has multiplicity {mult_one}; "
            "block weights are conserved"
        ),
    )


def stationary_limit(
    l: TransitionMatrix, p0: np.ndarray, tol: float = DEGENERACY_TOL
) -> np.ndarray | None:
    """Projection of p0 onto the unit eigenspace, or None if -1 is in the spectrum.

    When an eigenvalue -1 exists the large-n limit does not exist (period-two
    oscillation); otherwise L^n p0 converges to this projection.
    """
    p = np.asarray(p0, dtype=float).reshape(-1)
    if p.shape[0] != l.dim:
        raise ValueError("p0 has wrong length")
    spec = l.chain_spectrum
    if bool(np.any(spec.eigenvalues <= -1.0 + tol)):
        return None
    keep = spec.eigenvalues >= 1.0 - tol
    vecs = spec.eigenvectors[:, keep]
    return vecs @ (vecs.T @ p)
