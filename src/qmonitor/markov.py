"""Markov-chain reduction of the measurement protocol.

Between consecutive measurements the outcome statistics follow a classical
Markov chain whose kernel is the matrix of jump probabilities
|<phi_k'| U(tau) |phi_k>|^2. For the models treated here that kernel is
symmetric and doubly stochastic, so its spectrum is real, lies in [-1, 1],
and always contains the eigenvalue 1 with the uniform eigenvector. The
long-time regime is read off the spectrum: a unique unit eigenvalue gives
uniform (infinite-temperature) mixing, a degenerate one preserves block
weights, and an eigenvalue -1 makes the distribution oscillate forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .model import BlockStructure, Model
from .traces import ProbabilityTrace

STOCHASTIC_TOL = 1e-12
DEGENERACY_TOL = 1e-9

KIND_FROZEN = "frozen"
KIND_OSCILLATORY = "oscillatory"
KIND_INFINITE_TEMPERATURE = "infinite_temperature"
KIND_PARTIAL = "partial"


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
        if np.min(mat) < -STOCHASTIC_TOL or np.max(mat) > 1.0 + STOCHASTIC_TOL:
            raise ValueError("entries must be probabilities")
        if np.max(np.abs(mat.sum(axis=0) - 1.0)) > STOCHASTIC_TOL:
            raise ValueError("columns must sum to 1")
        if np.max(np.abs(mat.sum(axis=1) - 1.0)) > STOCHASTIC_TOL:
            raise ValueError("rows must sum to 1")
        if np.max(np.abs(mat - mat.T)) > STOCHASTIC_TOL:
            raise ValueError("matrix must be symmetric")
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


def propagator_in_measurement_basis(m: Model, tau: float) -> np.ndarray:
    """U(tau) expressed in measurement coordinates.

    Computed from the block-by-block decomposition of V^dag H V
    (``Model.measurement_eig``, cached on the model, so a tau sweep
    diagonalizes once). Every entry of U that couples two blocks is a sum of
    products with an exact zero factor, so it is exactly zero, and a dark
    state's column is a pure phase on the diagonal.
    """
    return linalg.unitary_from_eig(m.measurement_eig, tau)


def _kernel(u_meas: np.ndarray, tau: float) -> TransitionMatrix:
    mat = np.abs(u_meas.T) ** 2  # [k, k'] = |u_meas[k', k]|^2
    mat = mat / mat.sum(axis=0)
    return TransitionMatrix(l=mat, tau=float(tau))


def build_transition_matrix(m: Model, tau: float) -> TransitionMatrix:
    """Jump kernel L[k, k'] = |<phi_k'| U(tau) |phi_k>|^2 of a model.

    Each column is divided by its sum. Rounding leaves the sums a few ulp
    off 1, and propagate would compound that over n steps into a visible
    drift of the total probability. Dark columns are exact unit vectors and
    divide by exactly 1.0, so dark populations stay pinned.
    """
    return _kernel(propagator_in_measurement_basis(m, tau), tau)


def first_cycle(m: Model, tau: float) -> tuple[np.ndarray, TransitionMatrix]:
    """The first-cycle distribution p1 and the kernel L(tau), from one U(tau).

    p1 = |U_meas V^dag psi|^2: the first evolution acts on the initial state
    itself, so p1 keeps the coherences that the Born distribution p0 drops.
    The chain only takes over after the first measurement: row n >= 1 of a
    trace is L^(n-1) p1.
    """
    u_meas = propagator_in_measurement_basis(m, tau)
    psi_meas = linalg.adjoint(m.basis.v) @ m.initial_state
    return np.abs(u_meas @ psi_meas) ** 2, _kernel(u_meas, tau)


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


def propagate(l: TransitionMatrix, p0: np.ndarray, n: int) -> ProbabilityTrace:
    """Outcome distributions L^m p0 for m = 0..n, by repeated application."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p = np.asarray(p0, dtype=float).reshape(-1)
    if p.shape[0] != l.dim:
        raise ValueError("p0 has wrong length")
    if np.min(p) < -STOCHASTIC_TOL or abs(p.sum() - 1.0) > STOCHASTIC_TOL:
        raise ValueError("p0 is not a probability vector")
    rows = np.empty((n + 1, l.dim), dtype=float)
    rows[0] = p
    for m in range(1, n + 1):
        p = l.l @ p
        rows[m] = p
    return ProbabilityTrace(values=rows)


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
