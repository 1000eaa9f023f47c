"""Dense complex linear algebra for small Hilbert spaces (dimension <= 16).

Everything here operates on plain complex128 numpy arrays. The Hermitian
eigensolver is LAPACK's, through ``np.linalg.eigh``; it guarantees no exact
zeros. Structural zeros that the physics needs (dark states) come from
diagonalizing the coupled blocks of a Hamiltonian one at a time
(``Model.measurement_eig``), never from the solver.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# HERMITICITY_TOL scales with max(1, max|a_ij|), as the rounding of V^dag H V does;
# UNITARITY_TOL is absolute, for matrices whose entries are at most 1.
HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce to a square, finite complex128 matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a, dtype=complex)).T


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Return a as a matrix if max|a - a^dag| <= HERMITICITY_TOL * max(1, max|a_ij|)."""
    a = as_matrix(a)
    defect = float(np.max(np.abs(a - adjoint(a))))
    if defect > HERMITICITY_TOL * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError(f"matrix is not Hermitian: max |a - a^dag| = {defect:.3e}")
    return a


def is_unitary(a: np.ndarray) -> bool:
    a = as_matrix(a)
    return float(np.max(np.abs(adjoint(a) @ a - np.eye(a.shape[0])))) <= UNITARITY_TOL


class HermitianEig(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    Column k of ``eigenvectors`` is the (unit-norm) eigenvector of
    eigenvalue k. Eigenvalues are ascending as returned by ``eig_hermitian``;
    a decomposition assembled block by block (``Model.measurement_eig``) is
    ordered by block instead.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(a: np.ndarray) -> HermitianEig:
    """Full eigendecomposition of a Hermitian matrix (LAPACK ``eigh``).

    Eigenvalues come out ascending; the eigenvector matrix is unitary to
    ~1e-15. Eigenvector phases, and the basis chosen within a degenerate
    eigenspace, are whatever LAPACK returns.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(require_hermitian(a))
    return HermitianEig(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def unitary_from_eig(dec: HermitianEig, tau) -> np.ndarray:
    """Propagator exp(-i h tau) (hbar = 1) from a precomputed decomposition of h.

    ``tau`` is a scalar, giving one (dim, dim) matrix, or a 1-D grid, giving a
    (T, dim, dim) stack. Where tau == 0 the result is exactly the identity,
    not the rounded product W W^dag.
    """
    tau = np.asarray(tau, dtype=float)
    v = dec.eigenvectors
    phases = np.exp(-1j * np.multiply.outer(tau, dec.eigenvalues))
    u = (v * phases[..., None, :]) @ adjoint(v)
    u[tau == 0.0] = np.eye(v.shape[0])
    return u


def rotate_matrix(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Basis change v^dagger a v, evaluated without fused multiply-adds.

    BLAS matmul may contract with FMA, which leaves O(eps) dust where
    symmetric terms should cancel exactly. Here every product is rounded
    individually before summation, so exact structural zeros of the rotated
    matrix (dark rows/columns) survive bit for bit. Cost is O(N^3) temporaries,
    irrelevant at N <= 16.
    """
    a = as_matrix(a)
    v = as_matrix(v)
    if a.shape != v.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {v.shape[0]}")
    av = np.sum(a[:, :, None] * v[None, :, :], axis=1)
    return np.sum(np.conj(v)[:, :, None] * av[:, None, :], axis=0)


def components(support) -> list[tuple[tuple[int, ...], ...]]:
    """Connected components of each (n, n) boolean support in a (..., n, n) stack, in C order.

    The support, made symmetric and reflexive, is squared until it spans
    paths of n - 1 edges. A component is the sorted tuple of its members,
    and the components come in order of their first member.
    """
    support = np.asarray(support, dtype=bool)
    n = support.shape[-1]
    reach = support | np.swapaxes(support, -1, -2) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    blocks = []
    # each state's component is named by its smallest member
    for roots in reach.argmax(axis=-1).reshape(-1, n).tolist():
        members: dict[int, list[int]] = {}
        for i, root in enumerate(roots):
            members.setdefault(root, []).append(i)
        blocks.append(tuple(map(tuple, members.values())))
    return blocks
