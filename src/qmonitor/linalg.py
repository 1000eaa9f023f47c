"""Dense complex linear algebra for small Hilbert spaces (dimension <= 16).

Everything here operates on plain complex128 numpy arrays. The Hermitian
eigensolver is a cyclic Jacobi iteration: at these sizes it is fast, its
convergence is unconditional, and its output is bit-deterministic, which
golden tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute gates for matrices with entries of order one.
HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-12

# Phase/tie detection threshold when canonicalizing eigenvectors.
_LEAD_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerce to a square, finite complex128 matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two same-dimension square matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a, dtype=complex)).T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; output dimension is the product of the inputs'."""
    return np.kron(as_matrix(a), as_matrix(b))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.linalg.norm(a - b))


def hermiticity_defect(a: np.ndarray) -> float:
    """Max-norm of a - a^dagger."""
    a = np.asarray(a, dtype=complex)
    return float(np.max(np.abs(a - adjoint(a)))) if a.size else 0.0


def require_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate Hermiticity within ``tol`` (max-norm) and return the input."""
    a = as_matrix(a)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: max |a - a^dag| = {defect:.3e}")
    return a


def is_unitary(a: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    a = as_matrix(a)
    return float(np.max(np.abs(adjoint(a) @ a - np.eye(a.shape[0])))) <= tol


@dataclass(frozen=True)
class HermitianEig:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are ascending; column k of ``eigenvectors`` is the
    (unit-norm) eigenvector of eigenvalue k.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _canonicalize(eigenvalues: np.ndarray, vectors: np.ndarray) -> HermitianEig:
    """Sort ascending and fix a deterministic order/phase for degenerate pairs.

    Each vector's phase is chosen so its leading entry (first with magnitude
    above _LEAD_TOL) is real and positive. Within an eigenvalue tie, vectors
    with larger leading-entry magnitude come first; the leading index breaks
    remaining ties.
    """
    n = len(eigenvalues)
    cols = []
    for j in range(n):
        v = vectors[:, j].copy()
        lead = 0
        for i in range(n):
            if abs(v[i]) > _LEAD_TOL:
                lead = i
                break
        if abs(v[lead]) > 0:
            v *= np.conj(v[lead]) / abs(v[lead])
            v[lead] = v[lead].real  # kill residual imaginary dust
        cols.append((eigenvalues[j], lead, abs(v[lead]), v))

    def key(entry):
        lam, lead, mag, _ = entry
        return (lam, -round(mag, 12), lead)

    cols.sort(key=key)
    # stable-regroup: within clusters of equal eigenvalue (1e-9) the sort key
    # above already orders by descending leading magnitude
    lam_sorted = np.array([e[0] for e in cols])
    v_sorted = np.column_stack([e[3] for e in cols])
    return HermitianEig(eigenvalues=lam_sorted, eigenvectors=v_sorted)


def eig_hermitian(a: np.ndarray, max_sweeps: int = 100) -> HermitianEig:
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius mass drops below
    1e-14 * ||a||_F. Degenerate eigenvalues are fine; the returned
    eigenvector matrix is unitary to ~1e-14.
    """
    a = require_hermitian(a)
    n = a.shape[0]
    work = (a + adjoint(a)) / 2.0  # exact Hermitian part
    vecs = np.eye(n, dtype=complex)
    norm = float(np.linalg.norm(work))
    if norm == 0.0 or n == 1:
        return _canonicalize(np.real(np.diag(work)).copy(), vecs)

    target = 1e-14 * norm
    for _ in range(max_sweeps):
        off = float(np.sqrt(np.sum(np.abs(work - np.diag(np.diag(work))) ** 2)))
        if off < target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                r = abs(apq)
                if r == 0.0:
                    continue
                phase = apq / r
                diff = (work[q, q].real - work[p, p].real) / (2.0 * r)
                if diff == 0.0:
                    t = 1.0
                else:
                    t = np.sign(diff) / (abs(diff) + float(np.hypot(1.0, diff)))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c

                col_p = work[:, p].copy()
                col_q = work[:, q].copy()
                work[:, p] = c * col_p - s * np.conj(phase) * col_q
                work[:, q] = s * col_p + c * np.conj(phase) * col_q
                row_p = work[p, :].copy()
                row_q = work[q, :].copy()
                work[p, :] = c * row_p - s * phase * row_q
                work[q, :] = s * row_p + c * phase * row_q
                work[p, q] = 0.0
                work[q, p] = 0.0
                work[p, p] = work[p, p].real
                work[q, q] = work[q, q].real

                v_p = vecs[:, p].copy()
                v_q = vecs[:, q].copy()
                vecs[:, p] = c * v_p - s * np.conj(phase) * v_q
                vecs[:, q] = s * v_p + c * np.conj(phase) * v_q
    else:
        raise RuntimeError("Jacobi eigensolver failed to converge")

    return _canonicalize(np.real(np.diag(work)).copy(), vecs)


def unitary_from_eig(dec: HermitianEig, tau: float) -> np.ndarray:
    """Propagator exp(-i h tau) (hbar = 1) from a precomputed decomposition of h."""
    phases = np.exp(-1j * dec.eigenvalues * float(tau))
    v = dec.eigenvectors
    return (v * phases) @ adjoint(v)


def unitary_from_hamiltonian(h: np.ndarray, tau: float) -> np.ndarray:
    """Propagator exp(-i h tau) (hbar = 1), built from the eigenbasis of h."""
    return unitary_from_eig(eig_hermitian(h), tau)


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
