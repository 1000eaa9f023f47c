import numpy as np
import pytest
from hypothesis import given, settings

from qmonitor import linalg
from qmonitor.model import pauli

import oracles
from conftest import hermitian_matrices, taus

SX = pauli("x")
SY = pauli("y")
SZ = pauli("z")
I2 = np.eye(2, dtype=complex)


class TestAdjoint:
    def test_hermitian_fixed_point(self):
        assert np.array_equal(linalg.adjoint(SY), SY)

    def test_conjugates_diagonal(self):
        assert np.allclose(linalg.adjoint(np.diag([1j, -1j])), np.diag([-1j, 1j]))

    def test_adjoint_of_unitary_is_inverse(self):
        u = oracles.unitary_from_hamiltonian(0.5 * SX, 0.7)
        assert np.allclose(u @ linalg.adjoint(u), I2, atol=1e-13)

    def test_involution(self):
        a = np.array([[1 + 2j, 3], [4j, -1]])
        assert np.array_equal(linalg.adjoint(linalg.adjoint(a)), a)


class TestKron:
    def test_identity(self):
        assert np.array_equal(linalg.kron(I2, I2), np.eye(4))

    def test_two_qubit_hamiltonian_spectrum(self):
        h = 0.5 * (linalg.kron(SX, I2) + linalg.kron(I2, SX))
        # hand eigendecomposition: sums of two +-1/2 single-qubit levels
        lam = linalg.eig_hermitian(h).eigenvalues
        assert np.allclose(lam, [-1.0, 0.0, 0.0, 1.0], atol=1e-13)

    def test_diagonal_case(self):
        got = linalg.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))


class TestEigHermitian:
    def test_diagonal(self):
        dec = linalg.eig_hermitian(SZ)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_sigma_x_pairs(self):
        dec = linalg.eig_hermitian(SX)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        # eigenvectors are fixed up to a global phase each
        for k, expected in enumerate(([s, -s], [s, s])):
            v = dec.eigenvectors[:, k]
            phase = np.vdot(expected, v)
            assert abs(abs(phase) - 1.0) < 1e-14
            assert np.allclose(v, phase * np.array(expected), atol=1e-14)

    def test_degenerate_two_qubit(self):
        h = 0.5 * (linalg.kron(SX, I2) + linalg.kron(I2, SX))
        dec = linalg.eig_hermitian(h)
        assert np.allclose(dec.eigenvalues, [-1, 0, 0, 1], atol=1e-13)
        # orthonormality survives the degeneracy
        v = dec.eigenvectors
        assert np.max(np.abs(linalg.adjoint(v) @ v - np.eye(4))) < 1e-12

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError, match="finite"):
            linalg.eig_hermitian(bad)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.eig_hermitian(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_deterministic(self):
        h = 0.5 * (linalg.kron(SX, I2) + linalg.kron(I2, SX))
        a = linalg.eig_hermitian(h)
        b = linalg.eig_hermitian(h)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    @given(hermitian_matrices())
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy_oracle(self, h):
        lam = linalg.eig_hermitian(h).eigenvalues
        ref = np.linalg.eigvalsh(h)
        scale = max(1.0, float(np.linalg.norm(h)))
        assert np.max(np.abs(lam - ref)) < 1e-12 * scale

    @given(hermitian_matrices())
    @settings(max_examples=80, deadline=None)
    def test_reconstruction(self, h):
        dec = linalg.eig_hermitian(h)
        v = dec.eigenvectors
        rebuilt = (v * dec.eigenvalues) @ linalg.adjoint(v)
        assert np.linalg.norm(rebuilt - h) <= 1e-11 * max(1.0, np.linalg.norm(h))
        assert np.max(np.abs(linalg.adjoint(v) @ v - np.eye(h.shape[0]))) < 1e-12

    @given(hermitian_matrices())
    @settings(max_examples=40, deadline=None)
    def test_eigenvalue_equation(self, h):
        dec = linalg.eig_hermitian(h)
        scale = max(1.0, float(np.linalg.norm(h)))
        for k in range(h.shape[0]):
            v = dec.eigenvectors[:, k]
            assert np.max(np.abs(h @ v - dec.eigenvalues[k] * v)) < 1e-12 * scale


class TestUnitaryFromHamiltonian:
    def test_zero_time(self):
        for h in (SX, SZ, 0.5 * SX):
            assert np.allclose(oracles.unitary_from_hamiltonian(h, 0.0), I2, atol=1e-14)

    def test_x_rotation_closed_form(self):
        # exp(-i tau sigma_x / 2) = cos(tau/2) I - i sin(tau/2) sigma_x
        tau = 0.7
        expected = np.cos(tau / 2) * I2 - 1j * np.sin(tau / 2) * SX
        got = oracles.unitary_from_hamiltonian(0.5 * SX, tau)
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_two_qubit_factorizes(self):
        tau = 1.3
        h = 0.5 * (linalg.kron(SX, I2) + linalg.kron(I2, SX))
        u1 = oracles.unitary_from_hamiltonian(0.5 * SX, tau)
        got = oracles.unitary_from_hamiltonian(h, tau)
        assert np.max(np.abs(got - linalg.kron(u1, u1))) < 1e-13

    @given(hermitian_matrices(max_dim=4), taus, taus)
    @settings(max_examples=50, deadline=None)
    def test_group_property(self, h, t1, t2):
        u1 = oracles.unitary_from_hamiltonian(h, t1)
        u2 = oracles.unitary_from_hamiltonian(h, t2)
        u12 = oracles.unitary_from_hamiltonian(h, t1 + t2)
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-11

    @given(hermitian_matrices(max_dim=5), taus)
    @settings(max_examples=50, deadline=None)
    def test_unitarity(self, h, tau):
        u = oracles.unitary_from_hamiltonian(h, tau)
        assert linalg.is_unitary(u, tol=1e-12)


@given(hermitian_matrices(max_dim=3), taus)
@settings(max_examples=40, deadline=None)
def test_kron_mixed_product(h, tau):
    # (A (x) B)(C (x) D) = AC (x) BD
    a = h
    b = oracles.unitary_from_hamiltonian(h, tau)
    c = h @ h - np.eye(h.shape[0])
    d = 0.5 * h + 1j * np.eye(h.shape[0])
    lhs = linalg.kron(a, b) @ linalg.kron(c, d)
    rhs = linalg.kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_rotate_matrix_matches_matmul():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + a.conj().T) / 2
    u = oracles.unitary_from_hamiltonian(h, 0.9)
    got = linalg.rotate_matrix(h, u)
    ref = linalg.adjoint(u) @ h @ u
    assert np.max(np.abs(got - ref)) < 1e-13
