"""V^dag H V is diagonalized block by block, so block zeros hold by construction."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmonitor import evolve, linalg, model

import oracles
from conftest import kernel, taus

DATA = Path(__file__).parent / "data"
TAU_GRID_33 = np.linspace(0.0, np.pi, 33)


def block_ids(m: model.Model) -> np.ndarray:
    """Index of the detect_blocks block that holds each outcome."""
    ids = np.empty(m.dim, dtype=int)
    for b, block in enumerate(model.detect_blocks(model.hamiltonian_in_basis(m))):
        ids[list(block)] = b
    return ids


@pytest.mark.parametrize("name", ["chain_dim8_seed67", "chain_dim16_seed0"])
def test_kernel_is_exactly_block_diagonal_with_unit_dark_columns(name):
    m = model.build_model(str(DATA / f"{name}.json"))
    ids = block_ids(m)
    across = ids[:, None] != ids[None, :]
    dark = [k for k in range(m.dim) if np.sum(ids == ids[k]) == 1]
    assert dark == [m.dim - 1]
    for tau in TAU_GRID_33:
        l = kernel(m, tau)
        assert np.all(l[across] == 0.0), f"cross-block kernel entry at tau={tau}"
        for k in dark:
            unit = np.eye(m.dim)[k]
            assert np.array_equal(l[:, k], unit), f"dark column {k} at tau={tau}"
            assert np.array_equal(l[k, :], unit), f"dark row {k} at tau={tau}"


@pytest.mark.parametrize(
    "name, column", [("two_qubit_singlet_triplet", "psi_2"), ("two_qubit_bell", "beta_3")]
)
def test_exact_engine_keeps_a_dark_column_exactly_zero(name, column):
    m = model.build_model(name)
    k = m.basis.labels.index(column)
    cells = evolve.run_exact(m, TAU_GRID_33, 32)[:, :, k]
    assert cells.shape == (33, 33)
    assert np.count_nonzero(cells) == 0


def test_exact_bell_columns_of_common_eigenvectors_do_not_move_with_tau():
    """beta_2 and beta_3 are 1x1 blocks of V^dag H V, eigenvectors of H and the
    observable alike: their rows are (1 - gamma)^n p0 + (1 - (1 - gamma)^n) / 4
    at every tau, and the trace writer writes such repeated columns once."""
    m = model.build_model("two_qubit_bell")
    cells = evolve.run_exact(m, np.linspace(0.0, np.pi, 257), 64, 0.033).view(np.uint64)
    common = [m.basis.labels.index("beta_2"), m.basis.labels.index("beta_3")]
    assert np.all(cells[:, :, common] == cells[:1, :, common])
    assert not np.all(cells[:, :, :2] == cells[:1, :, :2])


@st.composite
def block_models(draw):
    """A complex block-diagonal H written in a random unitary basis.

    ``owner[k]`` names the block of measurement state k, so blocks need not be
    contiguous. Entries are multiples of 1/8: a coupling is either exactly
    zero or far above the detect_blocks threshold.
    """
    dim = draw(st.integers(min_value=1, max_value=16))
    owner = np.array(draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.integers(-4, 5, (dim, dim)) + 1j * rng.integers(-4, 5, (dim, dim))) / 4
    d = np.where(owner[:, None] == owner[None, :], (a + a.conj().T) / 2, 0.0)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    h = v @ d @ v.conj().T
    basis = model.MeasurementBasis(dim=dim, v=v, labels=tuple(str(k) for k in range(dim)))
    m = model.Model(dim=dim, hamiltonian=(h + h.conj().T) / 2, basis=basis, initial_state=v[:, 0])
    return m, owner


@given(block_models(), taus)
@settings(max_examples=60, deadline=None)
def test_block_decomposition_reconstructs_and_zeroes_cross_block_propagator(case, tau):
    m, owner = case
    ids = block_ids(m)
    for b in set(ids):
        assert len(set(owner[ids == b])) == 1, "detected block straddles two blocks of H"

    dec = m.measurement_eig
    w = dec.eigenvectors
    h_meas = model.hamiltonian_in_basis(m)
    assert np.max(np.abs((w * dec.eigenvalues) @ w.conj().T - h_meas)) < 1e-12

    u = linalg.unitary_from_eig(m.measurement_eig, tau)
    assert np.all(u[ids[:, None] != ids[None, :]] == 0.0)


def test_uncoupled_model_never_reaches_the_solver(monkeypatch):
    def fail(_):
        raise AssertionError("a 1x1 block reached linalg.eig_hermitian")

    v = oracles.unitary_from_hamiltonian(model.pauli("y"), 0.4)
    monkeypatch.setattr(linalg, "eig_hermitian", fail)
    d = np.diag([0.5, -0.25])
    basis = model.MeasurementBasis(dim=2, v=v, labels=("a", "b"))
    m = model.Model(dim=2, hamiltonian=v @ d @ v.conj().T, basis=basis, initial_state=v[:, 0])
    dec = m.measurement_eig
    assert np.array_equal(dec.eigenvalues, np.real(np.diag(model.hamiltonian_in_basis(m))))
    assert np.array_equal(dec.eigenvectors, np.eye(2))
