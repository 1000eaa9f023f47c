import numpy as np
import pytest
from hypothesis import strategies as st

from qmonitor import linalg, markov, model, traces


@pytest.fixture(scope="session")
def single_qubit():
    return model.single_qubit_model()


@pytest.fixture(scope="session")
def singlet_triplet():
    return model.two_qubit_model("singlet_triplet")


@pytest.fixture(scope="session")
def bell():
    return model.two_qubit_model("bell")


ALL_MODEL_NAMES = ("single_qubit", "two_qubit_singlet_triplet", "two_qubit_bell")


def all_models():
    return [model.build_model(name) for name in ALL_MODEL_NAMES]


def three_level_model():
    """A complex 3-level Hamiltonian measured in a rotated basis."""
    h = np.array(
        [[0.4, 0.3 - 0.2j, 0.0], [0.3 + 0.2j, -0.1, 0.25j], [0.0, -0.25j, 0.7]]
    )
    c, s = np.cos(0.6), np.sin(0.6)
    v = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    basis = model.MeasurementBasis(dim=3, v=v, labels=("a", "b", "c"))
    return model.Model(dim=3, hamiltonian=h, basis=basis, initial_state=v[:, 0])


_entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def hermitian_matrices(draw, max_dim: int = 6):
    """Random Hermitian matrices with entries of order one."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    re = draw(
        st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    im = draw(
        st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    m = np.array(re) + 1j * np.array(im)
    return (m + m.conj().T) / 2.0


taus = st.floats(min_value=0.0, max_value=2.0 * np.pi, allow_nan=False, allow_infinity=False)
gammas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def cycle(rho: np.ndarray, m: model.Model, tau: float, gamma: float = 0.0) -> np.ndarray:
    """One full protocol cycle applied to a density matrix, in computational coordinates.

    U rho U^dag, then the projective dephasing sum_k |phi_k><phi_k| . |phi_k><phi_k|
    through the columns of V, then the depolarizing channel. This is the
    independent per-cycle reference for evolve.run_exact, which works in
    measurement coordinates from the block decomposition of V^dag H V; U here
    comes from its own decomposition of H. With gamma = 0 this is the noiseless
    evolve-and-measure map; gamma = 1 replaces the state by the completely
    mixed one.
    """
    rho = linalg.as_matrix(rho)
    if rho.shape[0] != m.dim:
        raise ValueError(f"dimension mismatch: state {rho.shape[0]}, model {m.dim}")
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    v = m.basis.v
    u = linalg.unitary_from_eig(linalg.eig_hermitian(m.hamiltonian), tau)
    evolved = u @ rho @ linalg.adjoint(u)
    # diag(V^dag evolved V)
    pops = np.real(np.sum(np.conj(v) * (evolved @ v), axis=0))
    dephased = (v * pops) @ linalg.adjoint(v)
    if gamma != 0.0:
        dephased = (1.0 - gamma) * dephased + gamma * np.eye(m.dim, dtype=complex) / m.dim
    return dephased


def cycle_trace(m: model.Model, tau: float, n_max: int, gamma: float = 0.0) -> np.ndarray:
    """The (n_max+1, dim) outcome rows of one tau, cycle iterated one density matrix at a time.

    Row 0 is the Born distribution of the initial state; row n is the diagonal
    of the state after n cycles in the measurement basis, with the depolarizing
    channel applied in every cycle: the independent reference for the trace
    that evolve.run_exact folds the noise into afterwards.
    """
    psi = m.initial_state
    rho = np.outer(psi, np.conj(psi))
    rows = [np.abs(linalg.adjoint(m.basis.v) @ psi) ** 2]
    for _ in range(n_max):
        rho = cycle(rho, m, tau, gamma)
        rows.append(np.real(np.diag(linalg.rotate_matrix(rho, m.basis.v))))
    return np.array(rows)


def start_rows(p0, n: int) -> np.ndarray:
    """A (..., n + 1, dim) block for evolve.propagate to fill: row 0 is p0."""
    p0 = np.asarray(p0, dtype=float)
    rows = np.empty((*p0.shape[:-1], n + 1, p0.shape[-1]))
    rows[..., 0, :] = p0
    return rows


def kernel(m: model.Model, tau: float) -> np.ndarray:
    """The (dim, dim) jump kernel L(tau) of one tau."""
    return markov.build_transition_matrix(m, [tau])[0]


def write_stack(path, labels, taus, values, stderrs=None) -> None:
    """traces.write_trace_csv of a finished (T, R, N) stack, and optionally its stderr stack.

    The block source slices the stack, with the stderrs as its last N columns.
    """
    blocks = np.asarray(values, dtype=float)
    if stderrs is not None:
        blocks = np.concatenate([blocks, stderrs], axis=2)
    traces.write_trace_csv(path, labels, taus, lambda start, stop: blocks[start:stop],
                           rows=blocks.shape[1], stderr=stderrs is not None)
