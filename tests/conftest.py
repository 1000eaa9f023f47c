import numpy as np
import pytest
from hypothesis import strategies as st

from qmonitor import model


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
