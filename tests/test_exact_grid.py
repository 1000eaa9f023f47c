"""The exact engine over a whole tau grid, checked against per-point references."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmonitor import analytic, cli, evolve, linalg, model

import oracles
from conftest import ALL_MODEL_NAMES, cycle_trace, kernel, taus, three_level_model
from test_render_memory import traced_cli_peak

DATA = Path(__file__).parent / "data"

MODELS = [model.build_model(name) for name in ALL_MODEL_NAMES] + [
    three_level_model(),
    model.build_model(str(DATA / "chain_dim16_seed0.json")),
]
MODEL_IDS = [*ALL_MODEL_NAMES, "three_level", "chain_dim16_seed0"]
GRIDS = {
    "grid": np.linspace(0.0, np.pi, 9).tolist() + [0.7, 2.3, 5.9],
    "single_point": [0.7],
}
N_MAX = 24


def reference_density_trace(m, tau, n_max, gamma):
    """Outcome probabilities of one grid point, one density matrix at a time."""
    h, v, psi = m.hamiltonian, m.basis.v, m.initial_state
    dim = m.dim
    lam, w = np.linalg.eigh(h)
    u = (w * np.exp(-1j * lam * tau)) @ w.conj().T
    rows = [np.abs(v.conj().T @ psi) ** 2]
    rho = np.outer(psi, psi.conj())
    for _ in range(n_max):
        rho = u @ rho @ u.conj().T
        pops = np.real(np.diag(v.conj().T @ rho @ v))
        rho = (1.0 - gamma) * ((v * pops) @ v.conj().T) + gamma * np.eye(dim) / dim
        rows.append((1.0 - gamma) * pops + gamma / dim)
    return np.array(rows)


@pytest.mark.parametrize("m", MODELS, ids=MODEL_IDS)
@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("gamma", [0.0, 0.05])
class TestGridAgreement:
    def test_matches_per_point_density_matrices(self, m, grid, gamma):
        traces = evolve.run_exact(m, grid, N_MAX, gamma)
        assert traces.shape == (len(grid), N_MAX + 1, m.dim)
        for tau, trace in zip(grid, traces):
            expected = reference_density_trace(m, tau, N_MAX, gamma)
            assert np.max(np.abs(trace - expected)) < 1e-12

    def test_matches_first_cycle_then_chain(self, m, grid, gamma):
        """The batched chain and folded noise equal a chain stepped one point and cycle at a time."""
        traces = evolve.run_exact(m, grid, N_MAX, gamma)
        p1, l = evolve.first_cycle(m, grid)
        for trace, p, kernel_ in zip(traces, p1, l):
            rows = [m.initial_distribution]
            p = (1.0 - gamma) * p + gamma / m.dim
            for _ in range(N_MAX):
                rows.append(p)
                p = (1.0 - gamma) * (p @ kernel_) + gamma / m.dim
            assert np.max(np.abs(trace - np.array(rows))) < 1e-12


@pytest.mark.parametrize("m", MODELS, ids=MODEL_IDS)
def test_grid_kernels_are_bitwise_the_per_point_kernels(m):
    """A kernel sliced from the grid's stack is bitwise the kernel of a scalar U(tau)."""
    grid = GRIDS["grid"]
    _, l = evolve.first_cycle(m, grid)
    for i, tau in enumerate(grid):
        assert np.array_equal(l[i], evolve._kernel(linalg.unitary_from_eig(m.measurement_eig, tau)))


_unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def random_models(draw, max_dim: int = 6):
    """Random Hermitian H, a random unitary V = exp(-i G) and a random initial state."""
    n = draw(st.integers(min_value=1, max_value=max_dim))

    def hermitian():
        a = np.array(draw(st.lists(_unit, min_size=n * n, max_size=n * n))).reshape(n, n)
        b = np.array(draw(st.lists(_unit, min_size=n * n, max_size=n * n))).reshape(n, n)
        return ((a + 1j * b) + (a + 1j * b).conj().T) / 2.0

    h = hermitian()
    v = oracles.unitary_from_hamiltonian(hermitian(), 1.0)
    psi = np.array(draw(st.lists(_unit, min_size=2 * n, max_size=2 * n))).view(complex)
    assume(np.linalg.norm(psi) > 0.1)
    basis = model.MeasurementBasis(dim=n, v=v, labels=tuple(f"s{k}" for k in range(n)))
    return model.Model(dim=n, hamiltonian=h, basis=basis, initial_state=psi / np.linalg.norm(psi))


@given(random_models(), st.lists(taus, min_size=1, max_size=4), st.sampled_from([0.0, 0.05]))
@settings(max_examples=60, deadline=None)
def test_random_models_exact_is_first_cycle_then_chain(m, grid, gamma):
    """run_exact is the first cycle and the chain by construction; the density
    matrix cycle in computational coordinates, from its own decomposition of H,
    checks it."""
    _, l = evolve.first_cycle(m, grid)
    assert np.max(np.abs(l.sum(axis=-1) - 1.0)) <= 1e-12
    assert np.max(np.abs(l.sum(axis=-2) - 1.0)) <= 1e-12
    assert l.min() >= 0.0 and l.max() <= 1.0 + 1e-12
    traces = evolve.run_exact(m, grid, N_MAX, gamma)
    for tau, trace in zip(grid, traces):
        assert np.max(np.abs(trace - cycle_trace(m, tau, N_MAX, gamma))) < 1e-12


EVERY_MODEL = [*ALL_MODEL_NAMES, *sorted(str(path) for path in DATA.glob("*.json"))]


@pytest.mark.parametrize("name", EVERY_MODEL, ids=lambda name: Path(name).stem)
@pytest.mark.parametrize("gamma", [0.0, 0.033])
def test_exact_and_markov_simulates_write_the_same_bytes(tmp_path, name, gamma):
    """Both engines are one chain; only the name of the CSV differs."""
    written = []
    for engine in ("exact", "markov"):
        argv = ["simulate", "--model", name, "--engine", engine, "--tau-count", 129,
                "--n-max", 64, "--gamma", gamma, "--out", tmp_path / engine]
        assert cli.main([str(a) for a in argv]) == 0
        written.append((tmp_path / engine / f"{Path(name).stem}_{engine}.csv").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
@pytest.mark.parametrize("gamma", [0.0, 0.033])
def test_exact_meets_the_closed_forms_at_the_sweep_shape(name, gamma):
    grid = np.linspace(0.0, np.pi, 257)
    exact = evolve.run_exact(model.build_model(name), grid, 256, gamma)
    assert np.max(np.abs(exact - analytic.closed_form_trace(name, grid, 256, gamma))) <= 3e-14


class TestGridShape:
    def test_rejects_a_scalar_tau(self, single_qubit):
        with pytest.raises(ValueError, match="1-D"):
            evolve.run_exact(single_qubit, 0.5, 4)

    def test_first_cycle_rejects_a_scalar_tau(self, single_qubit):
        with pytest.raises(ValueError, match="1-D"):
            evolve.first_cycle(single_qubit, 0.5)

    def test_n_max_zero_gives_the_born_row_everywhere(self, bell):
        traces = evolve.run_exact(bell, [0.0, 0.9, 2.0], 0)
        assert traces.shape == (3, 1, 4)
        assert all(np.array_equal(t, traces[0]) for t in traces)


class TestFrozenAtZero:
    """With V = I and U(0) exactly the identity, nothing moves at tau = 0."""

    def test_propagator_is_exactly_the_identity(self, single_qubit):
        dec = single_qubit.measurement_eig
        assert np.array_equal(linalg.unitary_from_eig(dec, 0.0), np.eye(2))
        stack = linalg.unitary_from_eig(dec, [0.0, 1.0, 0.0])
        assert np.array_equal(stack[0], np.eye(2))
        assert np.array_equal(stack[2], np.eye(2))
        assert not np.array_equal(stack[1], np.eye(2))

    def test_kernel_is_exactly_the_identity(self, single_qubit):
        assert np.array_equal(kernel(single_qubit, 0.0), np.eye(2))

    @pytest.mark.parametrize("engine", ["exact", "markov"])
    def test_tau_zero_rows_are_p0(self, tmp_path, engine):
        args = ["simulate", "--engine", engine, "--tau-count", 3, "--n-max", 6, "--out", tmp_path]
        assert cli.main([str(a) for a in args]) == 0
        _, taus, traces = cli.read_trace_csv(tmp_path / f"single_qubit_{engine}.csv")
        m = model.single_qubit_model()
        p0 = oracles.born_probabilities(m.initial_state, m.basis)
        assert taus[0] == 0.0
        assert np.array_equal(traces[0], np.tile(p0, (7, 1)))


def test_exact_simulate_holds_the_trace_once(tmp_path):
    argv = ["simulate", "--model", "two_qubit_bell", "--engine", "exact", "--tau-count", 257,
            "--n-max", 256, "--gamma", 0.033, "--out", tmp_path]
    payload = 257 * 257 * 4 * 8  # every outcome cell as a float64
    code, peak = traced_cli_peak(argv)
    assert code == 0
    assert peak <= 1.3 * payload
