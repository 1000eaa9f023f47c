"""The exact engine over a whole tau grid, checked against per-point references."""

from pathlib import Path

import numpy as np
import pytest

from qmonitor import cli, evolve, linalg, markov, model
from qmonitor.traces import ProbabilityTrace

from conftest import ALL_MODEL_NAMES, three_level_model

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
        assert len(traces) == len(grid)
        for tau, trace in zip(grid, traces):
            expected = reference_density_trace(m, tau, N_MAX, gamma)
            assert np.max(np.abs(trace.values - expected)) < 1e-12

    def test_matches_first_cycle_then_chain(self, m, grid, gamma):
        # The complex three-level kernel is doubly stochastic but not symmetric,
        # which TransitionMatrix rejects, so the chain is iterated here directly.
        traces = evolve.run_exact(m, grid, N_MAX, gamma)
        p0 = evolve.born_probabilities(m.initial_state, m.basis)
        psi_meas = m.basis.v.conj().T @ m.initial_state
        for tau, trace in zip(grid, traces):
            u_meas = markov.propagator_in_measurement_basis(m, tau)
            kernel = np.abs(u_meas) ** 2  # [k', k] = |<phi_k'|U|phi_k>|^2
            rows = [p0, np.abs(u_meas @ psi_meas) ** 2]
            for _ in range(N_MAX - 1):
                rows.append(kernel @ rows[-1])
            chain = evolve.noisy_closed_form(ProbabilityTrace(values=np.array(rows)), gamma, m.dim)
            assert np.max(np.abs(trace.values - chain.values)) < 1e-12


# every model except the complex three-level one, whose kernel is not symmetric
@pytest.mark.parametrize("m", MODELS[:3] + MODELS[4:], ids=MODEL_IDS[:3] + MODEL_IDS[4:])
@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("gamma", [0.0, 0.05])
def test_matches_the_markov_module(m, grid, gamma):
    traces = evolve.run_exact(m, grid, N_MAX, gamma)
    p0 = evolve.born_probabilities(m.initial_state, m.basis)
    for tau, trace in zip(grid, traces):
        p1, l = markov.first_cycle(m, tau)
        rows = np.vstack([p0, markov.propagate(l, p1, N_MAX - 1).values])
        chain = evolve.noisy_closed_form(ProbabilityTrace(values=rows), gamma, m.dim)
        assert np.max(np.abs(trace.values - chain.values)) < 1e-12


class TestGridShape:
    def test_rejects_a_scalar_tau(self, single_qubit):
        with pytest.raises(ValueError, match="1-D"):
            evolve.run_exact(single_qubit, 0.5, 4)

    def test_n_max_zero_gives_the_born_row_everywhere(self, bell):
        traces = evolve.run_exact(bell, [0.0, 0.9, 2.0], 0)
        assert [t.values.shape for t in traces] == [(1, 4)] * 3
        assert all(np.array_equal(t.values, traces[0].values) for t in traces)


class TestFrozenAtZero:
    """With V = I and U(0) exactly the identity, nothing moves at tau = 0."""

    def test_propagator_is_exactly_the_identity(self, single_qubit):
        dec = single_qubit.hamiltonian_eig
        assert np.array_equal(linalg.unitary_from_eig(dec, 0.0), np.eye(2))
        stack = linalg.unitary_from_eig(dec, [0.0, 1.0, 0.0])
        assert np.array_equal(stack[0], np.eye(2))
        assert np.array_equal(stack[2], np.eye(2))
        assert not np.array_equal(stack[1], np.eye(2))

    def test_kernel_is_exactly_the_identity(self, single_qubit):
        assert np.array_equal(markov.build_transition_matrix(single_qubit, 0.0).l, np.eye(2))

    @pytest.mark.parametrize("engine", ["exact", "markov"])
    def test_tau_zero_rows_are_p0(self, tmp_path, engine):
        args = ["simulate", "--engine", engine, "--tau-count", 3, "--n-max", 6, "--out", tmp_path]
        assert cli.main([str(a) for a in args]) == 0
        _, _, traces = cli.read_trace_csv(tmp_path / f"single_qubit_{engine}.csv")
        m = model.single_qubit_model()
        p0 = evolve.born_probabilities(m.initial_state, m.basis)
        assert np.array_equal(traces[0.0].values, np.tile(p0, (7, 1)))
