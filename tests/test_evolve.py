from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from qmonitor import evolve, linalg, model

import oracles
from conftest import (
    ALL_MODEL_NAMES, all_models, cycle, cycle_trace, gammas, kernel, start_rows, taus,
)

TAU_GRID = [k * np.pi / 8 for k in range(9)] + [0.7, 2.3]
DATA = Path(__file__).parent / "data"


class TestCycle:
    def test_zeno_frozen(self, single_qubit):
        rho0 = oracles.initial_density(single_qubit)
        out = cycle(rho0, single_qubit, 0.0)
        assert np.max(np.abs(out - rho0)) < 1e-14

    def test_half_pi_splits_evenly(self, single_qubit):
        rho0 = oracles.initial_density(single_qubit)
        out = cycle(rho0, single_qubit, np.pi / 2)
        # |<0|U|0>|^2 = cos^2(pi/4) = 1/2
        assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-14

    def test_full_depolarization(self, bell):
        rho0 = oracles.initial_density(bell)
        out = cycle(rho0, bell, 1.234, gamma=1.0)
        assert np.max(np.abs(out - np.eye(4) / 4)) < 1e-14

    def test_dimension_mismatch(self, bell):
        with pytest.raises(ValueError, match="mismatch"):
            cycle(np.eye(2) / 2, bell, 0.5)

    def test_gamma_range(self, single_qubit):
        rho0 = oracles.initial_density(single_qubit)
        with pytest.raises(ValueError, match="gamma"):
            cycle(rho0, single_qubit, 0.5, gamma=1.5)

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    @given(tau=taus, gamma=gammas)
    @settings(max_examples=25, deadline=None)
    def test_unitality(self, m, tau, gamma):
        mixed = np.eye(m.dim, dtype=complex) / m.dim
        out = cycle(mixed, m, tau, gamma)
        assert np.max(np.abs(out - mixed)) < 1e-14

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    @pytest.mark.parametrize("tau", [0.7, np.pi / 4])
    def test_output_is_valid_density(self, m, tau):
        rho = oracles.initial_density(m)
        for _ in range(5):
            rho = cycle(rho, m, tau, gamma=0.05)
        oracles.check_density(rho)

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_state_diagonal_in_measurement_basis(self, m, tau):
        rho = cycle(oracles.initial_density(m), m, tau)
        w = linalg.rotate_matrix(rho, m.basis.v)
        off = w - np.diag(np.diag(w))
        assert np.max(np.abs(off)) < 1e-12


class TestRunExact:
    def test_bell_initial_row(self, bell):
        trace = evolve.run_exact(bell, [0.9], 0)[0]
        assert np.max(np.abs(trace[0] - [0.5, 0.0, 0.5, 0.0])) < 1e-15

    def test_singlet_triplet_initial_row(self, singlet_triplet):
        trace = evolve.run_exact(singlet_triplet, [0.9], 0)[0]
        assert np.array_equal(trace[0], [1.0, 0.0, 0.0, 0.0])

    def test_single_qubit_two_cycles(self, single_qubit):
        trace = evolve.run_exact(single_qubit, [np.pi / 3], 2)[0]
        mag = trace[2, 0] - trace[2, 1]
        assert abs(mag - np.cos(np.pi / 3) ** 2) < 1e-13

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_matches_markov_engine(self, m, tau):
        n_max = 24
        exact = evolve.run_exact(m, [tau], n_max)[0]
        p0 = oracles.born_probabilities(m.initial_state, m.basis)
        chain = evolve.propagate(kernel(m, tau), start_rows(p0, n_max))
        assert np.max(np.abs(exact - chain)) < 1e-12

    def test_singlet_component_stays_tiny(self, singlet_triplet):
        trace = evolve.run_exact(singlet_triplet, [0.8], 40)[0]
        assert np.max(np.abs(trace[:, 2])) < 1e-12

    def test_rejects_negative_n(self, single_qubit):
        with pytest.raises(ValueError):
            evolve.run_exact(single_qubit, [0.5], -1)


class TestRunExactMatchesCycle:
    """run_exact advances the first-cycle distribution with the kernel and the
    depolarizing channel, in measurement coordinates; the computational-coordinate
    cycle, iterated one density matrix at a time, is its independent reference."""

    ORACLE_TAUS = [0.0, 0.4, 1.3, np.pi]
    N_MAX = 12

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    @pytest.mark.parametrize(
        "name",
        [*ALL_MODEL_NAMES, "chain_dim8_seed67", "chain_dim16_seed0", "ring3_complex"],
    )
    def test_rows_match_iterated_cycle(self, name, gamma):
        path = DATA / f"{name}.json"
        m = model.build_model(str(path) if path.exists() else name)
        traces = evolve.run_exact(m, self.ORACLE_TAUS, self.N_MAX, gamma)
        for tau, trace in zip(self.ORACLE_TAUS, traces):
            assert np.max(np.abs(trace - cycle_trace(m, tau, self.N_MAX, gamma))) <= 1e-12


class TestNoisyClosedForm:
    def test_gamma_zero_is_identity(self, bell):
        trace = evolve.run_exact(bell, [0.7, 2.1], 10)
        assert np.array_equal(evolve.noisy_closed_form(trace.copy(), 0.0), trace)

    def test_one_step_by_hand(self):
        trace = np.array([[[1.0, 0, 0, 0], [1.0, 0, 0, 0]]])
        out = evolve.noisy_closed_form(trace, 0.12)
        assert out is trace  # folded in place
        # 0.88 * 1 + 0.12/4 = 0.91 on the leading entry
        assert abs(out[0, 1, 0] - 0.91) < 1e-15
        assert np.max(np.abs(out[0, 1, 1:] - 0.03)) < 1e-15

    def test_long_time_mixes_to_uniform(self, singlet_triplet):
        out = evolve.noisy_closed_form(evolve.run_exact(singlet_triplet, [0.7], 60), 0.12)
        # survival (0.88)^60 ~ 4.7e-4 bounds the distance from 1/4
        assert np.max(np.abs(out[0, 60] - 0.25)) < 5e-4

    def test_rows_still_sum_to_one(self, bell):
        out = evolve.noisy_closed_form(evolve.run_exact(bell, [1.9, 0.4], 30), 0.37)
        assert np.max(np.abs(out.sum(axis=2) - 1.0)) < 1e-12

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    @pytest.mark.parametrize("tau", TAU_GRID)
    @pytest.mark.parametrize("gamma", [0.033, 0.12])
    def test_iterated_noise_matches_closed_form(self, m, tau, gamma):
        n_max = 24
        iterated = cycle_trace(m, tau, n_max, gamma)
        folded = evolve.noisy_closed_form(evolve.run_exact(m, [tau], n_max, 0.0), gamma)
        assert np.max(np.abs(iterated - folded)) < 1e-12

    @given(tau=taus, gamma=gammas)
    @settings(max_examples=30, deadline=None)
    def test_commuting_noise_property(self, tau, gamma):
        m = model.two_qubit_model("bell")
        iterated = cycle_trace(m, tau, 12, gamma)
        folded = evolve.noisy_closed_form(evolve.run_exact(m, [tau], 12, 0.0), gamma)
        assert np.max(np.abs(iterated - folded)) < 1e-12


class TestRhoInBasis:
    """linalg.rotate_matrix between the two coordinates, as render --kind rho_grid uses it."""

    def test_mixed_state_invariant(self, bell):
        mixed = np.eye(4, dtype=complex) / 4
        for v in (bell.basis.v, linalg.adjoint(bell.basis.v)):
            out = linalg.rotate_matrix(mixed, v)
            assert np.max(np.abs(out - mixed)) < 1e-14

    def test_partial_limit_in_computational_basis(self, singlet_triplet):
        # (|psi_0><psi_0| + |psi_1><psi_1| + |psi_3><psi_3|)/3 by hand:
        # diag(1/3, 1/6, 1/6, 1/3) with 1/6 on the (01,10) coherences
        rho_meas = np.diag(np.array([1 / 3, 1 / 3, 0.0, 1 / 3], dtype=complex))
        got = linalg.rotate_matrix(rho_meas, linalg.adjoint(singlet_triplet.basis.v))
        expected = np.diag([1 / 3, 1 / 6, 1 / 6, 1 / 3]).astype(complex)
        expected[1, 2] = expected[2, 1] = 1 / 6
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_diagonal_equals_projector_sum(self, bell):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        rho_meas = np.diag(probs.astype(complex))
        got = linalg.rotate_matrix(rho_meas, linalg.adjoint(bell.basis.v))
        expected = sum(p * oracles.projector(bell.basis, k) for k, p in enumerate(probs))
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_round_trip(self, singlet_triplet):
        rho = cycle(oracles.initial_density(singlet_triplet), singlet_triplet, 0.9)
        there = linalg.rotate_matrix(rho, singlet_triplet.basis.v)
        back = linalg.rotate_matrix(there, linalg.adjoint(singlet_triplet.basis.v))
        assert np.max(np.abs(back - rho)) < 1e-13

    def test_spectrum_preserved(self, bell):
        rho = cycle(oracles.initial_density(bell), bell, 0.8, gamma=0.2)
        w = linalg.rotate_matrix(rho, bell.basis.v)
        a = linalg.eig_hermitian(rho).eigenvalues
        b = linalg.eig_hermitian(w).eigenvalues
        assert np.max(np.abs(a - b)) < 1e-12


class TestCheckDensity:
    def test_accepts_valid(self, bell):
        oracles.check_density(oracles.initial_density(bell))

    def test_rejects_traceless(self):
        with pytest.raises(ValueError, match="trace"):
            oracles.check_density(np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            oracles.check_density(bad)
