import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmonitor import evolve, markov, model

from conftest import all_models, start_rows, taus

TAU_GRID = [k * np.pi / 8 for k in range(9)] + [0.7, 1.234]


def kernel(m, tau):
    return markov.build_transition_matrix(m, tau)


class TestBuildTransitionMatrix:
    def test_single_qubit_form(self, single_qubit):
        tau = 0.7
        l = kernel(single_qubit, tau).l
        c2, s2 = np.cos(tau / 2) ** 2, np.sin(tau / 2) ** 2
        assert np.max(np.abs(l - [[c2, s2], [s2, c2]])) < 1e-14

    def test_singlet_triplet_form(self, singlet_triplet):
        tau = 0.9
        l = kernel(singlet_triplet, tau).l
        row0 = [
            np.cos(tau / 2) ** 4,
            np.sin(tau) ** 2 / 2,
            0.0,
            np.sin(tau / 2) ** 4,
        ]
        assert np.max(np.abs(l[0] - row0)) < 1e-14
        assert l[2, 2] == 1.0
        assert np.array_equal(l[2], [0.0, 0.0, 1.0, 0.0])

    def test_bell_form(self, bell):
        tau = 1.1
        l = kernel(bell, tau).l
        c2, s2 = np.cos(tau) ** 2, np.sin(tau) ** 2
        assert np.max(np.abs(l[:2, :2] - [[c2, s2], [s2, c2]])) < 1e-14
        assert np.array_equal(l[2], [0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(l[3], [0.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_doubly_stochastic_symmetric(self, m, tau):
        l = kernel(m, tau).l
        assert np.max(np.abs(l.sum(axis=0) - 1.0)) < 1e-12
        assert np.max(np.abs(l.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(l - l.T)) < 1e-12
        assert l.min() >= -1e-12 and l.max() <= 1.0 + 1e-12

    def test_validation_rejects_asymmetric(self):
        # doubly stochastic but not symmetric (cyclic shuffle)
        mat = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        with pytest.raises(ValueError, match="symmetric"):
            markov.TransitionMatrix(l=mat, tau=0.1)

    def test_validation_rejects_bad_sums(self):
        with pytest.raises(ValueError, match="sum"):
            markov.TransitionMatrix(l=np.array([[0.5, 0.4], [0.4, 0.5]]), tau=0.1)

    @pytest.mark.parametrize(
        "mat",
        [np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 1.0]])],
        ids=["nan", "inf"],
    )
    def test_validation_rejects_non_finite(self, mat):
        # NaN compares false against every tolerance, so only isfinite catches it
        with pytest.raises(ValueError, match="finite"):
            markov.TransitionMatrix(l=mat, tau=0.0)


class TestSpectrum:
    def test_single_qubit(self, single_qubit):
        tau = 0.7
        spec = markov.spectrum(kernel(single_qubit, tau))
        assert np.allclose(spec.eigenvalues, [1.0, np.cos(tau)], atol=1e-13)
        s = 1 / np.sqrt(2)
        assert np.allclose(spec.eigenvectors[:, 0], [s, s], atol=1e-13)
        assert np.allclose(np.abs(spec.eigenvectors[:, 1]), [s, s], atol=1e-13)

    def test_singlet_triplet(self, singlet_triplet):
        tau = 0.7
        spec = markov.spectrum(kernel(singlet_triplet, tau))
        expected = np.sort([1.0, 1.0, np.cos(tau), (1 + 3 * np.cos(2 * tau)) / 4])[::-1]
        assert np.allclose(spec.eigenvalues, expected, atol=1e-13)
        v3 = spec.eigenvectors[:, 3]
        ref = np.array([1.0, -2.0, 0.0, 1.0]) / np.sqrt(6)
        assert min(np.max(np.abs(v3 - ref)), np.max(np.abs(v3 + ref))) < 1e-12

    def test_bell(self, bell):
        tau = 0.7
        spec = markov.spectrum(kernel(bell, tau))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0, np.cos(2 * tau)], atol=1e-13)

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_uniform_vector_in_unit_eigenspace(self, m, tau):
        l = kernel(m, tau)
        u = np.full(m.dim, 1.0 / np.sqrt(m.dim))
        assert np.max(np.abs(l.l @ u - u)) < 1e-12

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_spectrum_bounds(self, m, tau):
        spec = markov.spectrum(kernel(m, tau))
        assert spec.eigenvalues.max() <= 1.0 + 1e-12
        assert spec.eigenvalues.min() >= -1.0 - 1e-12
        assert abs(spec.eigenvalues[0] - 1.0) < 1e-12


class TestPower:
    def test_zero_is_identity(self, single_qubit):
        assert np.array_equal(markov.power(kernel(single_qubit, 0.7), 0), np.eye(2))

    def test_one_is_kernel(self, bell):
        l = kernel(bell, 0.9)
        assert np.max(np.abs(markov.power(l, 1) - l.l)) < 1e-12

    def test_single_qubit_cube(self, single_qubit):
        # repeated-multiplication oracle gives (1 + cos^3(pi/3))/2 = 0.5625
        l = kernel(single_qubit, np.pi / 3)
        got = markov.power(l, 3)
        assert abs(got[0, 0] - 0.5625) < 1e-12

    def test_negative_rejected(self, single_qubit):
        with pytest.raises(ValueError):
            markov.power(kernel(single_qubit, 0.7), -1)

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    @pytest.mark.parametrize("tau", [0.0, 0.7, np.pi / 4, np.pi / 2, np.pi, 2.1])
    def test_against_repeated_multiplication(self, m, tau):
        l = kernel(m, tau)
        ref = np.eye(m.dim)
        for n in range(1, 65):
            ref = ref @ l.l
            if n in (1, 2, 3, 5, 8, 16, 33, 64):
                assert np.max(np.abs(markov.power(l, n) - ref)) < 1e-10

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    def test_rows_sum_to_one(self, m):
        got = markov.power(kernel(m, 1.3), 17)
        assert np.max(np.abs(got.sum(axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(got.sum(axis=0) - 1.0)) < 1e-10


class TestPropagate:
    def test_singlet_component_exactly_zero(self, singlet_triplet):
        for tau in (0.3, 0.7, np.pi / 4, 2.5):
            l = kernel(singlet_triplet, tau).l
            trace = markov.propagate(l, start_rows([1, 0, 0, 0], 64))
            assert np.array_equal(trace[:, 2], np.zeros(65))

    def test_bell_frozen_components(self, bell):
        p0 = [0.5, 0.0, 0.5, 0.0]
        for tau in (0.3, 0.7, 1.9):
            trace = markov.propagate(kernel(bell, tau).l, start_rows(p0, 64))
            assert np.all(trace[:, 2] == 0.5)
            assert np.array_equal(trace[:, 3], np.zeros(65))

    def test_single_qubit_resonance(self, single_qubit):
        trace = markov.propagate(kernel(single_qubit, np.pi).l, start_rows([1, 0], 8))
        signs = (-1.0) ** np.arange(9)
        mag = trace[:, 0] - trace[:, 1]
        assert np.max(np.abs(mag - signs)) < 1e-12

    def test_rejects_mismatched_shapes(self, single_qubit):
        l = markov.first_cycle(single_qubit, [0.3, 0.7])[1]
        with pytest.raises(ValueError, match="does not match"):
            markov.propagate(l, start_rows([1.0, 0.0], 3))
        with pytest.raises(ValueError, match="does not match"):
            markov.propagate(l[0], start_rows([1.0, 0.0, 0.0], 3))

    def test_rejects_bad_p0(self, single_qubit):
        l = kernel(single_qubit, 0.7).l
        with pytest.raises(ValueError):
            markov.propagate(l, start_rows([0.7, 0.7], 3))
        with pytest.raises(ValueError):
            markov.propagate(l, start_rows([1.2, -0.2], 3))

    @pytest.mark.parametrize(
        "l, p0",
        [
            (np.full((2, 2), np.nan), [1.0, 0.0]),
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), [1.0, 0.0]),
            (np.eye(2), [np.nan, 1.0]),
            (np.eye(2), [np.inf, 0.0]),
        ],
        ids=["nan-kernel", "inf-kernel", "nan-p0", "inf-p0"],
    )
    def test_rejects_non_finite(self, l, p0):
        with pytest.raises(ValueError, match="finite"):
            markov.propagate(l, start_rows(p0, 2))


class TestClassify:
    def blocks_for(self, m):
        return model.detect_blocks(model.hamiltonian_in_basis(m))

    def test_single_qubit_generic(self, single_qubit):
        rep = markov.classify(kernel(single_qubit, 0.7), self.blocks_for(single_qubit))
        assert rep.kind == markov.KIND_INFINITE_TEMPERATURE
        assert rep.multiplicity_of_one == 1

    def test_singlet_triplet_partial(self, singlet_triplet):
        rep = markov.classify(kernel(singlet_triplet, np.pi / 4), self.blocks_for(singlet_triplet))
        assert rep.kind == markov.KIND_PARTIAL
        assert rep.multiplicity_of_one == 2
        assert rep.blocks.blocks == ((0, 1, 3), (2,))

    def test_bell_partial(self, bell):
        rep = markov.classify(kernel(bell, 0.7), self.blocks_for(bell))
        assert rep.kind == markov.KIND_PARTIAL
        assert rep.multiplicity_of_one == 3
        assert rep.blocks.blocks == ((0, 1), (2,), (3,))

    def test_single_qubit_resonant(self, single_qubit):
        rep = markov.classify(kernel(single_qubit, np.pi), self.blocks_for(single_qubit))
        assert rep.kind == markov.KIND_OSCILLATORY
        assert rep.has_minus_one

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    def test_frozen_at_tau_zero(self, m):
        rep = markov.classify(kernel(m, 0.0), self.blocks_for(m))
        assert rep.kind == markov.KIND_FROZEN

    def test_frozen_at_two_pi(self, single_qubit):
        # levels +-1/2: the propagator returns to (-1) * identity at tau = 2 pi
        rep = markov.classify(kernel(single_qubit, 2 * np.pi), self.blocks_for(single_qubit))
        assert rep.kind == markov.KIND_FROZEN

    def test_resonant_tau_terminates_with_valid_report(self, singlet_triplet):
        # at tau = pi an extra unit eigenvalue and a -1 coexist
        rep = markov.classify(kernel(singlet_triplet, np.pi), self.blocks_for(singlet_triplet))
        assert rep.kind == markov.KIND_OSCILLATORY
        assert rep.multiplicity_of_one >= 2

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    def test_multiplicity_matches_block_count_generic(self, m):
        rep = markov.classify(kernel(m, 0.7), self.blocks_for(m))
        assert rep.multiplicity_of_one == len(self.blocks_for(m).blocks)


class TestStationaryLimit:
    def test_singlet_triplet(self, singlet_triplet):
        got = markov.stationary_limit(kernel(singlet_triplet, np.pi / 4), [1, 0, 0, 0])
        assert np.max(np.abs(got - [1 / 3, 1 / 3, 0.0, 1 / 3])) < 1e-12

    def test_bell(self, bell):
        got = markov.stationary_limit(kernel(bell, np.pi / 5), [0.5, 0, 0.5, 0])
        assert np.max(np.abs(got - [0.25, 0.25, 0.5, 0.0])) < 1e-12

    def test_oscillatory_has_no_limit(self, single_qubit):
        assert markov.stationary_limit(kernel(single_qubit, np.pi), [1, 0]) is None

    def test_frozen_returns_p0(self, bell):
        got = markov.stationary_limit(kernel(bell, 0.0), [0.5, 0, 0.5, 0])
        assert np.max(np.abs(got - [0.5, 0.0, 0.5, 0.0])) < 1e-12

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    def test_matches_long_propagation(self, m):
        tau = 0.7
        l = kernel(m, tau)
        p0 = evolve.born_probabilities(m.initial_state, m.basis)
        limit = markov.stationary_limit(l, p0)
        long_run = markov.propagate(l.l, start_rows(p0, 400))[-1]
        assert np.max(np.abs(limit - long_run)) < 1e-10


@given(taus, st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_propagate_rows_are_distributions(tau, n):
    m = model.two_qubit_model("bell")
    l = markov.build_transition_matrix(m, tau).l
    trace = markov.propagate(l, start_rows([0.5, 0, 0.5, 0], n))
    assert trace.shape == (n + 1, 4)
    assert trace.min() >= -1e-12
    assert np.max(np.abs(trace.sum(axis=1) - 1.0)) <= 1e-12
