from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from qmonitor import evolve, markov, model

import oracles
from conftest import ALL_MODEL_NAMES, all_models, kernel, start_rows, taus

DATA = Path(__file__).parent / "data"
TAU_GRID = [k * np.pi / 8 for k in range(9)] + [0.7, 1.234]
TAU_CHIRAL = 4 * np.pi / (3 * np.sqrt(3))


FIXTURES = ("chain_dim8_seed67", "chain_dim16_seed0", "ring3_complex", "ring3_chiral")


def lazy_walk(dim, edges):
    """Symmetric doubly stochastic kernel that moves 1/4 of the mass across each edge."""
    l = np.eye(dim)
    for a, b in edges:
        l[[a, b, a, b], [a, b, b, a]] += [-0.25, -0.25, 0.25, 0.25]
    return l


def report(m, tau):
    return markov.classify(kernel(m, tau)[None])[0]


def limit(m, tau, p0):
    return markov.stationary_limit([report(m, tau)], p0)[0]


class TestBuildTransitionMatrix:
    def test_single_qubit_form(self, single_qubit):
        tau = 0.7
        l = kernel(single_qubit, tau)
        c2, s2 = np.cos(tau / 2) ** 2, np.sin(tau / 2) ** 2
        assert np.max(np.abs(l - [[c2, s2], [s2, c2]])) < 1e-14

    def test_singlet_triplet_form(self, singlet_triplet):
        tau = 0.9
        l = kernel(singlet_triplet, tau)
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
        l = kernel(bell, tau)
        c2, s2 = np.cos(tau) ** 2, np.sin(tau) ** 2
        assert np.max(np.abs(l[:2, :2] - [[c2, s2], [s2, c2]])) < 1e-14
        assert np.array_equal(l[2], [0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(l[3], [0.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_doubly_stochastic_symmetric(self, m, tau):
        l = kernel(m, tau)
        assert np.max(np.abs(l.sum(axis=0) - 1.0)) < 1e-12
        assert np.max(np.abs(l.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(l - l.T)) < 1e-12
        assert l.min() >= -1e-12 and l.max() <= 1.0 + 1e-12

    def test_grid_is_the_first_cycle_stack(self, bell):
        grid = [0.0, 0.7, np.pi]
        l = markov.build_transition_matrix(bell, grid)
        assert l.shape == (3, 4, 4)
        assert np.array_equal(l, evolve.first_cycle(bell, grid)[1])

    def test_validation_rejects_bad_sums(self):
        with pytest.raises(ValueError, match="sum"):
            evolve._check_doubly_stochastic(np.array([[0.5, 0.4], [0.4, 0.5]]))

    @pytest.mark.parametrize(
        "mat",
        [np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 1.0]])],
        ids=["nan", "inf"],
    )
    def test_validation_rejects_non_finite(self, mat):
        # NaN compares false against every tolerance, so only isfinite catches it
        with pytest.raises(ValueError, match="finite"):
            evolve._check_doubly_stochastic(mat)


def eigenvalues(m, tau):
    return markov.spectrum(kernel(m, tau)[None])[0]


class TestSpectrum:
    def test_single_qubit(self, single_qubit):
        tau = 0.7
        assert np.allclose(eigenvalues(single_qubit, tau), [1.0, np.cos(tau)], atol=1e-13)

    def test_singlet_triplet(self, singlet_triplet):
        tau = 0.7
        expected = np.sort([1.0, 1.0, np.cos(tau), (1 + 3 * np.cos(2 * tau)) / 4])[::-1]
        assert np.allclose(eigenvalues(singlet_triplet, tau), expected, atol=1e-13)

    def test_bell(self, bell):
        tau = 0.7
        assert np.allclose(eigenvalues(bell, tau), [1.0, 1.0, 1.0, np.cos(2 * tau)], atol=1e-13)

    def test_symmetric_stack_is_real_and_descending(self, bell):
        lam = markov.spectrum(markov.build_transition_matrix(bell, [0.3, 0.7, 2.0]))
        assert lam.shape == (3, 4) and lam.dtype == float
        assert np.all(np.diff(lam, axis=1) <= 0.0)

    def test_chiral_ring_at_resonance_has_the_cube_roots_of_one(self):
        m = model.build_model(str(DATA / "ring3_chiral.json"))
        lam = eigenvalues(m, TAU_CHIRAL)
        roots = [1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)]  # +imag before -imag
        assert np.max(np.abs(lam - roots)) < 1e-12

    def test_non_symmetric_stack_orders_by_real_then_imaginary_part(self):
        m = model.build_model(str(DATA / "ring3_complex.json"))
        l = markov.build_transition_matrix(m, np.linspace(0.1, 6.0, 13))
        lam = markov.spectrum(l)
        assert lam.dtype == complex
        for row, mat in zip(lam, l):
            assert np.allclose(np.sort_complex(row), np.sort_complex(np.linalg.eigvals(mat)))
            keys = list(zip(-row.real, -row.imag))
            assert keys == sorted(keys)

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_uniform_vector_in_unit_eigenspace(self, m, tau):
        l = kernel(m, tau)
        u = np.full(m.dim, 1.0 / np.sqrt(m.dim))
        assert np.max(np.abs(l @ u - u)) < 1e-12

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    @pytest.mark.parametrize("tau", TAU_GRID)
    def test_spectrum_bounds(self, m, tau):
        lam = eigenvalues(m, tau)
        assert lam.max() <= 1.0 + 1e-12
        assert lam.min() >= -1.0 - 1e-12
        assert abs(lam[0] - 1.0) < 1e-12


class TestPropagate:
    def test_singlet_component_exactly_zero(self, singlet_triplet):
        for tau in (0.3, 0.7, np.pi / 4, 2.5):
            l = kernel(singlet_triplet, tau)
            trace = evolve.propagate(l, start_rows([1, 0, 0, 0], 64))
            assert np.array_equal(trace[:, 2], np.zeros(65))

    def test_bell_frozen_components(self, bell):
        p0 = [0.5, 0.0, 0.5, 0.0]
        for tau in (0.3, 0.7, 1.9):
            trace = evolve.propagate(kernel(bell, tau), start_rows(p0, 64))
            assert np.all(trace[:, 2] == 0.5)
            assert np.array_equal(trace[:, 3], np.zeros(65))

    def test_single_qubit_resonance(self, single_qubit):
        trace = evolve.propagate(kernel(single_qubit, np.pi), start_rows([1, 0], 8))
        signs = (-1.0) ** np.arange(9)
        mag = trace[:, 0] - trace[:, 1]
        assert np.max(np.abs(mag - signs)) < 1e-12

    def test_rejects_mismatched_shapes(self, single_qubit):
        l = evolve.first_cycle(single_qubit, [0.3, 0.7])[1]
        with pytest.raises(ValueError, match="does not match"):
            evolve.propagate(l, start_rows([1.0, 0.0], 3))
        with pytest.raises(ValueError, match="does not match"):
            evolve.propagate(l[0], start_rows([1.0, 0.0, 0.0], 3))

    def test_rejects_bad_p0(self, single_qubit):
        l = kernel(single_qubit, 0.7)
        with pytest.raises(ValueError):
            evolve.propagate(l, start_rows([0.7, 0.7], 3))
        with pytest.raises(ValueError):
            evolve.propagate(l, start_rows([1.2, -0.2], 3))

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
            evolve.propagate(l, start_rows(p0, 2))


class TestClassify:
    def test_single_qubit_generic(self, single_qubit):
        rep = report(single_qubit, 0.7)
        assert rep.kind == markov.KIND_INFINITE_TEMPERATURE
        assert rep.classes == ((0, 1),) and rep.periods == (1,)

    def test_singlet_triplet_partial(self, singlet_triplet):
        rep = report(singlet_triplet, np.pi / 4)
        assert rep.kind == markov.KIND_PARTIAL
        assert rep.classes == ((0, 1, 3), (2,))
        assert rep.periods == (1, 1)

    def test_bell_partial(self, bell):
        rep = report(bell, 0.7)
        assert rep.kind == markov.KIND_PARTIAL
        assert rep.classes == ((0, 1), (2,), (3,))

    def test_single_qubit_resonant(self, single_qubit):
        rep = report(single_qubit, np.pi)
        assert rep.kind == markov.KIND_OSCILLATORY
        assert rep.periods == (2,)

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    def test_frozen_at_tau_zero(self, m):
        rep = report(m, 0.0)
        assert rep.kind == markov.KIND_FROZEN

    def test_frozen_at_two_pi(self, single_qubit):
        # levels +-1/2: the propagator returns to (-1) * identity at tau = 2 pi
        rep = report(single_qubit, 2 * np.pi)
        assert rep.kind == markov.KIND_FROZEN

    def test_resonant_tau_terminates_with_valid_report(self, singlet_triplet):
        # at tau = pi a period-2 class and extra fixed states coexist
        rep = report(singlet_triplet, np.pi)
        assert rep.kind == markov.KIND_OSCILLATORY
        assert len(rep.classes) >= 2
        assert 2 in rep.periods

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    def test_classes_match_hamiltonian_blocks_generic(self, m):
        assert report(m, 0.7).classes == model.detect_blocks(model.hamiltonian_in_basis(m))

    @pytest.mark.parametrize("name", [*ALL_MODEL_NAMES, *FIXTURES])
    def test_classes_are_the_components_of_each_symmetrised_support(self, name):
        m = model.build_model(str(DATA / f"{name}.json") if name in FIXTURES else name)
        grids = [np.linspace(0.0, np.pi, count) for count in (17, 33, 129, 257)]
        grids += [np.linspace(0.0, 2 * np.pi, 65), [TAU_CHIRAL, TAU_CHIRAL + 1e-5]]
        l = markov.build_transition_matrix(m, np.concatenate(grids))
        # the reference walks one kernel's symmetrised support at a time
        want = [oracles.bfs_blocks(np.maximum(k, k.T), markov.SUPPORT_TOL) for k in l]
        assert [r.classes for r in markov.classify(l)] == want

    def test_one_call_classifies_the_stack(self, singlet_triplet):
        grid = [0.0, 0.7, np.pi]
        reports = markov.classify(markov.build_transition_matrix(singlet_triplet, grid))
        assert [r.kind for r in reports] == [report(singlet_triplet, t).kind for t in grid]

    @pytest.mark.parametrize(
        "l, classes, periods, kind",
        [
            (np.eye(4)[[1, 2, 0, 3]], ((0, 1, 2), (3,)), (3, 1), markov.KIND_OSCILLATORY),
            ((np.eye(4)[[1, 2, 3, 0]] + np.eye(4)[[3, 0, 1, 2]]) / 2, ((0, 1, 2, 3),), (2,),
             markov.KIND_OSCILLATORY),
            ((np.eye(4)[[1, 2, 3, 0]] + np.eye(4)[[2, 3, 0, 1]]) / 2, ((0, 1, 2, 3),), (1,),
             markov.KIND_INFINITE_TEMPERATURE),
            ((np.ones((3, 3)) - np.eye(3)) / 2, ((0, 1, 2),), (1,),
             markov.KIND_INFINITE_TEMPERATURE),
            (np.kron(np.eye(2), np.full((2, 2), 0.5)), ((0, 1), (2, 3)), (1, 1),
             markov.KIND_PARTIAL),
            # lazy walks along 0-7-1-6-2-5, five edges, which take three squarings to join,
            # and along 3-4
            (lazy_walk(8, [(0, 7), (7, 1), (1, 6), (6, 2), (2, 5), (3, 4)]),
             ((0, 1, 2, 5, 6, 7), (3, 4)), (1, 1), markov.KIND_PARTIAL),
        ],
        ids=["3-cycle", "4-ring-walk", "steps-1-and-2-mod-4", "no-self-loops", "two-blocks",
             "scrambled-path"],
    )
    def test_hand_built_kernels(self, l, classes, periods, kind):
        # without self-loops, returns of lengths 2 and 3 still make a class aperiodic
        rep = markov.classify(l[None])[0]
        assert (rep.classes, rep.periods, rep.kind) == (classes, periods, kind)

    def test_rejects_a_single_kernel(self, single_qubit):
        with pytest.raises(ValueError, match="stack"):
            markov.classify(kernel(single_qubit, 0.7))

    def test_rejects_a_kernel_that_is_not_doubly_stochastic(self):
        with pytest.raises(ValueError, match="sum"):
            markov.classify(np.array([[[0.5, 0.4], [0.4, 0.5]]]))


class TestChiralRing:
    """A 3-site ring with hopping i. At tau* = 4 pi / (3 sqrt 3) its propagator is a
    cyclic shift: the kernel has eigenvalues 1 and e^{+-2 pi i / 3}, no -1, and
    the distribution cycles with period 3."""

    def test_period_three_at_resonance(self):
        m = model.build_model(str(DATA / "ring3_chiral.json"))
        rep = report(m, TAU_CHIRAL)
        assert rep.kind == markov.KIND_OSCILLATORY
        assert rep.classes == ((0, 1, 2),) and rep.periods == (3,)
        assert limit(m, TAU_CHIRAL, [1.0, 0.0, 0.0]) is None

    def test_distribution_cycles(self):
        m = model.build_model(str(DATA / "ring3_chiral.json"))
        trace = evolve.propagate(kernel(m, TAU_CHIRAL), start_rows([1.0, 0.0, 0.0], 6))
        assert np.max(np.abs(trace[3] - trace[0])) < 1e-12
        assert np.max(np.abs(trace[6] - trace[0])) < 1e-12
        assert np.max(np.abs(trace[1] - trace[0])) > 0.99


class TestStationaryLimit:
    def test_singlet_triplet(self, singlet_triplet):
        got = limit(singlet_triplet, np.pi / 4, [1, 0, 0, 0])
        assert np.max(np.abs(got - [1 / 3, 1 / 3, 0.0, 1 / 3])) < 1e-12

    def test_bell(self, bell):
        got = limit(bell, np.pi / 5, [0.5, 0, 0.5, 0])
        assert np.max(np.abs(got - [0.25, 0.25, 0.5, 0.0])) < 1e-12

    def test_oscillatory_has_no_limit(self, single_qubit):
        assert limit(single_qubit, np.pi, [1, 0]) is None

    def test_frozen_returns_p0(self, bell):
        got = limit(bell, 0.0, [0.5, 0, 0.5, 0])
        assert np.max(np.abs(got - [0.5, 0.0, 0.5, 0.0])) < 1e-12

    def test_rejects_wrong_length(self, bell):
        with pytest.raises(ValueError, match="length"):
            limit(bell, 0.7, [1.0, 0.0])

    @pytest.mark.parametrize("m", all_models(), ids=lambda m: f"dim{m.dim}")
    def test_matches_long_propagation(self, m):
        tau = 0.7
        p0 = oracles.born_probabilities(m.initial_state, m.basis)
        long_run = evolve.propagate(kernel(m, tau), start_rows(p0, 400))[-1]
        assert np.max(np.abs(limit(m, tau, p0) - long_run)) < 1e-10


@given(taus, st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_propagate_rows_are_distributions(tau, n):
    m = model.two_qubit_model("bell")
    trace = evolve.propagate(kernel(m, tau), start_rows([0.5, 0, 0.5, 0], n))
    assert trace.shape == (n + 1, 4)
    assert trace.min() >= -1e-12
    assert np.max(np.abs(trace.sum(axis=1) - 1.0)) <= 1e-12


# (modulus, phase) of one coupling
_couplings = st.tuples(
    st.floats(min_value=0.1, max_value=2.0), st.floats(min_value=0.0, max_value=2.0 * np.pi)
)


@st.composite
def block_models(draw):
    """Models of dim 2..8 whose H couples outcomes only within random blocks.

    The basis is computational, so each drawn block is a block of V^dag H V.
    Every coupling has modulus at least 0.1, so no kernel entry is small
    merely because a coupling is; real models take phases 0 and pi only.
    """
    n = draw(st.integers(min_value=2, max_value=8))
    labels = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
    real = draw(st.booleans())
    h = np.diag(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))).astype(complex)
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                r, phase = draw(_couplings)
                if real:
                    h[i, j] = r if np.cos(phase) >= 0.0 else -r
                else:
                    h[i, j] = r * np.exp(1j * phase)
                h[j, i] = np.conj(h[i, j])
    psi = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)))
    psi = psi[:n] + 1j * psi[n:]
    norm = np.linalg.norm(psi)
    assume(norm > 0.1)
    return model.Model(
        dim=n, hamiltonian=h, basis=model.computational_basis(n), initial_state=psi / norm
    )


@given(block_models(), taus)
@settings(max_examples=200, deadline=None)
def test_classes_conserve_mass_and_give_the_limit(m, tau):
    p1, l = evolve.first_cycle(m, [tau])
    # Near a resonance (tau = 1e-9, say) entries at most SUPPORT_TOL fall out of the
    # support while their amplitudes, up to sqrt(SUPPORT_TOL), still move mass in p1:
    # the classes hold to 1e-12 only where the support has a gap around the threshold.
    assume(not np.any((l > 1e-26) & (l <= markov.SUPPORT_TOL)))
    rep = markov.classify(l)[0]
    assert sorted(k for c in rep.classes for k in c) == list(range(m.dim))
    assert len(rep.periods) == len(rep.classes) and min(rep.periods) >= 1

    p0 = oracles.born_probabilities(m.initial_state, m.basis)
    masses = markov.class_masses(rep.classes, p0)
    assert np.max(np.abs(np.subtract(markov.class_masses(rep.classes, p1[0]), masses))) <= 1e-12

    # L^1000 has converged when every non-unit eigenvalue has modulus at most 0.95
    moduli = np.sort(np.abs(markov.spectrum(l)[0]))[::-1]
    converged = len(rep.classes) == m.dim or moduli[len(rep.classes)] <= 0.95
    event(f"stationary checked: {rep.kind != markov.KIND_OSCILLATORY and converged}")
    if rep.kind != markov.KIND_OSCILLATORY and converged:
        far = p0 @ np.linalg.matrix_power(l[0], 1000)
        assert np.max(np.abs(markov.stationary_limit([rep], p0)[0] - far)) <= 1e-12
