import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmonitor import analytic, evolve, model

import oracles
from conftest import kernel, start_rows, taus

GRID_TAU = [k * np.pi / 40 for k in range(41)]
GRID_N = range(33)


class TestMagnetization:
    def test_frozen_at_tau_zero(self):
        for n in (0, 1, 5, 32):
            assert analytic.magnetization_single_qubit(n, 0.0) == 1.0

    def test_half_pi(self):
        assert analytic.magnetization_single_qubit(1, np.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_resonance_alternates(self):
        assert analytic.magnetization_single_qubit(5, np.pi) == pytest.approx(-1.0)
        assert analytic.magnetization_single_qubit(6, np.pi) == pytest.approx(1.0)

    def test_zero_power_convention(self):
        # 0^0 = 1: matches the zero-cycle identity kernel
        assert analytic.magnetization_single_qubit(0, np.pi / 2) == 1.0

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            analytic.magnetization_single_qubit(-1, 0.5)


class TestSingletTriplet:
    def test_n_zero(self):
        for tau in (0.0, 0.3, np.pi / 2, 3.0):
            assert np.array_equal(analytic.probs_singlet_triplet(0, tau), [1, 0, 0, 0])

    def test_one_cycle_half_pi(self):
        got = analytic.probs_singlet_triplet(1, np.pi / 2)
        assert np.max(np.abs(got - [0.25, 0.5, 0.0, 0.25])) < 1e-15

    def test_long_time_third(self):
        got = analytic.probs_singlet_triplet(60, np.pi / 4)
        assert np.max(np.abs(got - [1 / 3, 1 / 3, 0.0, 1 / 3])) < 1e-6

    @given(st.integers(min_value=0, max_value=200), taus)
    @settings(max_examples=100, deadline=None)
    def test_singlet_always_zero_and_normalized(self, n, tau):
        got = analytic.probs_singlet_triplet(n, tau)
        assert got[2] == 0.0
        assert abs(got.sum() - 1.0) < 1e-12
        assert got.min() >= -1e-12


class TestBell:
    def test_n_zero(self):
        for tau in (0.0, 0.9, 2.2):
            assert np.array_equal(analytic.probs_bell(0, tau), [0.5, 0.0, 0.5, 0.0])

    def test_frozen_components(self):
        for n in (0, 1, 7, 30):
            got = analytic.probs_bell(n, 1.234)
            assert got[2] == 0.5 and got[3] == 0.0

    def test_two_cycles_third_pi(self):
        got = analytic.probs_bell(2, np.pi / 3)
        assert abs(got[0] - 0.3125) < 1e-15  # (1 + cos^2(2pi/3))/4

    @given(st.integers(min_value=0, max_value=200), taus)
    @settings(max_examples=100, deadline=None)
    def test_normalized(self, n, tau):
        got = analytic.probs_bell(n, tau)
        assert abs(got.sum() - 1.0) < 1e-12


class TestLimitProbs:
    def test_singlet_triplet_generic(self):
        got = oracles.limit_probs("singlet_triplet", 0.9)
        assert np.allclose(got, [1 / 3, 1 / 3, 0.0, 1 / 3])

    def test_singlet_triplet_even_multiple(self):
        assert np.array_equal(
            oracles.limit_probs("singlet_triplet", 0.0), [1.0, 0.0, 0.0, 0.0]
        )
        assert np.array_equal(
            oracles.limit_probs("singlet_triplet", 2 * np.pi), [1.0, 0.0, 0.0, 0.0]
        )

    def test_singlet_triplet_odd_multiple(self):
        assert oracles.limit_probs("singlet_triplet", np.pi) is None
        assert np.array_equal(
            oracles.limit_probs("singlet_triplet", np.pi, parity="odd"), [0, 0, 0, 1]
        )
        assert np.array_equal(
            oracles.limit_probs("singlet_triplet", np.pi, parity="even"), [1, 0, 0, 0]
        )

    def test_bell_generic(self):
        assert np.allclose(oracles.limit_probs("bell", 0.9), [0.25, 0.25, 0.5, 0.0])

    def test_bell_pi_multiples(self):
        assert np.array_equal(oracles.limit_probs("bell", np.pi), [0.5, 0.0, 0.5, 0.0])

    def test_bell_half_pi(self):
        assert oracles.limit_probs("bell", np.pi / 2) is None
        assert np.array_equal(
            oracles.limit_probs("bell", np.pi / 2, parity="even"), [0.5, 0.0, 0.5, 0.0]
        )
        assert np.array_equal(
            oracles.limit_probs("bell", np.pi / 2, parity="odd"), [0.0, 0.5, 0.5, 0.0]
        )

    def test_limits_match_closed_form_at_large_n(self):
        for tau in (0.31, 1.1, 2.4):
            lim = oracles.limit_probs("bell", tau)
            far = analytic.probs_bell(4000, tau)
            assert np.max(np.abs(lim - far)) < 1e-6

    def test_unknown_inputs(self):
        with pytest.raises(ValueError):
            oracles.limit_probs("single_qubit", 0.5)
        with pytest.raises(ValueError):
            oracles.limit_probs("bell", 0.5, parity="prime")


class TestOracleEquivalence:
    """Closed forms against both numerical engines on the full grid."""

    @pytest.mark.parametrize("name", analytic.CLOSED_FORMS)
    def test_grid_agreement(self, name):
        m = model.build_model(name)
        n_max = max(GRID_N)
        for tau in GRID_TAU:
            closed = analytic.closed_form_trace(name, [tau], n_max)[0]
            exact = evolve.run_exact(m, [tau], n_max)[0]
            p0 = oracles.born_probabilities(m.initial_state, m.basis)
            chain = evolve.propagate(kernel(m, tau), start_rows(p0, n_max))
            assert np.max(np.abs(closed - chain)) < 1e-10
            assert np.max(np.abs(closed - exact)) < 1e-10

    def test_magnetization_matches_markov(self, single_qubit):
        for tau in GRID_TAU:
            chain = evolve.propagate(kernel(single_qubit, tau), start_rows([1.0, 0.0], 32))
            mags = chain[:, 0] - chain[:, 1]
            expected = [analytic.magnetization_single_qubit(n, tau) for n in GRID_N]
            assert np.max(np.abs(mags - expected)) < 1e-12


def test_closed_form_trace_shape():
    trace = analytic.closed_form_trace("two_qubit_bell", [0.7, 1.1, 2.0], 16)
    assert trace.shape == (3, 17, 4)
    with pytest.raises(ValueError):
        analytic.closed_form_trace("ghz", [0.7], 16)
    # the closed forms are keyed by the built-in model names only
    with pytest.raises(ValueError):
        analytic.closed_form_trace("bell", [0.7], 16)


@pytest.mark.parametrize("name", analytic.CLOSED_FORMS)
def test_the_grid_is_the_per_point_closed_form_bit_for_bit(name):
    # powers come from Python's float power; numpy's SIMD pow can differ in the last bit
    taus = np.linspace(0.0, np.pi, 65)
    func = analytic.CLOSED_FORMS[name]
    grid = analytic.closed_form_trace(name, taus, 128)
    per_point = np.array([[func(n, tau) for n in range(129)] for tau in taus.tolist()])
    assert grid.tobytes() == per_point.tobytes()
    dim = per_point.shape[-1]
    assert func(range(3), [0.1, 0.2, 0.3, 0.4]).shape == (4, 3, dim)
    assert func(range(3), 0.1).shape == (3, dim)
    assert func(2, [0.1, 0.2]).shape == (2, dim)
    with pytest.raises(ValueError, match="n must be >= 0"):
        func([0, -1], 0.1)
