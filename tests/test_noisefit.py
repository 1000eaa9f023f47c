import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from qmonitor import evolve, noisefit, sample

from conftest import gammas

TAU_GRID_33 = [k * math.pi / 32 for k in range(33)]


def exact_average(m, taus, n_max, gamma=0.0):
    """The tau-average of the exact trace of m over the grid taus."""
    return noisefit.tau_average(evolve.run_exact(m, taus, n_max, gamma), taus)


class TestTauAverage:
    def test_constant_trace(self):
        values = np.full((3, 5, 4), 0.25)
        avg = noisefit.tau_average(values, (0.0, 1.0, math.pi))
        assert avg.shape == (5, 4)
        assert np.max(np.abs(avg - 0.25)) < 1e-15

    def test_single_qubit_cos_squared(self, single_qubit):
        # (1/pi) integral of cos^2 = 1/2, so the n=2 row averages to 3/4
        avg = exact_average(single_qubit, TAU_GRID_33, 4)
        assert abs(avg[2, 0] - 0.75) < 1e-12

    def test_row_zero_is_tau_independent(self, bell):
        avg = exact_average(bell, TAU_GRID_33, 3)
        assert np.max(np.abs(avg[0] - [0.5, 0.0, 0.5, 0.0])) < 1e-12

    def test_blocks_are_taken_in_tau_order(self, bell):
        values = evolve.run_exact(bell, TAU_GRID_33, 6)
        order = np.random.default_rng(5).permutation(33)
        shuffled = noisefit.tau_average(values[order], np.array(TAU_GRID_33)[order])
        assert np.array_equal(shuffled, noisefit.tau_average(values, TAU_GRID_33))

    def test_requires_coverage(self, single_qubit):
        with pytest.raises(ValueError, match="cover"):
            exact_average(single_qubit, [0.0, 1.0], 2)
        with pytest.raises(ValueError, match="two"):
            exact_average(single_qubit, [0.0], 2)
        with pytest.raises(ValueError, match="empty"):
            noisefit.tau_average(np.empty((0, 3, 2)), [])

    @given(gammas)
    @settings(max_examples=20, deadline=None)
    def test_commutes_with_noise_folding(self, gamma):
        m_taus = TAU_GRID_33[::4]
        from qmonitor.model import two_qubit_model

        m = two_qubit_model("bell")
        noiseless = evolve.run_exact(m, m_taus, 8)
        avg_then_noise = noisefit.tau_average(
            evolve.noisy_closed_form(noiseless.copy(), gamma), m_taus
        )
        noise_then_avg = evolve.noisy_closed_form(
            noisefit.tau_average(noiseless, m_taus)[None], gamma
        )[0]
        assert np.max(np.abs(avg_then_noise - noise_then_avg)) < 1e-12


class TestFitGamma:
    @pytest.mark.parametrize("gamma_true", [0.01, 0.05, 0.1, 0.2, 0.5])
    def test_noiseless_round_trip(self, singlet_triplet, gamma_true):
        taus = TAU_GRID_33[::2]
        n_max = 20
        measured = exact_average(singlet_triplet, taus, n_max, gamma_true)
        reference = exact_average(singlet_triplet, taus, n_max, 0.0)
        fit = noisefit.fit_gamma(measured, reference, (1, n_max))
        assert abs(fit.gamma - gamma_true) < 1e-6
        assert fit.residual_sum_sq < 1e-12

    def test_zero_gamma(self, bell):
        taus = TAU_GRID_33[::4]
        avg = exact_average(bell, taus, 12)
        fit = noisefit.fit_gamma(avg, avg, (1, 12))
        assert fit.gamma < 1e-6
        assert fit.residual_sum_sq < 1e-12

    def test_monte_carlo_round_trip(self, singlet_triplet):
        gamma_true, n_max = 0.12, 24
        taus = [k * math.pi / 16 for k in range(17)]
        frequencies = [
            sample.run_shots(singlet_triplet, [tau], n_max, gamma_true, shots=8192, seed=300 + i)[0]
            for i, tau in enumerate(taus)
        ]
        avg = noisefit.tau_average(np.array(frequencies), taus)
        reference = exact_average(singlet_triplet, taus, n_max, 0.0)
        fit = noisefit.fit_gamma(avg, reference, (1, n_max))
        assert abs(fit.gamma - gamma_true) < 0.01

    def test_unidentifiable_uniform_model(self):
        flat = np.full((6, 4), 0.25)
        with pytest.raises(noisefit.UnidentifiableDataError):
            noisefit.fit_gamma(flat, flat, (1, 5))

    def test_rejects_empty_range(self, bell):
        avg = exact_average(bell, TAU_GRID_33[::4], 6)
        with pytest.raises(ValueError):
            noisefit.fit_gamma(avg, avg, (5, 3))

    def test_fit_reports_range_and_timescale(self, bell):
        taus = TAU_GRID_33[::4]
        measured = exact_average(bell, taus, 15, 0.033)
        reference = exact_average(bell, taus, 15, 0.0)
        fit = noisefit.fit_gamma(measured, reference, (1, 15))
        assert fit.fitted_on == (1, 15)
        assert abs(fit.n_noise - noisefit.noise_timescale(fit.gamma)) < 1e-9


class TestNoiseTimescale:
    def test_values(self):
        assert 7.5 <= noisefit.noise_timescale(0.12) <= 8.2
        assert 29.0 <= noisefit.noise_timescale(0.033) <= 31.0

    def test_exact_point(self):
        assert abs(noisefit.noise_timescale(1.0 - 1.0 / math.e) - 1.0) < 1e-12

    def test_rejects_edges(self):
        with pytest.raises(ValueError):
            noisefit.noise_timescale(0.0)
        with pytest.raises(ValueError):
            noisefit.noise_timescale(1.0)


class TestTiming:
    def test_twenty_four_one(self):
        layers = noisefit.LayerCount(20, 4, 1)
        assert noisefit.cycle_duration(layers) == 2.712

    def test_ten_two_one(self):
        assert noisefit.cycle_duration(noisefit.LayerCount(10, 2, 1)) == 1.708

    def test_measurement_only(self):
        assert noisefit.cycle_duration(noisefit.LayerCount(0, 0, 1)) == 0.704

    def test_seven_single_qubit_layers(self):
        # 7 * 35 + 704 = 949 ns
        assert noisefit.cycle_duration(noisefit.LayerCount(7, 0, 1)) == 0.949

    def test_linear_in_layers(self):
        base = noisefit.cycle_duration(noisefit.LayerCount(5, 2, 1))
        plus_1q = noisefit.cycle_duration(noisefit.LayerCount(6, 2, 1))
        plus_cnot = noisefit.cycle_duration(noisefit.LayerCount(5, 3, 1))
        assert abs(plus_1q - base - 0.035) < 1e-12
        assert abs(plus_cnot - base - 0.327) < 1e-12

    def test_layer_count_validation(self):
        with pytest.raises(ValueError):
            noisefit.LayerCount(1, 1, 0)
        with pytest.raises(ValueError):
            noisefit.LayerCount(-1, 1, 1)


class TestDecayRate:
    def test_values_round_as_expected(self):
        assert round(noisefit.decay_rate(0.12, 2.712), 2) == 0.04
        assert round(noisefit.decay_rate(0.033, 1.708), 2) == 0.02

    def test_zero_gamma(self):
        assert noisefit.decay_rate(0.0, 1.7) == 0.0

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            noisefit.decay_rate(0.1, 0.0)


class TestHardwareProfile:
    def test_default_values(self):
        hw = noisefit.DEFAULT_HARDWARE
        assert hw.dur_1q_ns == 35.0
        assert hw.dur_cnot_ns == 327.0
        assert hw.dur_readout_ns == 704.0

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "hw.json"
        path.write_text(
            json.dumps(
                {
                    "dur_1q_ns": 40,
                    "dur_cnot_ns": 300,
                    "dur_readout_ns": 650,
                    # a full device characterization: the fields below are ignored
                    "err_1q": 2e-4,
                    "err_cnot": 6.8e-3,
                    "err_readout": 0.01,
                    "t1_us": {"q0": 90.0},
                    "t2_us": {"q0": 110.0},
                }
            )
        )
        hw = noisefit.hardware_profile_from_file(path)
        assert hw == noisefit.HardwareProfile(
            dur_1q_ns=40.0, dur_cnot_ns=300.0, dur_readout_ns=650.0
        )
        layers = noisefit.LayerCount(1, 1, 1)
        assert abs(noisefit.cycle_duration(layers, hw) - 0.990) < 1e-12

    def test_rejects_bad_file(self, tmp_path):
        path = tmp_path / "hw.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            noisefit.hardware_profile_from_file(path)
        path.write_text(json.dumps({"dur_1q_ns": 35}))
        with pytest.raises(ValueError):
            noisefit.hardware_profile_from_file(path)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            noisefit.HardwareProfile(0.0, 327.0, 704.0)
