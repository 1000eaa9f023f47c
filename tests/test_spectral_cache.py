"""Each model is diagonalized once, each grid is analyzed in one pass, and reuse is exact."""

import numpy as np
import pytest

from qmonitor import cli, linalg, markov, model

import oracles
from conftest import ALL_MODEL_NAMES, three_level_model

TAUS = [0.0, 0.3, 1.234, np.pi / 2, np.pi, 5.9]


MODELS = [model.build_model(name) for name in ALL_MODEL_NAMES] + [three_level_model()]


@pytest.mark.parametrize("m", MODELS, ids=[*ALL_MODEL_NAMES, "three_level"])
class TestCachedPropagators:
    def test_measurement_basis_is_bitwise_the_reference(self, m):
        h_meas = model.hamiltonian_in_basis(m)
        for tau in TAUS:
            cached = linalg.unitary_from_eig(m.measurement_eig, tau)
            assert np.array_equal(cached, oracles.unitary_from_hamiltonian(h_meas, tau))

    def test_a_second_access_returns_the_cached_object(self, m):
        assert m.measurement_eig is m.measurement_eig
        assert m.initial_distribution is m.initial_distribution


def count_calls(monkeypatch, module, name, argv):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    assert cli.main([str(a) for a in argv]) == 0
    return len(calls)


class TestDiagonalizeOnce:
    def test_analyze_diagonalizes_the_model_once(self, tmp_path, monkeypatch):
        argv = ["analyze", "--model", "two_qubit_bell", "--tau-count", 17, "--out", tmp_path]
        assert count_calls(monkeypatch, linalg, "eig_hermitian", argv) == 1

    @pytest.mark.parametrize(
        "name", ["build_transition_matrix", "spectrum", "classify", "stationary_limit"]
    )
    def test_analyze_runs_each_stack_step_once(self, tmp_path, monkeypatch, name):
        argv = ["analyze", "--model", "two_qubit_bell", "--tau-count", 17, "--out", tmp_path]
        assert count_calls(monkeypatch, markov, name, argv) == 1

    def test_analyze_rotates_the_hamiltonian_and_finds_its_blocks_once(self, tmp_path,
                                                                        monkeypatch):
        calls = []
        components = linalg.components

        def counting(support):
            if support.ndim == 2:  # the Hamiltonian's; classify passes a stack of kernels
                calls.append("components")
            return components(support)

        monkeypatch.setattr(linalg, "components", counting)
        argv = ["analyze", "--model", "two_qubit_bell", "--tau-count", 17, "--out", tmp_path]
        assert count_calls(monkeypatch, model, "hamiltonian_in_basis", argv) == 1
        assert calls == ["components"]

    def test_exact_sweep_diagonalizes_once(self, tmp_path, monkeypatch):
        argv = ["simulate", "--engine", "exact", "--tau-count", 17, "--out", tmp_path]
        assert count_calls(monkeypatch, linalg, "eig_hermitian", argv) == 1


class TestPropagatorOncePerGridPoint:
    """Every engine builds the U(tau) of the whole grid in one batched call."""

    # the sample run adds one batched call for its max_abs_dev_from_exact reference
    @pytest.mark.parametrize("engine, calls", [("markov", 1), ("sample", 1 + 1)])
    def test_per_point_engines_build_one_propagator_per_point(
        self, tmp_path, monkeypatch, engine, calls
    ):
        argv = ["simulate", "--engine", engine, "--tau-count", 33, "--shots", 64,
                "--out", tmp_path]
        assert count_calls(monkeypatch, linalg, "unitary_from_eig", argv) == calls

    def test_exact_engine_builds_the_grid_at_once(self, tmp_path, monkeypatch):
        argv = ["simulate", "--engine", "exact", "--tau-count", 33, "--out", tmp_path]
        assert count_calls(monkeypatch, linalg, "unitary_from_eig", argv) == 1

    def test_analyze_builds_the_grid_at_once(self, tmp_path, monkeypatch):
        argv = ["analyze", "--model", "two_qubit_bell", "--tau-count", 17, "--out", tmp_path]
        assert count_calls(monkeypatch, linalg, "unitary_from_eig", argv) == 1

    def test_fit_noise_builds_the_grid_at_once(self, tmp_path, monkeypatch):
        sim = ["simulate", "--model", "two_qubit_bell", "--engine", "markov", "--tau-count", 17,
               "--gamma", 0.05, "--out", tmp_path]
        assert cli.main([str(a) for a in sim]) == 0
        argv = ["fit-noise", tmp_path / "two_qubit_bell_markov.csv", "--model", "two_qubit_bell",
                "--out", tmp_path]
        assert count_calls(monkeypatch, linalg, "unitary_from_eig", argv) == 1
