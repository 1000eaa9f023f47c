"""The record types are immutable, compare by value and keep their validation messages."""

import inspect

import numpy as np
import pytest

from qmonitor import cli, linalg, markov, model, noisefit


def bell_regime(tau):
    m = model.two_qubit_model("bell")
    return markov.classify(markov.build_transition_matrix(m, [tau]))[0]


# each factory builds a new record; the second entry is a record of the same type that differs
RECORDS = {
    "RunConfig": (lambda: cli.RunConfig(model="two_qubit_bell"), cli.RunConfig()),
    "HermitianEig": (lambda: linalg.eig_hermitian(model.pauli("x")),
                     linalg.eig_hermitian(model.pauli("z"))),
    "MeasurementBasis": (model.bell_basis, model.singlet_triplet_basis()),
    "Model": (model.single_qubit_model, model.two_qubit_model("bell")),
    "RegimeReport": (lambda: bell_regime(0.3), bell_regime(0.0)),
    "NoiseFit": (lambda: noisefit.NoiseFit(gamma=0.1, residual_sum_sq=1e-6, n_noise=9.5,
                                           fitted_on=(1, 20)),
                 noisefit.NoiseFit(gamma=0.1, residual_sum_sq=1e-6, n_noise=9.5,
                                   fitted_on=(0, 20))),
    "HardwareProfile": (lambda: noisefit.HardwareProfile(35.0, 327.0, 704.0),
                        noisefit.HardwareProfile(35.0, 327.0, 705.0)),
    "LayerCount": (lambda: noisefit.LayerCount(n_1q_layers=20, n_cnot_layers=4),
                   noisefit.LayerCount(20, 4, 2)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_no_field_can_be_assigned(name):
    record = RECORDS[name][0]()
    assert type(record).__name__ == name
    for field in inspect.signature(type(record)).parameters:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", ["RunConfig", "RegimeReport", "NoiseFit", "HardwareProfile",
                                  "LayerCount"])
def test_records_of_plain_values_compare_by_value(name):
    build, other = RECORDS[name]
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert first != other
    assert repr(first) == repr(second)


@pytest.mark.parametrize("build, message", [
    (lambda: model.MeasurementBasis(dim=3, v=np.eye(2), labels=("a", "b")),
     "basis matrix does not match dim"),
    (lambda: model.MeasurementBasis(dim=2, v=np.eye(2), labels=("a",)),
     "need one label per basis state"),
    (lambda: model.MeasurementBasis(dim=2, v=np.ones((2, 2)), labels=("a", "b")),
     "basis matrix is not unitary"),
    (lambda: model.MeasurementBasis(dim=2, v=np.eye(2), labels=("a", "a")),
     "outcome labels must be distinct, got ['a', 'a']"),
    (lambda: model.MeasurementBasis(dim=2, v=np.eye(2), labels=("n", "a")),
     "outcome label 'n' is reserved for a CSV column"),
    (lambda: model.Model(dim=2, hamiltonian=np.eye(2), basis=model.computational_basis(2),
                         initial_state=[1.0, 0.0, 0.0]),
     "initial state has wrong length"),
    (lambda: model.Model(dim=2, hamiltonian=np.eye(3), basis=model.computational_basis(2),
                         initial_state=[1.0, 0.0]),
     "inconsistent dimensions"),
    (lambda: model.Model(dim=2, hamiltonian=[[0, 1], [0, 0]], basis=model.computational_basis(2),
                         initial_state=[1.0, 0.0]),
     "matrix is not Hermitian: max |a - a^dag| = 1.000e+00"),
    (lambda: model.Model(dim=2, hamiltonian=1e308 * np.eye(2), basis=model.computational_basis(2),
                         initial_state=[1.0, 0.0]),
     "Hamiltonian entries overflow: 4 pi dim max|H_ij| = inf"),
    (lambda: model.Model(dim=2, hamiltonian=np.eye(2), basis=model.computational_basis(2),
                         initial_state=[0.0, 2.0]),
     "initial state is not normalized (norm 2.0)"),
    (lambda: noisefit.HardwareProfile(35.0, 0.0, 704.0), "dur_cnot_ns must be positive"),
    (lambda: noisefit.HardwareProfile(35.0, 327.0, -1.0), "dur_readout_ns must be positive"),
    (lambda: noisefit.LayerCount(1, -1), "layer counts must be non-negative"),
    (lambda: noisefit.LayerCount(1, 1, 0), "each cycle needs at least one measurement layer"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
