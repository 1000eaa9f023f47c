import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmonitor import linalg, model

import oracles

S = 1.0 / np.sqrt(2.0)


def test_pauli_matrices():
    assert np.array_equal(model.pauli("z"), np.diag([1.0 + 0j, -1.0]))
    assert np.array_equal(model.pauli("x"), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(model.pauli("y"), np.array([[0, -1j], [1j, 0]]))
    with pytest.raises(ValueError):
        model.pauli("w")


class TestSingleQubitModel:
    def test_hamiltonian(self, single_qubit):
        h = single_qubit.hamiltonian
        assert h[0, 1] == 0.5 and h[1, 0] == 0.5
        assert h[0, 0] == 0.0 and h[1, 1] == 0.0

    def test_initial_state(self, single_qubit):
        assert np.array_equal(single_qubit.initial_state, [1.0, 0.0])

    def test_computational_basis(self, single_qubit):
        assert np.array_equal(single_qubit.basis.v, np.eye(2))
        assert single_qubit.basis.labels == ("0", "1")


class TestTwoQubitModels:
    def test_singlet_column(self, singlet_triplet):
        # column 2 is the singlet (|10> - |01>)/sqrt(2)
        assert np.allclose(singlet_triplet.basis.v[:, 2], [0.0, -S, S, 0.0])

    def test_bell_first_column(self, bell):
        # column 0 is (|00> + |11>)/sqrt(2)
        assert np.allclose(bell.basis.v[:, 0], [S, 0.0, 0.0, S])

    @pytest.mark.parametrize("kind", ["singlet_triplet", "bell"])
    def test_hamiltonian_spectrum(self, kind):
        m = model.two_qubit_model(kind)
        lam = linalg.eig_hermitian(m.hamiltonian).eigenvalues
        assert np.allclose(lam, [-1.0, 0.0, 0.0, 1.0], atol=1e-13)

    @pytest.mark.parametrize("kind", ["singlet_triplet", "bell"])
    def test_initial_state_is_00(self, kind):
        m = model.two_qubit_model(kind)
        assert np.array_equal(m.initial_state, [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("kind", ["singlet_triplet", "bell"])
    def test_basis_unitary_and_complete(self, kind):
        m = model.two_qubit_model(kind)
        v = m.basis.v
        assert np.max(np.abs(linalg.adjoint(v) @ v - np.eye(4))) < 1e-12
        total = sum(oracles.projector(m.basis, k) for k in range(4))
        assert np.max(np.abs(total - np.eye(4))) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            model.two_qubit_model("ghz")


class TestHamiltonianInBasis:
    def test_single_qubit_unchanged(self, single_qubit):
        got = model.hamiltonian_in_basis(single_qubit)
        assert np.array_equal(got, single_qubit.hamiltonian)

    def test_singlet_triplet_matrix(self, singlet_triplet):
        got = model.hamiltonian_in_basis(singlet_triplet)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = S
        expected[1, 3] = expected[3, 1] = S
        assert np.max(np.abs(got - expected)) < 1e-15

    def test_singlet_is_dark_state(self, singlet_triplet):
        got = model.hamiltonian_in_basis(singlet_triplet)
        assert np.array_equal(got[2, :], np.zeros(4))
        assert np.array_equal(got[:, 2], np.zeros(4))

    def test_bell_matrix(self, bell):
        got = model.hamiltonian_in_basis(bell)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.max(np.abs(got - expected)) < 1e-15
        assert np.array_equal(got[2:, :], np.zeros((2, 4)))
        assert np.array_equal(got[:, 2:], np.zeros((4, 2)))


class TestDetectBlocks:
    def test_singlet_triplet(self, singlet_triplet):
        blocks = model.detect_blocks(model.hamiltonian_in_basis(singlet_triplet))
        assert blocks == ((0, 1, 3), (2,))

    def test_bell(self, bell):
        blocks = model.detect_blocks(model.hamiltonian_in_basis(bell))
        assert blocks == ((0, 1), (2,), (3,))

    def test_single_qubit(self, single_qubit):
        blocks = model.detect_blocks(model.hamiltonian_in_basis(single_qubit))
        assert blocks == ((0, 1),)

    @given(st.integers(min_value=1, max_value=7), st.data())
    @settings(max_examples=50, deadline=None)
    def test_permutation_equivariance(self, n, data):
        # blocks of a permuted coupling matrix are the permuted blocks
        adj = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if data.draw(st.booleans()):
                    adj[i, j] = adj[j, i] = 1.0
        blocks = model.detect_blocks(adj)
        flat = sorted(i for b in blocks for i in b)
        assert flat == list(range(n))

        perm = data.draw(st.permutations(range(n)))
        p = np.eye(n)[list(perm)]
        permuted = model.detect_blocks(p @ adj @ p.T)
        # map original blocks through the permutation: index i moves to perm.index positions
        inv = np.argsort(list(perm))
        mapped = sorted(tuple(sorted(int(inv[i]) for i in b)) for b in blocks)
        assert mapped == sorted(permuted)

    @given(st.integers(min_value=1, max_value=9), st.data())
    @settings(max_examples=100, deadline=None)
    def test_the_blocks_of_the_breadth_first_search(self, n, data):
        # couplings above, at and below the threshold, in a Hermitian matrix
        levels = st.sampled_from([0.0, 1e-12, 1e-10, 2e-10, 0.3j, -1.0])
        h = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i, n):
                h[i, j] = data.draw(levels)
                h[j, i] = np.conj(h[i, j])
        assert model.detect_blocks(h) == oracles.bfs_blocks(h, 1e-10)

    def test_one_call_finds_the_blocks_of_a_stack(self):
        rng = np.random.default_rng(4)
        stack = rng.random((3, 2, 7, 7)) < 0.15
        want = [oracles.bfs_blocks(s | s.T, 0.5) for s in stack.reshape(-1, 7, 7)]
        assert linalg.components(stack) == want

    def test_idempotent(self, singlet_triplet):
        h = model.hamiltonian_in_basis(singlet_triplet)
        assert model.detect_blocks(h) == model.detect_blocks(h)


class TestValidation:
    def test_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            model.Model(
                dim=2,
                hamiltonian=np.array([[0, 1], [0, 0]], dtype=complex),
                basis=model.computational_basis(2),
                initial_state=np.array([1.0, 0.0]),
            )

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_the_hermiticity_gate_scales_with_the_largest_entry(self, scale):
        gate = 1e-12 * max(1.0, scale)
        for defect, accepted in [(0.9 * gate, True), (1.1 * gate, False)]:
            h = scale * model.pauli("x")
            h[0, 1] += defect
            if accepted:
                model.Model(dim=2, hamiltonian=h, basis=model.computational_basis(2),
                            initial_state=np.array([1.0, 0.0]))
            else:
                with pytest.raises(ValueError, match="Hermitian"):
                    model.Model(dim=2, hamiltonian=h, basis=model.computational_basis(2),
                                initial_state=np.array([1.0, 0.0]))

    def test_unnormalized_state(self):
        with pytest.raises(ValueError, match="normalized"):
            model.Model(
                dim=2,
                hamiltonian=model.pauli("z"),
                basis=model.computational_basis(2),
                initial_state=np.array([1.0, 1.0]),
            )

    def test_overflowing_hamiltonian(self):
        # 4 pi dim max|H_ij| must be finite: 4 pi * 2 * 1e308 is not
        with pytest.raises(ValueError, match="overflow"):
            model.Model(
                dim=2,
                hamiltonian=1e308 * model.pauli("x"),
                basis=model.computational_basis(2),
                initial_state=np.array([1.0, 0.0]),
            )

    def test_large_finite_hamiltonian_is_accepted(self):
        m = model.Model(
            dim=2,
            hamiltonian=1e306 * model.pauli("x"),
            basis=model.computational_basis(2),
            initial_state=np.array([1.0, 0.0]),
        )
        assert np.all(np.isfinite(linalg.unitary_from_eig(m.measurement_eig, 2.0 * np.pi)))

    def test_non_unitary_basis(self):
        with pytest.raises(ValueError, match="unitary"):
            model.MeasurementBasis(dim=2, v=np.ones((2, 2)), labels=("a", "b"))


class TestModelFiles:
    def test_round_trip(self, tmp_path, bell):
        spec = {
            "hamiltonian": {
                "re": bell.hamiltonian.real.tolist(),
                "im": bell.hamiltonian.imag.tolist(),
            },
            "basis": {"re": bell.basis.v.real.tolist(), "im": bell.basis.v.imag.tolist()},
            "initial_state": {
                "re": bell.initial_state.real.tolist(),
                "im": bell.initial_state.imag.tolist(),
            },
            "labels": list(bell.basis.labels),
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(spec))
        loaded = model.model_from_file(path)
        assert np.array_equal(loaded.hamiltonian, bell.hamiltonian)
        assert np.array_equal(loaded.basis.v, bell.basis.v)
        assert loaded.basis.labels == bell.basis.labels

    def test_basis_defaults_to_computational(self):
        m = model.model_from_dict(
            {
                "hamiltonian": {"re": [[0.0, 0.5], [0.5, 0.0]]},
                "initial_state": {"re": [1.0, 0.0]},
            }
        )
        assert np.array_equal(m.basis.v, np.eye(2))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            model.model_from_file(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"initial_state": {"re": [1.0, 0.0]}}))
        with pytest.raises(ValueError):
            model.model_from_file(path)

    def test_build_model_names(self):
        for name in ("single_qubit", "two_qubit_singlet_triplet", "two_qubit_bell"):
            assert model.build_model(name).dim in (2, 4)
