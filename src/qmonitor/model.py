"""Concrete experiment families: Hamiltonian, measurement basis, initial state.

Three built-in models are provided: a single qubit rotating about x and
measured along z, and two non-interacting rotating qubits measured either in
the singlet-triplet basis or in the Bell basis. Custom models load from JSON.

Basis convention: column k of ``MeasurementBasis.v`` holds the k-th
measurement state written in computational coordinates, so the projector onto
outcome k is v_k v_k^dagger = V |k><k| V^dagger. This one orientation is used
everywhere; tests pin it against the known matrix elements of the two-qubit
models.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import Literal, NamedTuple

import numpy as np

from . import linalg
from .traces import check_labels

BasisKind = Literal["singlet_triplet", "bell"]

_SQ2 = np.sqrt(2.0)

# An off-diagonal entry h_kk' of V^dag H V couples outcomes k and k' when
# |h_kk'| > COUPLING_TOL * max(1, max|h_ij|): rounding in the rotation grows with
# the size of H, as in linalg.require_hermitian, so the blocks do not depend on
# the units of H.
COUPLING_TOL = 1e-10


def pauli(which: str) -> np.ndarray:
    """The 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    if which == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if which == "y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if which == "z":
        return np.array([[1, 0], [0, -1]], dtype=complex)
    raise ValueError(f"unknown Pauli axis {which!r}")


class MeasurementBasis(NamedTuple("MeasurementBasis", [
        ("dim", int), ("v", np.ndarray), ("labels", tuple[str, ...])])):
    """An orthonormal measurement basis with human-readable outcome labels."""

    __slots__ = ()

    def __new__(cls, dim: int, v: np.ndarray, labels: tuple[str, ...]):
        v = linalg.as_matrix(v)
        if v.shape[0] != dim:
            raise ValueError("basis matrix does not match dim")
        if len(labels) != dim:
            raise ValueError("need one label per basis state")
        if not linalg.is_unitary(v):
            raise ValueError("basis matrix is not unitary")
        return super().__new__(cls, dim, v, check_labels(tuple(str(s) for s in labels)))


class Model(NamedTuple("Model", [("dim", int), ("hamiltonian", np.ndarray),
                                 ("basis", MeasurementBasis), ("initial_state", np.ndarray)])):
    """A Hamiltonian, a measurement basis, and an initial pure state.

    The fields cannot be reassigned. The blocks of V^dag H V and its spectral
    decomposition, the only one any propagator is built from, are computed
    on first use and cached in the instance's ``__dict__``, so every tau of
    a sweep and every command step shares them; each instance has its own
    cache, and a model rebuilt from the same arrays computes them again. The
    arrays stay writable: changing ``hamiltonian`` or ``basis.v`` in place
    after first use is unsupported, because the cached values would go stale.
    """

    def __new__(cls, dim: int, hamiltonian: np.ndarray, basis: MeasurementBasis,
                initial_state: np.ndarray):
        h = linalg.require_hermitian(hamiltonian)  # within 1e-12 max(1, max|H_ij|)
        if h.shape[0] != dim or basis.dim != dim:
            raise ValueError("inconsistent dimensions")
        # By Gershgorin every eigenvalue of V^dag H V is at most dim * max|H_ij|, so
        # this keeps every sum in V^dag H V and every phase lambda tau (tau <= 2 pi) finite.
        scale = 4.0 * math.pi * dim * float(np.max(np.abs(h)))
        if not math.isfinite(scale):
            raise ValueError(f"Hamiltonian entries overflow: 4 pi dim max|H_ij| = {scale}")
        psi = np.asarray(initial_state, dtype=complex).reshape(-1)
        if psi.shape[0] != dim:
            raise ValueError("initial state has wrong length")
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"initial state is not normalized (norm {norm})")
        return super().__new__(cls, dim, h, basis, psi)

    @cached_property
    def _measurement_hamiltonian(self) -> np.ndarray:
        """hamiltonian_in_basis(self), read-only."""
        h = hamiltonian_in_basis(self)
        h.flags.writeable = False
        return h

    @cached_property
    def hamiltonian_blocks(self) -> tuple[tuple[int, ...], ...]:
        """``detect_blocks`` of V^dag H V: the outcome sets that H and the measurement share."""
        return detect_blocks(self._measurement_hamiltonian)

    @cached_property
    def measurement_eig(self) -> linalg.HermitianEig:
        """Decomposition of V^dag H V, the Hamiltonian in measurement coordinates.

        Assembled block by block over ``hamiltonian_blocks``. The eigenpairs
        come grouped by block: column k is supported on the block that
        contains outcome k, and every entry outside that block is an exact
        zero. A 1x1 block is its own eigenpair; only larger blocks reach
        ``linalg.eig_hermitian``.
        """
        h = self._measurement_hamiltonian
        eigenvalues = np.real(np.diag(h)).copy()
        eigenvectors = np.eye(self.dim, dtype=complex)
        for block in self.hamiltonian_blocks:
            if len(block) > 1:
                dec = linalg.eig_hermitian(h[np.ix_(block, block)])
                eigenvalues[list(block)] = dec.eigenvalues
                eigenvectors[np.ix_(block, block)] = dec.eigenvectors
        return linalg.HermitianEig(eigenvalues=eigenvalues, eigenvectors=eigenvectors)

    @cached_property
    def initial_distribution(self) -> np.ndarray:
        """Born distribution p0[k] = |<phi_k|psi>|^2 of the initial state, read-only."""
        p0 = np.abs(linalg.adjoint(self.basis.v) @ self.initial_state) ** 2
        p0.flags.writeable = False
        return p0


def computational_basis(dim: int) -> MeasurementBasis:
    width = max(1, (dim - 1).bit_length())
    labels = tuple(format(k, f"0{width}b") for k in range(dim))
    return MeasurementBasis(dim=dim, v=np.eye(dim, dtype=complex), labels=labels)


def single_qubit_model() -> Model:
    """Qubit rotating about x (H = sigma_x / 2), measured along z, starting in |0>."""
    h = 0.5 * pauli("x")
    return Model(
        dim=2,
        hamiltonian=h,
        basis=computational_basis(2),
        initial_state=np.array([1.0, 0.0], dtype=complex),
    )


def _two_qubit_hamiltonian() -> np.ndarray:
    sx = pauli("x")
    eye = np.eye(2, dtype=complex)
    return 0.5 * (np.kron(sx, eye) + np.kron(eye, sx))


def singlet_triplet_basis() -> MeasurementBasis:
    # columns: |00>, (|01>+|10>)/sqrt2, (|10>-|01>)/sqrt2 (singlet), |11>
    v = np.array(
        [
            [1, 0, 0, 0],
            [0, 1 / _SQ2, -1 / _SQ2, 0],
            [0, 1 / _SQ2, 1 / _SQ2, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    return MeasurementBasis(dim=4, v=v, labels=("psi_0", "psi_1", "psi_2", "psi_3"))


def bell_basis() -> MeasurementBasis:
    # columns: the four Bell states (|00>+|11>, |01>+|10>, |00>-|11>, |01>-|10>)/sqrt2
    v = (
        np.array(
            [
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [0, 1, 0, -1],
                [1, 0, -1, 0],
            ],
            dtype=complex,
        )
        / _SQ2
    )
    return MeasurementBasis(dim=4, v=v, labels=("beta_0", "beta_1", "beta_2", "beta_3"))


def two_qubit_model(basis_kind: BasisKind) -> Model:
    """Two non-interacting rotating qubits starting in |00>, measured in an entangled basis."""
    if basis_kind == "singlet_triplet":
        basis = singlet_triplet_basis()
    elif basis_kind == "bell":
        basis = bell_basis()
    else:
        raise ValueError(f"unknown basis kind {basis_kind!r}")
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    return Model(dim=4, hamiltonian=_two_qubit_hamiltonian(), basis=basis, initial_state=psi0)


def hamiltonian_in_basis(m: Model) -> np.ndarray:
    """The Hamiltonian expressed in measurement coordinates: V^dag H V.

    Uses the FMA-free rotation so that decoupled (dark) rows and columns come
    out as exact zeros rather than O(eps) dust.
    """
    return linalg.rotate_matrix(m.hamiltonian, m.basis.v)


def detect_blocks(h_in_basis: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Connected components of the coupling graph (k != k', see COUPLING_TOL).

    Each component is a sorted tuple of indices, and the components are
    ordered by their first index (``linalg.components``). Singleton
    components are allowed; the partition always covers all indices.
    """
    size = np.abs(linalg.as_matrix(h_in_basis))
    return linalg.components(size > COUPLING_TOL * max(1.0, float(np.max(size))))[0]


def _complex_array(obj, name: str) -> np.ndarray:
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad {name!r} entry in model file: {exc}") from exc
    if re.shape != im.shape:
        raise ValueError(f"{name!r}: re and im shapes differ")
    return re + 1j * im


def model_from_dict(spec: dict) -> Model:
    """Build a custom model from a parsed JSON object.

    Expected keys: ``hamiltonian`` and ``basis`` as {"re": [[..]], "im": [[..]]}
    (im optional), ``initial_state`` as {"re": [..], "im": [..]}, and an
    optional ``labels`` list of one string per basis state.
    """
    h = _complex_array(spec["hamiltonian"], "hamiltonian")
    if h.ndim != 2:
        raise ValueError(f"'hamiltonian' must be a 2-D matrix, got shape {h.shape}")
    dim = h.shape[0]
    if "basis" in spec:
        v = _complex_array(spec["basis"], "basis")
    else:
        v = np.eye(dim, dtype=complex)
    labels = spec.get("labels", list(computational_basis(dim).labels))
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise ValueError(f"'labels' must be a list of {dim} strings")
    psi = _complex_array(spec["initial_state"], "initial_state").reshape(-1)
    basis = MeasurementBasis(dim=dim, v=v, labels=tuple(labels))
    return Model(dim=dim, hamiltonian=h, basis=basis, initial_state=psi)


def model_from_file(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model file {path}: invalid JSON ({exc})") from exc
    if not isinstance(spec, dict):
        raise ValueError(f"model file {path}: expected a JSON object")
    try:
        return model_from_dict(spec)
    except KeyError as exc:
        raise ValueError(f"model file {path}: missing key {exc}") from exc


def build_model(name: str) -> Model:
    """Resolve a built-in model name or a path to a custom model JSON file."""
    if name == "single_qubit":
        return single_qubit_model()
    if name == "two_qubit_singlet_triplet":
        return two_qubit_model("singlet_triplet")
    if name == "two_qubit_bell":
        return two_qubit_model("bell")
    return model_from_file(name)
