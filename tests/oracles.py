"""Reference helpers that only the tests use.

Each one is an independent oracle or a convenience the package itself has
no use for: a propagator built from a fresh decomposition of H, the Born law
and the density matrix of a pure state, a density matrix validator, the large-n limits of the
two-qubit models, outcome projectors in computational coordinates, a
per-shot sampler, the magnetization of a two-state count block, and the
scalar hex colour of the render ramp, a breadth-first search for the blocks
of a coupling matrix, and a line-by-line trace CSV parser.
"""

from __future__ import annotations

import csv
import math
from typing import Literal

import numpy as np

from qmonitor import evolve, linalg, render, traces
from qmonitor.model import MeasurementBasis, Model

Parity = Literal["even", "odd", "generic"]

PSD_TOL = -1e-10
RESONANCE_TOL = 1e-9


def unitary_from_hamiltonian(h: np.ndarray, tau: float) -> np.ndarray:
    """Propagator exp(-i h tau) (hbar = 1), built from the eigenbasis of h."""
    return linalg.unitary_from_eig(linalg.eig_hermitian(h), tau)


def born_probabilities(psi: np.ndarray, basis: MeasurementBasis) -> np.ndarray:
    """Outcome distribution |<phi_k|psi>|^2 of a pure state."""
    amps = linalg.adjoint(basis.v) @ np.asarray(psi, dtype=complex).reshape(-1)
    return np.abs(amps) ** 2


def initial_density(m: Model) -> np.ndarray:
    """The pure-state density matrix of the model's initial state."""
    psi = m.initial_state
    return np.outer(psi, np.conj(psi))


def check_density(rho: np.ndarray, trace_tol: float = 1e-12) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity (up to solver noise)."""
    rho = linalg.require_hermitian(rho)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace is {tr}, expected 1")
    eigs = linalg.eig_hermitian(rho).eigenvalues
    if float(np.min(eigs)) < PSD_TOL:
        raise ValueError(f"negative eigenvalue {np.min(eigs):.3e}")
    return rho


def projector(basis: MeasurementBasis, k: int) -> np.ndarray:
    """Rank-one projector onto outcome k, in computational coordinates."""
    col = basis.v[:, k]
    return np.outer(col, np.conj(col))


def ramp_color(x: float) -> str:
    """Hex color for x in [0, 1], clipped."""
    return "#%06x" % render.ramp_codes(x)


def reference_color(x) -> str:
    """One cell's colour the scalar way: clip, interpolate, round half to even."""
    ramp = render.RAMP
    x = min(1.0, max(0.0, float(x)))
    pos = x * (len(ramp) - 1)
    i = min(int(pos), len(ramp) - 2)
    frac = pos - i
    rgb = tuple(
        int(round(ramp[i][c] + frac * (ramp[i + 1][c] - ramp[i][c]))) for c in range(3)
    )
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def empirical_magnetization(counts: np.ndarray) -> np.ndarray:
    """Per-cycle population imbalance P[:, 0] - P[:, 1] of a two-state count block."""
    if counts.shape[1] != 2:
        raise ValueError("magnetization is defined for two-state systems only")
    return (counts[:, 0] - counts[:, 1]) / counts[0].sum()


def walk_shots(m, tau: float, n_max: int, gamma: float, *, shots: int, seed: int) -> np.ndarray:
    """Per-shot reference sampler: counts[n, k] from walking every shot.

    Each shot measures the bare initial state (row 0, an independent draw),
    then per cycle flips a depolarizing coin: with probability gamma the
    outcome is a uniformly random basis index, otherwise it is drawn from the
    first-cycle distribution p1 (cycle 1) or from the kernel row of the
    previous outcome. The stream is numpy's default generator, unrelated to
    run_shots' Philox stream, so the two samplers agree only in law.
    """
    rng = np.random.default_rng([seed, 0])
    dim = m.dim
    cum_p0 = np.cumsum(born_probabilities(m.initial_state, m.basis))
    p1, l = evolve.first_cycle(m, [tau])
    cum_p1, cum_rows = np.cumsum(p1[0]), np.cumsum(l[0], axis=1)

    def pick(cum, u):
        return min(int(np.searchsorted(cum, u, side="right")), dim - 1)

    counts = np.zeros((n_max + 1, dim), dtype=np.int64)
    for u in rng.random((shots, 1 + 2 * n_max)):
        counts[0, pick(cum_p0, u[0])] += 1
        k = -1
        for n in range(1, n_max + 1):
            u_noise, u_out = u[2 * n - 1], u[2 * n]
            if u_noise < gamma:
                k = min(int(u_out * dim), dim - 1)
            else:
                k = pick(cum_p1 if k < 0 else cum_rows[k], u_out)
            counts[n, k] += 1
    return counts


def _resonance_class(tau: float, step: float) -> int | None:
    """Index p of the nearest multiple p*step within RESONANCE_TOL, else None."""
    p = round(tau / step)
    if abs(tau - p * step) <= RESONANCE_TOL:
        return int(p)
    return None


def limit_probs(model_kind: str, tau: float, parity: Parity = "generic") -> np.ndarray | None:
    """Large-n outcome probabilities of the two-qubit models, or None if divergent.

    At resonant tau (multiples of pi, and of pi/2 for the Bell case) the
    distribution alternates with the parity of n; passing parity 'even' or
    'odd' selects a subsequence limit, while 'generic' reports divergence
    (None) where the plain limit does not exist.
    """
    if parity not in ("even", "odd", "generic"):
        raise ValueError(f"unknown parity {parity!r}")
    if model_kind == "singlet_triplet":
        p = _resonance_class(tau, math.pi)
        if p is None:
            return np.array([1 / 3, 1 / 3, 0.0, 1 / 3])
        if p % 2 == 0:
            return np.array([1.0, 0.0, 0.0, 0.0])
        # odd multiple of pi: hops between psi_0 and psi_3
        if parity == "even":
            return np.array([1.0, 0.0, 0.0, 0.0])
        if parity == "odd":
            return np.array([0.0, 0.0, 0.0, 1.0])
        return None
    if model_kind == "bell":
        p = _resonance_class(tau, math.pi / 2.0)
        if p is None:
            return np.array([0.25, 0.25, 0.5, 0.0])
        if p % 2 == 0:
            return np.array([0.5, 0.0, 0.5, 0.0])
        # odd multiple of pi/2: hops between beta_0 and beta_1
        if parity == "even":
            return np.array([0.5, 0.0, 0.5, 0.0])
        if parity == "odd":
            return np.array([0.0, 0.5, 0.5, 0.0])
        return None
    raise ValueError(f"no closed-form limits for model kind {model_kind!r}")


def bfs_blocks(h: np.ndarray, threshold: float) -> tuple[tuple[int, ...], ...]:
    """Connected components of |h_kk'| > threshold for a symmetric |h|, one search per component.

    Each component is a sorted tuple, and the components come in order of
    their first index.
    """
    h = np.asarray(h)
    n = h.shape[0]
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and i != j and abs(h[i, j]) > threshold:
                    seen[j] = True
                    stack.append(j)
        blocks.append(tuple(sorted(comp)))
    return tuple(blocks)


def read_trace_rows(path) -> tuple[list[str], list[float], np.ndarray]:
    """(labels, taus, values) of a trace CSV parsed line by line with the csv module.

    Rows are grouped by tau, in the order the taus first appear, and
    columns past the outcomes are ignored. Raises traces.DataError naming
    the first line with too few columns, a tau or value that float()
    rejects, an n that int() rejects, or an n out of turn in its tau's
    block; then for blocks of unequal length, and for any block that
    check_trace rejects. Header checks are left to the reader.
    """
    per_tau: dict[float, list[list[float]]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)[2:]
        n_states = next((k for k, c in enumerate(columns) if c.startswith("stderr_")),
                        len(columns))
        for lineno, row in enumerate(reader, start=2):
            if len(row) < 2 + n_states:
                raise traces.DataError(f"{path}:{lineno}: too few columns")
            try:
                tau, n = float(row[0]), int(row[1])
                vals = [float(x) for x in row[2 : 2 + n_states]]
            except ValueError as exc:
                raise traces.DataError(f"{path}:{lineno}: {exc}") from exc
            rows = per_tau.setdefault(tau, [])
            if n != len(rows):
                raise traces.DataError(f"{path}:{lineno}: n values must be contiguous from 0")
            rows.append(vals)
    if not per_tau:
        raise traces.DataError(f"{path}: no data rows")
    if len({len(rows) for rows in per_tau.values()}) != 1:
        raise traces.DataError(f"{path}: tau blocks have differing n ranges")
    taus, values = list(per_tau), np.array(list(per_tau.values()), dtype=float)
    try:
        traces.check_trace(values, taus)
    except ValueError as exc:
        raise traces.DataError(f"{path}: {exc}") from exc
    return columns[:n_states], taus, values
