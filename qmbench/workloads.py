"""The benchmark's workloads: CLI commands, seeded inputs and output checks.

A workload is a fixed sequence of ``qmonitor`` commands (operations). Each
operation carries a check that reads what the command wrote and compares it
with an independent numpy reference built here, never with qmonitor code.
Checks use tolerances rather than byte hashes, so a change that moves the
last bits of a float or the layout of the random stream still passes when
the physics is right.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TAU_STOP = math.pi  # the CLI's default grid is [0, pi]


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One CLI process: its arguments, the files it reads, and its output check."""

    argv: list[str]
    reads: list[Path]
    check: Callable[[Path], None]

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    """A sequence of operations on one tau grid of ``tau_points`` points."""

    tau_points: int
    ops: Callable[[Path], list[Op]]


# ---------------------------------------------------------------------------
# numpy references


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _tau_grid(count: int) -> np.ndarray:
    return np.linspace(0.0, TAU_STOP, count)


def _propagator(h: np.ndarray, tau: float) -> np.ndarray:
    lam, w = np.linalg.eigh(h)
    return (w * np.exp(-1j * lam * tau)) @ w.conj().T


def _exact_reference(h, v, psi0, tau: float, n_max: int, gamma: float) -> np.ndarray:
    """Outcome probabilities of the depolarized measure-and-evolve cycle."""
    dim = h.shape[0]
    u = _propagator(h, tau)
    rows = np.empty((n_max + 1, dim))
    rows[0] = np.abs(v.conj().T @ psi0) ** 2
    rho = np.outer(psi0, psi0.conj())
    for n in range(1, n_max + 1):
        rho = u @ rho @ u.conj().T
        pops = np.real(np.diag(v.conj().T @ rho @ v))
        rho = (1.0 - gamma) * ((v * pops) @ v.conj().T) + gamma * np.eye(dim) / dim
        rows[n] = (1.0 - gamma) * pops + gamma / dim
    return rows


def _kernels(h_meas: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Jump kernels L[t, k, k'] = |<k'|U(tau_t)|k>|^2 for a real symmetric h_meas."""
    lam, w = np.linalg.eigh(h_meas)
    phases = np.exp(-1j * np.outer(taus, lam))
    u = np.einsum("ij,tj,kj->tik", w, phases, w)
    return np.abs(np.transpose(u, (0, 2, 1))) ** 2


def _bell_model() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2)
    h = 0.5 * (np.kron(sx, eye) + np.kron(eye, sx))
    v = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]], dtype=complex)
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    return h, v / math.sqrt(2.0), psi0


# ---------------------------------------------------------------------------
# exact_sweep: the density-matrix cycle loop and a large CSV write

EXACT_TAUS, EXACT_N, EXACT_GAMMA = 257, 256, 0.033


def exact_sweep(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    checked = sorted(int(i) for i in rng.choice(EXACT_TAUS, size=5, replace=False))
    h, v, psi0 = _bell_model()
    taus = _tau_grid(EXACT_TAUS)
    reference = {i: _exact_reference(h, v, psi0, taus[i], EXACT_N, EXACT_GAMMA) for i in checked}

    def check(out: Path) -> None:
        header, data = _read_csv(out / "two_qubit_bell_exact.csv")
        require(header == ["tau", "n", "beta_0", "beta_1", "beta_2", "beta_3"], f"header {header}")
        require(data.shape == (EXACT_TAUS * (EXACT_N + 1), 6), f"CSV shape {data.shape}")
        row_err = float(np.max(np.abs(data[:, 2:].sum(axis=1) - 1.0)))
        require(row_err <= 1e-12, f"row sums off by {row_err:.3e}")
        blocks = data.reshape(EXACT_TAUS, EXACT_N + 1, 6)
        for i, ref in reference.items():
            require(abs(blocks[i, 0, 0] - taus[i]) <= 1e-12, f"tau column at index {i}")
            dev = float(np.max(np.abs(blocks[i, :, 2:] - ref)))
            require(dev <= 1e-9, f"tau index {i}: deviation {dev:.3e} from reference")

    def ops(out: Path) -> list[Op]:
        argv = ["simulate", "--model", "two_qubit_bell", "--engine", "exact",
                "--tau-count", str(EXACT_TAUS), "--n-max", str(EXACT_N),
                "--gamma", str(EXACT_GAMMA), "--out", str(out)]
        return [Op(argv, [], check)]

    return Workload(EXACT_TAUS, ops)


# ---------------------------------------------------------------------------
# noise_roundtrip: finite-shot sampling, then the gamma fit on its CSV

NOISE_TAUS, NOISE_N, NOISE_SHOTS, NOISE_GAMMA = 33, 32, 8192, 0.033
GAMMA_TOL = 0.005


def noise_roundtrip(seed: int, work: Path) -> Workload:
    def check_simulate(out: Path) -> None:
        header, data = _read_csv(out / "two_qubit_bell_sample.csv")
        require(len(header) == 2 + 2 * 4, f"header {header}")
        require(data.shape == (NOISE_TAUS * (NOISE_N + 1), 10), f"CSV shape {data.shape}")
        results = _read_json(out / "two_qubit_bell_sample_summary.json")["results"]
        dev, bound = results["max_abs_dev_from_exact"], results["five_sigma_bound"]
        require(math.isclose(bound, 5.0 / math.sqrt(NOISE_SHOTS)), f"five_sigma_bound {bound}")
        require(dev <= bound, f"max_abs_dev_from_exact {dev} exceeds {bound}")

    def check_fit(out: Path) -> None:
        gamma = _read_json(out / "fit_two_qubit_bell.json")["results"]["gamma"]
        require(abs(gamma - NOISE_GAMMA) <= GAMMA_TOL, f"fitted gamma {gamma}")

    def ops(out: Path) -> list[Op]:
        csv_path = out / "two_qubit_bell_sample.csv"
        simulate = ["simulate", "--model", "two_qubit_bell", "--engine", "sample",
                    "--tau-count", str(NOISE_TAUS), "--n-max", str(NOISE_N),
                    "--shots", str(NOISE_SHOTS), "--gamma", str(NOISE_GAMMA),
                    "--seed", str(seed), "--out", str(out)]
        fit = ["fit-noise", str(csv_path), "--model", "two_qubit_bell",
               "--n-fit-range", "1:24", "--layers", "10,2,1", "--out", str(out)]
        return [Op(simulate, [], check_simulate), Op(fit, [csv_path], check_fit)]

    return Workload(NOISE_TAUS, ops)


# ---------------------------------------------------------------------------
# chain_analysis: a seeded dimension-8 model through markov, analyze, render

CHAIN_BLOCKS = (5, 2, 1)
CHAIN_TAUS, CHAIN_N = 129, 256


def chain_model(seed: int) -> dict:
    """A custom model: block-diagonal real H in a random real orthogonal basis.

    In the measurement basis H couples states only within blocks of sizes
    5, 2 and 1; the last state is dark. The initial state is measurement
    state 0, so it carries no coherences in that basis.
    """
    rng = np.random.default_rng(seed)
    dim = sum(CHAIN_BLOCKS)
    h_meas = np.zeros((dim, dim))
    start = 0
    for size in CHAIN_BLOCKS:
        block = rng.uniform(0.2, 1.0, (size, size)) * rng.choice([-1.0, 1.0], (size, size))
        h_meas[start:start + size, start:start + size] = (block + block.T) / 2.0
        start += size
    h_meas[-1, -1] = 0.0
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    v = q * np.sign(np.diag(r))
    h = v @ h_meas @ v.T
    h = (h + h.T) / 2.0
    return {
        "hamiltonian": {"re": h.tolist()},
        "basis": {"re": v.tolist()},
        "initial_state": {"re": v[:, 0].tolist()},
        "labels": [f"s{k}" for k in range(dim)],
    }


def chain_analysis(seed: int, work: Path) -> Workload:
    model_path = work / f"chain_model_seed{seed}.json"
    spec = chain_model(seed)
    with open(model_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    key = model_path.stem
    h = np.array(spec["hamiltonian"]["re"])
    v = np.array(spec["basis"]["re"])
    kernels = _kernels(v.T @ h @ v, _tau_grid(CHAIN_TAUS))
    dim = h.shape[0]
    p = np.zeros((CHAIN_TAUS, dim))
    p[:, 0] = 1.0
    chain = np.empty((CHAIN_TAUS, CHAIN_N + 1, dim))
    chain[:, 0] = p
    for n in range(1, CHAIN_N + 1):
        p = np.einsum("tij,tj->ti", kernels, p)
        chain[:, n] = p
    eigenvalues = np.sort(np.linalg.eigvalsh(kernels), axis=1)[:, ::-1]
    blocks, start = [], 0
    for size in CHAIN_BLOCKS:
        blocks.append(list(range(start, start + size)))
        start += size

    def check_simulate(out: Path) -> None:
        header, data = _read_csv(out / f"{key}_markov.csv")
        require(header == ["tau", "n", *spec["labels"]], f"header {header}")
        require(data.shape == (CHAIN_TAUS * (CHAIN_N + 1), 2 + dim), f"CSV shape {data.shape}")
        dev = float(np.max(np.abs(data[:, 2:] - chain.reshape(-1, dim))))
        require(dev <= 1e-9, f"markov trace deviates by {dev:.3e} from reference")

    def check_analyze(out: Path) -> None:
        results = _read_json(out / f"analyze_{key}.json")["results"]
        require(results["hamiltonian_blocks"] == blocks, f"blocks {results['hamiltonian_blocks']}")
        got = np.array([entry["eigenvalues"] for entry in results["per_tau"]])
        require(got.shape == eigenvalues.shape, f"eigenvalue array shape {got.shape}")
        dev = float(np.max(np.abs(got - eigenvalues)))
        require(dev <= 1e-9, f"kernel eigenvalues deviate by {dev:.3e} from reference")

    def check_render(out: Path) -> None:
        path = out / f"{key}_markov_heatmap_s0.svg"
        try:
            root = ET.parse(path).getroot()
        except (OSError, ET.ParseError) as exc:
            raise CheckFailed(f"SVG does not parse: {exc}") from exc
        require(root.tag.endswith("svg"), f"root element {root.tag}")

    def ops(out: Path) -> list[Op]:
        csv_path = out / f"{key}_markov.csv"
        grid = ["--tau-count", str(CHAIN_TAUS), "--out", str(out)]
        simulate = ["simulate", "--model", str(model_path), "--engine", "markov",
                    "--n-max", str(CHAIN_N), *grid]
        analyze = ["analyze", "--model", str(model_path), *grid]
        render = ["render", str(csv_path), "--kind", "heatmap", "--column", "s0",
                  "--out", str(out)]
        return [
            Op(simulate, [model_path], check_simulate),
            Op(analyze, [model_path], check_analyze),
            Op(render, [csv_path], check_render),
        ]

    return Workload(CHAIN_TAUS, ops)


WORKLOADS = {
    "exact_sweep": exact_sweep,
    "noise_roundtrip": noise_roundtrip,
    "chain_analysis": chain_analysis,
}
