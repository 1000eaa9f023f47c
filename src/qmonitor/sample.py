"""Seeded Monte Carlo sampling of single measurement trajectories.

Randomness comes from numpy's counter-based Philox generator. A run at one
grid point is keyed by (seed, stream), where stream is the tau index: its
generator is Philox(key = seed * 2^64 + stream), so different grid points of
one run and different seeds never share a stream. Within that stream every
shot owns B = ceil(n_draws / 4) consecutive counter blocks of four 64-bit
words (one double each): shot i reads blocks [i*B, (i+1)*B). run_shots
draws all n_shots * 4B uniforms in one call; Philox.advance(i * B) jumps
straight to shot i, so shots can be regenerated one at a time or split
across workers.

Per trajectory the draw order is fixed: one uniform for the cycle-0 outcome
(drawn by run_shots), then per cycle a depolarizing coin followed by the
outcome uniform; the rest of the shot's last block is unused. The vectorized
path in run_shots consumes the identical stream, so aggregating
sample_trajectory by hand reproduces run_shots bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evolve, markov
from .model import Model
from .traces import ProbabilityTrace

_WORD = 1 << 64


@dataclass(frozen=True)
class ShotConfig:
    """Sampling run parameters."""

    n_shots: int
    seed: int
    n_max: int
    tau: float
    gamma: float = 0.0
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < _WORD:
            raise ValueError("seed must lie in [0, 2**64)")
        if not 0 <= self.stream < _WORD:
            raise ValueError("stream must lie in [0, 2**64)")
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Measurement outcomes of one trajectory, one basis index per cycle."""

    outcomes: np.ndarray


@dataclass(frozen=True)
class EmpiricalTrace:
    """Shot-aggregated outcome statistics.

    counts[n, k] is the number of shots that produced outcome k at cycle n;
    row 0 tallies an independent measurement of the bare initial state.
    probabilities = counts / n_shots and stderr is the per-cell binomial
    standard error sqrt(p (1-p) / n_shots).
    """

    counts: np.ndarray
    n_shots: int
    probabilities: np.ndarray
    stderr: np.ndarray

    def trace(self) -> ProbabilityTrace:
        return ProbabilityTrace(values=self.probabilities)


def _blocks_per_shot(n_max: int) -> int:
    """Philox counter blocks one shot owns: ceil((1 + 2 n_max) / 4)."""
    return -(-(1 + 2 * n_max) // 4)


def _philox(cfg: ShotConfig) -> np.random.Philox:
    """The bit generator of key (seed, stream), at counter 0."""
    return np.random.Philox(key=int(cfg.seed) * _WORD + int(cfg.stream))


def trajectory_rng(cfg: ShotConfig, shot: int) -> np.random.Generator:
    """The (seed, stream) generator advanced to the first counter block of ``shot``."""
    bg = _philox(cfg)
    bg.advance(int(shot) * _blocks_per_shot(cfg.n_max))
    return np.random.Generator(bg)


def _substream_uniforms(cfg: ShotConfig) -> np.ndarray:
    """Every shot's uniforms, as an (n_shots, 1 + 2 n_max) view of one draw.

    Row i is bitwise identical to trajectory_rng(cfg, i).random(1 + 2 n_max).
    """
    width = 4 * _blocks_per_shot(cfg.n_max)
    block = np.random.Generator(_philox(cfg)).random(cfg.n_shots * width)
    return block.reshape(cfg.n_shots, width)[:, : 1 + 2 * cfg.n_max]


def _kernel_tables(m: Model, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative distributions: initial Born, first cycle, and kernel rows."""
    p0 = evolve.born_probabilities(m.initial_state, m.basis)
    first, l = markov.first_cycle(m, tau)
    return np.cumsum(p0), np.cumsum(first), np.cumsum(l.l, axis=1)


def _pick(cum: np.ndarray, u: float) -> int:
    """Inverse-CDF draw: number of cumulative weights <= u, clipped."""
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, len(cum) - 1)


def sample_trajectory(m: Model, cfg: ShotConfig, rng: np.random.Generator) -> TrajectoryRecord:
    """Draw one trajectory of cfg.n_max outcomes.

    Cycle 1 uses the exact Born distribution of the evolved initial state;
    later cycles jump by the Markov kernel row of the previous outcome. With
    probability gamma per cycle the outcome is replaced by a uniformly random
    basis index, which reproduces the depolarizing channel at the level of
    outcome statistics (the depolarized branch is measured immediately in the
    same basis).
    """
    dim = m.dim
    _, cum_first, cum_rows = _kernel_tables(m, cfg.tau)
    draws = rng.random(2 * cfg.n_max)
    outcomes = np.empty(cfg.n_max, dtype=np.int64)
    prev = -1
    for j in range(cfg.n_max):
        u_noise = draws[2 * j]
        u_out = draws[2 * j + 1]
        if u_noise < cfg.gamma:
            k = min(int(u_out * dim), dim - 1)
        elif prev < 0:
            k = _pick(cum_first, u_out)
        else:
            k = _pick(cum_rows[prev], u_out)
        outcomes[j] = k
        prev = k
    return TrajectoryRecord(outcomes=outcomes)


def run_shots(m: Model, cfg: ShotConfig) -> EmpiricalTrace:
    """Aggregate cfg.n_shots independent trajectories into an EmpiricalTrace.

    Deterministic given (cfg.seed, cfg.stream): shot i consumes exactly the
    counter blocks of trajectory_rng(cfg, i), with one extra leading uniform
    for the cycle-0 measurement of the initial state.
    """
    dim = m.dim
    n_max = cfg.n_max
    cum_p0, cum_first, cum_rows = _kernel_tables(m, cfg.tau)

    uniforms = _substream_uniforms(cfg)

    counts = np.zeros((n_max + 1, dim), dtype=np.int64)
    k0 = np.minimum(
        np.searchsorted(cum_p0, uniforms[:, 0], side="right"), dim - 1
    ).astype(np.int64)
    counts[0] = np.bincount(k0, minlength=dim)

    cur = np.full(cfg.n_shots, -1, dtype=np.int64)
    for j in range(n_max):
        u_noise = uniforms[:, 1 + 2 * j]
        u_out = uniforms[:, 2 + 2 * j]
        if j == 0:
            nxt = np.minimum(
                np.searchsorted(cum_first, u_out, side="right"), dim - 1
            ).astype(np.int64)
        else:
            rows = cum_rows[cur]
            nxt = np.minimum((u_out[:, None] >= rows).sum(axis=1), dim - 1).astype(np.int64)
        if cfg.gamma > 0.0:
            noisy = u_noise < cfg.gamma
            nxt = np.where(noisy, np.minimum((u_out * dim).astype(np.int64), dim - 1), nxt)
        cur = nxt
        counts[j + 1] = np.bincount(cur, minlength=dim)

    probs = counts / float(cfg.n_shots)
    stderr = np.sqrt(probs * (1.0 - probs) / cfg.n_shots)
    return EmpiricalTrace(counts=counts, n_shots=cfg.n_shots, probabilities=probs, stderr=stderr)


def empirical_magnetization(t: EmpiricalTrace) -> np.ndarray:
    """Per-cycle population imbalance P[:, 0] - P[:, 1] of a two-state trace."""
    if t.probabilities.shape[1] != 2:
        raise ValueError("magnetization is defined for two-state systems only")
    return t.probabilities[:, 0] - t.probabilities[:, 1]
