from dataclasses import replace

import numpy as np
import pytest

from qmonitor import evolve, markov, sample

from conftest import all_models


def cfg(**kw):
    base = dict(n_shots=2048, seed=11, n_max=16, gamma=0.0)
    base.update(kw)
    return sample.ShotConfig(**base)


def shots(m, tau=0.7, **kw):
    """The (n_max+1, dim) counts of run_shots on the one-point grid [tau], stream (seed, 0)."""
    return sample.run_shots(m, [tau], cfg(**kw))[0]


def empirical_magnetization(counts: np.ndarray) -> np.ndarray:
    """Per-cycle population imbalance P[:, 0] - P[:, 1] of a two-state count block."""
    if counts.shape[1] != 2:
        raise ValueError("magnetization is defined for two-state systems only")
    return (counts[:, 0] - counts[:, 1]) / counts[0].sum()


def walk_shots(m, tau, c: sample.ShotConfig) -> np.ndarray:
    """Per-shot reference sampler: counts[n, k] from walking every shot.

    Each shot measures the bare initial state (row 0, an independent draw),
    then per cycle flips a depolarizing coin: with probability gamma the
    outcome is a uniformly random basis index, otherwise it is drawn from the
    first-cycle distribution p1 (cycle 1) or from the kernel row of the
    previous outcome. The stream is numpy's default generator, unrelated to
    run_shots' Philox key, so the two samplers agree only in law.
    """
    rng = np.random.default_rng([c.seed, 0])
    dim = m.dim
    cum_p0 = np.cumsum(evolve.born_probabilities(m.initial_state, m.basis))
    p1, l = markov.first_cycle(m, [tau])
    cum_p1, cum_rows = np.cumsum(p1[0]), np.cumsum(l[0], axis=1)

    def pick(cum, u):
        return min(int(np.searchsorted(cum, u, side="right")), dim - 1)

    counts = np.zeros((c.n_max + 1, dim), dtype=np.int64)
    for u in rng.random((c.n_shots, 1 + 2 * c.n_max)):
        counts[0, pick(cum_p0, u[0])] += 1
        k = -1
        for n in range(1, c.n_max + 1):
            u_noise, u_out = u[2 * n - 1], u[2 * n]
            if u_noise < c.gamma:
                k = min(int(u_out * dim), dim - 1)
            else:
                k = pick(cum_p1 if k < 0 else cum_rows[k], u_out)
            counts[n, k] += 1
    return counts


def chain_moments(m, tau, c: sample.ShotConfig):
    """Exact per-shot outcome laws p[n] and one-cycle kernel K of a shot.

    Row 0 is the Born law p0, row 1 is (1 - gamma) p1 + gamma / dim, and
    row n + 1 is p[n] K with K = (1 - gamma) L + gamma J / dim.
    """
    dim = m.dim
    p1, l = markov.first_cycle(m, [tau])
    kernel = (1.0 - c.gamma) * l[0] + c.gamma / dim
    rows = [evolve.born_probabilities(m.initial_state, m.basis)]
    if c.n_max > 0:
        rows.append((1.0 - c.gamma) * p1[0] + c.gamma / dim)
    while len(rows) < c.n_max + 1:
        rows.append(rows[-1] @ kernel)
    return np.array(rows), kernel


def _zscores(samples: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """z of each per-seed sample mean (axis 0 indexes seeds) against its expectation.

    The standard error is estimated from the samples. A cell that never
    varies must equal its expectation exactly (z = 0), or z is infinite.
    """
    diff = samples.mean(axis=0) - expected
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    return np.divide(diff, se, out=np.where(diff == 0, 0.0, np.inf), where=se > 0)


def moment_zscores(counts: np.ndarray, p: np.ndarray, kernel: np.ndarray, n_shots: int):
    """z-scores of the count chain's first and second moments, keyed by name.

    counts has shape (seeds, n_max + 1, dim). Every cell is binomial with
    mean N p and variance N p (1 - p). Consecutive cycles n >= 1 have the
    lag-1 cross-covariance N (diag(p_n) K - p_n p_{n+1}^T); row 0 is an
    independent measurement, so its covariance with row 1 is zero.
    """
    n = n_shots
    dev = counts - n * p
    lag = dev[:, :-1, :, None] * dev[:, 1:, None, :]
    cov = n * (p[:-1, :, None] * kernel - p[:-1, :, None] * p[1:, None, :])
    cov[0] = 0.0
    return {
        "mean": _zscores(counts, n * p),
        "variance": _zscores(dev**2, n * p * (1.0 - p)),
        "lag1_covariance": _zscores(lag, cov),
    }


# Bound fixed before the first run: each statistic is a mean over many seeds,
# so its z is close to standard normal, and 5 sigma over a few hundred cells
# fails by chance with probability below 1e-4.
Z_BOUND = 5.0


class TestShotConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(n_shots=0)
        with pytest.raises(ValueError):
            cfg(n_max=-1)
        with pytest.raises(ValueError):
            cfg(gamma=1.5)

    # the stream word is the grid index, so only the seed can overflow the key
    @pytest.mark.parametrize("field", ["seed"])
    def test_key_words_must_fit_64_bits(self, field):
        for bad in (-1, 2**64):
            with pytest.raises(ValueError):
                cfg(**{field: bad})
        cfg(**{field: 2**64 - 1})


class TestExactCases:
    """Counts that the physics fixes exactly, whatever the draws."""

    def test_zeno_frozen(self, single_qubit):
        counts = shots(single_qubit, tau=0.0, seed=1)
        assert np.array_equal(counts, np.tile([2048, 0], (17, 1)))

    def test_resonance_alternates(self, single_qubit):
        counts = shots(single_qubit, tau=np.pi, seed=1)
        expected = np.array([[2048, 0], [0, 2048]] * 8 + [[2048, 0]])
        assert np.array_equal(counts, expected)

    def test_singlet_never_sampled(self, singlet_triplet):
        # sixteen grid points at one tau sample the streams (5, 0) .. (5, 15)
        counts = sample.run_shots(singlet_triplet, [0.9] * 16, cfg(n_max=24, seed=5))
        assert counts.dtype == np.int64
        assert np.array_equal(counts[:, :, 2], np.zeros((16, 25), dtype=np.int64))

    def test_n_max_zero_is_the_born_row(self, bell):
        counts = shots(bell, n_max=0, gamma=0.3)
        assert counts.shape == (1, 4)
        assert counts.sum() == 2048


class TestRunShots:
    def test_deterministic(self, bell):
        assert np.array_equal(shots(bell), shots(bell))

    def test_seed_changes_counts(self, bell):
        assert not np.array_equal(shots(bell, seed=1), shots(bell, seed=2))

    def test_rows_sum_to_n_shots(self, singlet_triplet):
        counts = shots(singlet_triplet, gamma=0.12)
        assert np.all(counts.sum(axis=1) == 2048)

    def test_draw_order(self, bell):
        """Grid point i draws from one Generator(Philox(seed * 2^64 + i)): row 0,
        cycle 1, then one multinomial per later cycle on the previous counts."""
        c = cfg(n_shots=512, n_max=6, gamma=0.25, seed=2**64 - 1)
        p, kernel = chain_moments(bell, 1.1, c)
        rng = np.random.Generator(np.random.Philox(key=(2**64 - 1) * 2**64 + 5))
        rows = [rng.multinomial(512, p[0] / p[0].sum()), rng.multinomial(512, p[1] / p[1].sum())]
        for _ in range(5):
            rows.append(rng.multinomial(rows[-1], kernel / kernel.sum(axis=1, keepdims=True)).sum(axis=0))
        grid = [0.3, 0.9, 1.7, 2.2, 2.9, 1.1]
        assert np.array_equal(sample.run_shots(bell, grid, c)[5], np.array(rows))

    def test_half_pi_single_cycle(self, single_qubit):
        counts = shots(single_qubit, tau=np.pi / 2, n_shots=8192, n_max=1, seed=3)
        bound = 5 * np.sqrt(0.25 / 8192)
        assert abs(counts[1, 0] / 8192 - 0.5) < bound

    def test_full_depolarization_uniform(self, bell):
        counts = shots(bell, n_shots=8192, gamma=1.0, n_max=8, seed=17)
        se = np.sqrt(0.25 * 0.75 / 8192)
        assert np.max(np.abs(counts[1:] / 8192 - 0.25)) < 5 * se

    def test_singlet_column_exactly_empty(self, singlet_triplet):
        counts = shots(singlet_triplet, tau=0.9, n_shots=4096, seed=29)
        assert np.array_equal(counts[:, 2], np.zeros(17, dtype=np.int64))


class TestEmpiricalMagnetization:
    def test_all_zeros(self, single_qubit):
        counts = shots(single_qubit, tau=0.0)
        assert np.array_equal(empirical_magnetization(counts), np.ones(17))

    def test_resonance(self, single_qubit):
        counts = shots(single_qubit, tau=np.pi, n_max=9)
        assert np.array_equal(empirical_magnetization(counts), (-1.0) ** np.arange(10))

    def test_relaxed_is_small(self, single_qubit):
        counts = shots(single_qubit, tau=np.pi / 2, n_shots=8192, n_max=20, seed=31)
        assert abs(empirical_magnetization(counts)[20]) < 5 / np.sqrt(8192)

    def test_needs_two_states(self, bell):
        counts = shots(bell, n_max=2)
        with pytest.raises(ValueError):
            empirical_magnetization(counts)


class TestCountChainLaw:
    """run_shots and the per-shot walk against the exact moments of the chain.

    The per-shot walk checks that the moment formulas describe shots walked
    one at a time; run_shots must then meet the same formulas. Lag-1
    covariances test the transition structure, which exact means alone
    cannot: a sampler that redrew every cycle independently from p[n] would
    match every mean and variance.
    """

    @pytest.mark.parametrize("n_shots", [64, 4096])
    def test_run_shots_moments(self, bell, n_shots):
        base = cfg(n_shots=n_shots, n_max=5, gamma=0.25)
        p, kernel = chain_moments(bell, 1.1, base)
        counts = np.array(
            [sample.run_shots(bell, [1.1], replace(base, seed=1000 + s))[0]
             for s in range(2000)]
        )
        for name, z in moment_zscores(counts, p, kernel, n_shots).items():
            assert np.max(np.abs(z)) <= Z_BOUND, name

    def test_per_shot_walk_moments(self, bell):
        base = cfg(n_shots=64, n_max=4, gamma=0.25)
        p, kernel = chain_moments(bell, 1.1, base)
        counts = np.array([walk_shots(bell, 1.1, replace(base, seed=s)) for s in range(400)])
        for name, z in moment_zscores(counts, p, kernel, 64).items():
            assert np.max(np.abs(z)) <= Z_BOUND, name

    def test_independent_redraw_fails_the_covariance_check(self, bell):
        """The lag-1 check has power: per-cycle independent multinomials fail it."""
        base = cfg(n_shots=4096, n_max=5, gamma=0.25)
        p, kernel = chain_moments(bell, 1.1, base)
        rng = np.random.default_rng(3)
        counts = np.array([[rng.multinomial(4096, row) for row in p] for _ in range(2000)])
        z = moment_zscores(counts, p, kernel, 4096)
        assert np.max(np.abs(z["mean"])) <= Z_BOUND
        assert np.max(np.abs(z["lag1_covariance"])) > Z_BOUND


class TestMarginalCorrectness:
    """Sampled statistics against exact propagation plus depolarizing closed form."""

    def test_five_sigma_cells(self):
        n_shots, n_max = 4096, 12
        total, bad = 0, 0
        for m in all_models():
            for tau in (0.3 * np.pi, 0.7 * np.pi):
                for gamma in (0.0, 0.12):
                    c = sample.ShotConfig(n_shots=n_shots, seed=97, n_max=n_max, gamma=gamma)
                    emp = sample.run_shots(m, [tau], c)[0] / n_shots
                    exact = evolve.run_exact(m, [tau], n_max, gamma)[0]
                    clipped = np.clip(exact, 0.0, 1.0)
                    se = np.sqrt(clipped * (1.0 - clipped) / n_shots)
                    delta = np.abs(emp - exact)
                    # floor absorbs the ~1e-17 dust of the exact engine
                    ok = (delta <= 1e-12) | (delta < 5.0 * se)
                    total += ok.size
                    bad += int(ok.size - ok.sum())
        assert bad / total <= 0.01

    def test_depolarizing_consistency(self, bell):
        # per-cycle uniform replacement reproduces the noisy closed form
        c = cfg(n_shots=8192, n_max=16, gamma=0.2, seed=41)
        emp = sample.run_shots(bell, [1.0], c)[0] / c.n_shots
        noisy = evolve.noisy_closed_form(evolve.run_exact(bell, [1.0], 16, 0.0), 0.2)[0]
        se = np.sqrt(np.clip(noisy, 0, 1) * (1.0 - np.clip(noisy, 0, 1)) / c.n_shots)
        delta = np.abs(emp - noisy)
        ok = (delta <= 1e-12) | (delta < 5.0 * se)
        assert ok.mean() >= 0.99


def test_philox_streams_are_distinct():
    def draws(seed, stream):
        return np.random.Generator(sample._philox(seed, stream)).random(8)

    a = draws(7, 0)
    assert not np.array_equal(a, draws(8, 0))
    assert not np.array_equal(a, draws(7, 1))
    # the old seed + tau_index scheme made these two the same stream
    assert not np.array_equal(draws(7, 1), draws(8, 0))
    # reproducible
    assert np.array_equal(a, draws(7, 0))
