import numpy as np
import pytest

from qmonitor import evolve, sample

import oracles
from conftest import all_models


RUN = dict(n_max=16, gamma=0.0, shots=2048, seed=11)


def run(m, taus, **kw) -> np.ndarray:
    """run_shots with RUN's arguments, any of them overridden by kw."""
    return sample.run_shots(m, taus, **{**RUN, **kw})


def counts_of(frequencies: np.ndarray, shots: int) -> np.ndarray:
    """The int64 counts behind run_shots' frequencies counts / shots.

    Each frequency is within an ulp of count / shots, so rounding recovers
    the count exactly for any shot number below 2^51.
    """
    return np.rint(frequencies * shots).astype(np.int64)


def shots(m, tau=0.7, **kw):
    """The (n_max+1, dim) counts of run_shots on the one-point grid [tau]."""
    return counts_of(run(m, [tau], **kw)[0], kw.get("shots", RUN["shots"]))


def chain_moments(m, tau, n_max, gamma):
    """Exact per-shot outcome laws p[n] and one-cycle kernel K of a shot.

    Row 0 is the Born law p0, row 1 is (1 - gamma) p1 + gamma / dim, and
    row n + 1 is p[n] K with K = (1 - gamma) L + gamma J / dim.
    """
    dim = m.dim
    p1, l = evolve.first_cycle(m, [tau])
    kernel = (1.0 - gamma) * l[0] + gamma / dim
    rows = [oracles.born_probabilities(m.initial_state, m.basis)]
    if n_max > 0:
        rows.append((1.0 - gamma) * p1[0] + gamma / dim)
    while len(rows) < n_max + 1:
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


class TestRunShotsChecks:
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"seed": -1}, r"seed must lie in \[0, 2\*\*64\)"),
            ({"seed": 2**64}, r"seed must lie in \[0, 2\*\*64\)"),
            ({"shots": 0}, "^shots must be >= 1"),
            ({"n_max": -1}, "n_max must be >= 0"),
            ({"gamma": 1.5}, r"gamma must lie in \[0, 1\]"),
        ],
        ids=["seed_negative", "seed_2_64", "shots_zero", "n_max_negative", "gamma_above_one"],
    )
    def test_rejects(self, bell, bad, message):
        with pytest.raises(ValueError, match=message):
            run(bell, [0.7], **bad)

    def test_largest_seed_is_accepted(self, bell):
        # the seed is the whole Philox key, so 2**64 - 1 is the largest key a run uses
        run(bell, [0.7], seed=2**64 - 1, n_max=1)


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
        # sixteen copies of one tau, drawn side by side from seed 5's one stream
        frequencies = run(singlet_triplet, [0.9] * 16, n_max=24, seed=5)
        assert frequencies.dtype == np.float64
        assert np.array_equal(frequencies[:, :, 2], np.zeros((16, 25)))

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
        """A run draws from one Generator(Philox(key=seed)): row 0 of every grid
        point, then cycle 1 of every grid point, then each later cycle of every
        grid point as one multinomial per previous outcome, summed; the trace is
        the counts over the shot number."""
        c = dict(shots=512, n_max=6, gamma=0.25, seed=2**64 - 1)
        grid = [0.3, 0.9, 1.7, 2.2, 2.9, 1.1]
        laws = [chain_moments(bell, tau, 6, 0.25) for tau in grid]
        rng = np.random.Generator(np.random.Philox(key=2**64 - 1))
        rows = [[rng.multinomial(512, p[0] / p[0].sum()) for p, _ in laws]]
        rows.append([rng.multinomial(512, p[1] / p[1].sum()) for p, _ in laws])
        for _ in range(5):
            rows.append([
                sum(rng.multinomial(count, row / row.sum()) for count, row in zip(prev, kernel))
                for prev, (_, kernel) in zip(rows[-1], laws)
            ])
        hand = np.swapaxes(np.array(rows), 0, 1) / 512
        assert np.array_equal(run(bell, grid, **c), hand)

    def test_half_pi_single_cycle(self, single_qubit):
        counts = shots(single_qubit, tau=np.pi / 2, shots=8192, n_max=1, seed=3)
        bound = 5 * np.sqrt(0.25 / 8192)
        assert abs(counts[1, 0] / 8192 - 0.5) < bound

    def test_full_depolarization_uniform(self, bell):
        counts = shots(bell, shots=8192, gamma=1.0, n_max=8, seed=17)
        se = np.sqrt(0.25 * 0.75 / 8192)
        assert np.max(np.abs(counts[1:] / 8192 - 0.25)) < 5 * se

    def test_singlet_column_exactly_empty(self, singlet_triplet):
        counts = shots(singlet_triplet, tau=0.9, shots=4096, seed=29)
        assert np.array_equal(counts[:, 2], np.zeros(17, dtype=np.int64))


class TestEmpiricalMagnetization:
    def test_all_zeros(self, single_qubit):
        counts = shots(single_qubit, tau=0.0)
        assert np.array_equal(oracles.empirical_magnetization(counts), np.ones(17))

    def test_resonance(self, single_qubit):
        counts = shots(single_qubit, tau=np.pi, n_max=9)
        assert np.array_equal(oracles.empirical_magnetization(counts), (-1.0) ** np.arange(10))

    def test_relaxed_is_small(self, single_qubit):
        counts = shots(single_qubit, tau=np.pi / 2, shots=8192, n_max=20, seed=31)
        assert abs(oracles.empirical_magnetization(counts)[20]) < 5 / np.sqrt(8192)

    def test_needs_two_states(self, bell):
        counts = shots(bell, n_max=2)
        with pytest.raises(ValueError):
            oracles.empirical_magnetization(counts)


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
        p, kernel = chain_moments(bell, 1.1, 5, 0.25)
        counts = np.array(
            [shots(bell, 1.1, shots=n_shots, n_max=5, gamma=0.25, seed=1000 + s)
             for s in range(2000)]
        )
        for name, z in moment_zscores(counts, p, kernel, n_shots).items():
            assert np.max(np.abs(z)) <= Z_BOUND, name

    def test_per_shot_walk_moments(self, bell):
        p, kernel = chain_moments(bell, 1.1, 4, 0.25)
        counts = np.array(
            [oracles.walk_shots(bell, 1.1, 4, 0.25, shots=64, seed=s) for s in range(400)]
        )
        for name, z in moment_zscores(counts, p, kernel, 64).items():
            assert np.max(np.abs(z)) <= Z_BOUND, name

    def test_independent_redraw_fails_the_covariance_check(self, bell):
        """The lag-1 check has power: per-cycle independent multinomials fail it."""
        p, kernel = chain_moments(bell, 1.1, 5, 0.25)
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
                    emp = run(m, [tau], n_max=n_max, gamma=gamma, shots=n_shots, seed=97)[0]
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
        emp = run(bell, [1.0], shots=8192, n_max=16, gamma=0.2, seed=41)[0]
        noisy = evolve.noisy_closed_form(evolve.run_exact(bell, [1.0], 16, 0.0), 0.2)[0]
        se = np.sqrt(np.clip(noisy, 0, 1) * (1.0 - np.clip(noisy, 0, 1)) / 8192)
        delta = np.abs(emp - noisy)
        ok = (delta <= 1e-12) | (delta < 5.0 * se)
        assert ok.mean() >= 0.99


def test_neighbouring_seeds_share_no_draws(bell):
    # under the old seed + tau_index keys, seed 7 at grid point 1 replayed seed 8 at grid point 0
    grid = [0.7, 1.1, 1.9]
    a, b = run(bell, grid, seed=7), run(bell, grid, seed=8)
    assert not any(np.array_equal(x, y) for x in a for y in b)


def test_a_repeated_tau_draws_other_counts(bell):
    a, b = run(bell, [1.1, 1.1])
    assert not np.array_equal(a, b)
