import numpy as np
import pytest

from qmonitor import evolve, markov, sample

from conftest import all_models


def cfg(**kw):
    base = dict(n_shots=2048, seed=11, n_max=16, tau=0.7, gamma=0.0)
    base.update(kw)
    return sample.ShotConfig(**base)


class TestShotConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(n_shots=0)
        with pytest.raises(ValueError):
            cfg(n_max=-1)
        with pytest.raises(ValueError):
            cfg(gamma=1.5)

    @pytest.mark.parametrize("field", ["seed", "stream"])
    def test_key_words_must_fit_64_bits(self, field):
        for bad in (-1, 2**64):
            with pytest.raises(ValueError):
                cfg(**{field: bad})
        cfg(**{field: 2**64 - 1})


class TestSampleTrajectory:
    def test_zeno_frozen(self, single_qubit):
        c = cfg(tau=0.0, seed=1)
        rec = sample.sample_trajectory(single_qubit, c, sample.trajectory_rng(c, 0))
        assert np.array_equal(rec.outcomes, np.zeros(16))

    def test_resonance_alternates(self, single_qubit):
        c = cfg(tau=np.pi, seed=1)
        rec = sample.sample_trajectory(single_qubit, c, sample.trajectory_rng(c, 0))
        assert np.array_equal(rec.outcomes, np.tile([1, 0], 8))

    def test_singlet_never_sampled(self, singlet_triplet):
        c = cfg(tau=0.9, n_max=24, seed=5)
        for shot in range(64):
            rec = sample.sample_trajectory(singlet_triplet, c, sample.trajectory_rng(c, shot))
            assert 2 not in rec.outcomes

    def test_outcomes_in_range(self, bell):
        c = cfg(gamma=0.4, seed=9)
        rec = sample.sample_trajectory(bell, c, sample.trajectory_rng(c, 3))
        assert rec.outcomes.min() >= 0 and rec.outcomes.max() < 4


class TestRunShots:
    def test_deterministic(self, bell):
        a = sample.run_shots(bell, cfg())
        b = sample.run_shots(bell, cfg())
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.probabilities, b.probabilities)
        assert np.array_equal(a.stderr, b.stderr)

    def test_seed_changes_counts(self, bell):
        a = sample.run_shots(bell, cfg(seed=1))
        b = sample.run_shots(bell, cfg(seed=2))
        assert not np.array_equal(a.counts, b.counts)

    def test_rows_sum_to_n_shots(self, singlet_triplet):
        emp = sample.run_shots(singlet_triplet, cfg(gamma=0.12))
        assert np.all(emp.counts.sum(axis=1) == 2048)

    def test_matches_per_trajectory_aggregation(self, bell):
        """run_shots is bitwise the aggregation of sample_trajectory per shot.

        n_max 12 gives 25 draws per shot, so each shot leaves three words of
        its last counter block unused and a layout off by one block shows.
        """
        c = cfg(n_shots=64, n_max=12, tau=1.1, gamma=0.25, seed=123, stream=5)
        emp = sample.run_shots(bell, c)
        counts = np.zeros((13, 4), dtype=np.int64)
        cum_p0 = np.cumsum(evolve.born_probabilities(bell.initial_state, bell.basis))
        for shot in range(c.n_shots):
            rng = sample.trajectory_rng(c, shot)
            u0 = rng.random(1)[0]
            k0 = min(int(np.searchsorted(cum_p0, u0, side="right")), 3)
            counts[0, k0] += 1
            rec = sample.sample_trajectory(bell, c, rng)
            for j, k in enumerate(rec.outcomes):
                counts[j + 1, k] += 1
        assert np.array_equal(counts, emp.counts)

    def test_half_pi_single_cycle(self, single_qubit):
        emp = sample.run_shots(single_qubit, cfg(n_shots=8192, tau=np.pi / 2, n_max=1, seed=3))
        bound = 5 * np.sqrt(0.25 / 8192)
        assert abs(emp.probabilities[1, 0] - 0.5) < bound

    def test_full_depolarization_uniform(self, bell):
        emp = sample.run_shots(bell, cfg(n_shots=8192, gamma=1.0, n_max=8, seed=17))
        se = np.sqrt(0.25 * 0.75 / 8192)
        assert np.max(np.abs(emp.probabilities[1:] - 0.25)) < 5 * se

    def test_singlet_column_exactly_empty(self, singlet_triplet):
        emp = sample.run_shots(singlet_triplet, cfg(n_shots=4096, tau=0.9, seed=29))
        assert np.array_equal(emp.counts[:, 2], np.zeros(17, dtype=np.int64))


class TestEmpiricalMagnetization:
    def test_all_zeros(self, single_qubit):
        emp = sample.run_shots(single_qubit, cfg(tau=0.0))
        assert np.array_equal(sample.empirical_magnetization(emp), np.ones(17))

    def test_resonance(self, single_qubit):
        emp = sample.run_shots(single_qubit, cfg(tau=np.pi, n_max=9))
        assert np.array_equal(sample.empirical_magnetization(emp), (-1.0) ** np.arange(10))

    def test_relaxed_is_small(self, single_qubit):
        emp = sample.run_shots(single_qubit, cfg(n_shots=8192, tau=np.pi / 2, n_max=20, seed=31))
        assert abs(sample.empirical_magnetization(emp)[20]) < 5 / np.sqrt(8192)

    def test_needs_two_states(self, bell):
        emp = sample.run_shots(bell, cfg(n_max=2))
        with pytest.raises(ValueError):
            sample.empirical_magnetization(emp)


class TestMarginalCorrectness:
    """Sampled statistics against exact propagation plus depolarizing closed form."""

    def test_five_sigma_cells(self):
        n_shots, n_max = 4096, 12
        total, bad = 0, 0
        for m in all_models():
            for tau in (0.3 * np.pi, 0.7 * np.pi):
                for gamma in (0.0, 0.12):
                    c = sample.ShotConfig(
                        n_shots=n_shots, seed=97, n_max=n_max, tau=tau, gamma=gamma
                    )
                    emp = sample.run_shots(m, c)
                    exact = evolve.run_exact(m, [tau], n_max, gamma)[0].values
                    clipped = np.clip(exact, 0.0, 1.0)
                    se = np.sqrt(clipped * (1.0 - clipped) / n_shots)
                    delta = np.abs(emp.probabilities - exact)
                    # floor absorbs the ~1e-17 dust of the exact engine
                    ok = (delta <= 1e-12) | (delta < 5.0 * se)
                    total += ok.size
                    bad += int(ok.size - ok.sum())
        assert bad / total <= 0.01

    def test_depolarizing_consistency(self, bell):
        # per-cycle uniform replacement reproduces the noisy closed form
        c = cfg(n_shots=8192, tau=1.0, n_max=16, gamma=0.2, seed=41)
        emp = sample.run_shots(bell, c)
        noiseless = evolve.run_exact(bell, [1.0], 16, 0.0)[0]
        noisy = evolve.noisy_closed_form(noiseless, 0.2, 4).values
        se = np.sqrt(np.clip(noisy, 0, 1) * (1.0 - np.clip(noisy, 0, 1)) / c.n_shots)
        delta = np.abs(emp.probabilities - noisy)
        ok = (delta <= 1e-12) | (delta < 5.0 * se)
        assert ok.mean() >= 0.99

    def test_transition_frequencies_match_kernel(self, single_qubit):
        tau = 0.6
        c = cfg(n_shots=1, n_max=8, tau=tau, seed=53)
        l = markov.build_transition_matrix(single_qubit, tau).l
        counts = np.zeros((2, 2))
        for shot in range(3000):
            rec = sample.sample_trajectory(single_qubit, c, sample.trajectory_rng(c, shot))
            for a, b in zip(rec.outcomes[:-1], rec.outcomes[1:]):
                counts[a, b] += 1
        freq = counts / counts.sum(axis=1, keepdims=True)
        rows = counts.sum(axis=1)
        for i in range(2):
            se = np.sqrt(l[i] * (1 - l[i]) / rows[i])
            assert np.all(np.abs(freq[i] - l[i]) < 5 * np.maximum(se, 1e-12))


# Shot i of key (seed, stream) owns Philox counter blocks [i*B, (i+1)*B).
# n_max 12 gives 25 draws per shot: B = 7 blocks and 3 unused words per shot.


def test_trajectory_rng_streams_are_distinct():
    def draws(seed, stream, shot):
        return sample.trajectory_rng(cfg(seed=seed, stream=stream, n_max=12), shot).random(8)

    a = draws(7, 0, 0)
    assert not np.array_equal(a, draws(7, 0, 1))
    assert not np.array_equal(a, draws(8, 0, 0))
    assert not np.array_equal(a, draws(7, 1, 0))
    # the old seed + tau_index scheme made these two the same stream
    assert not np.array_equal(draws(7, 1, 0), draws(8, 0, 0))
    # reproducible
    assert np.array_equal(a, draws(7, 0, 0))


def test_advance_regenerates_each_row():
    c = cfg(n_shots=300, seed=2**64 - 1, stream=3, n_max=12)
    block = sample._substream_uniforms(c)
    assert block.shape == (300, 25)
    assert not block.flags.owndata  # a view of the single draw, never a copy
    for shot in (0, 1, 2, 17, 299):
        bg = np.random.Philox(key=(2**64 - 1) * 2**64 + 3)
        bg.advance(shot * 7)
        assert np.array_equal(np.random.Generator(bg).random(25), block[shot])
        assert np.array_equal(sample.trajectory_rng(c, shot).random(25), block[shot])
