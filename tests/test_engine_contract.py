"""Every engine is a function of (model, taus, n_max, gamma) that returns the
finished (T, n_max+1, dim) trace, and p0 comes from Model.initial_distribution."""

from pathlib import Path

import numpy as np
import pytest

from qmonitor import analytic, evolve, model, sample

import oracles
from conftest import ALL_MODEL_NAMES

DATA = Path(__file__).parent / "data"
FIXTURES = sorted(DATA.glob("*.json"))
MODELS = {name: model.build_model(name) for name in ALL_MODEL_NAMES} | {
    path.stem: model.build_model(str(path)) for path in FIXTURES
}
GRID = [0.0, 0.4, 1.3, np.pi / 2, 2.9]
N_MAX = 12


def test_the_fixtures_are_all_there():
    assert len(FIXTURES) == 4


@pytest.mark.parametrize("name", MODELS)
def test_initial_distribution_is_the_born_oracle(name):
    m = MODELS[name]
    want = oracles.born_probabilities(m.initial_state, m.basis)
    assert np.array_equal(m.initial_distribution, want)
    assert m.initial_distribution is m.initial_distribution  # computed once per model
    with pytest.raises(ValueError):
        m.initial_distribution[0] = 0.5  # read-only: no caller can change it for the others


def engines(m, name):
    """Each engine's trace on GRID at gamma 0.05, by engine name."""
    chain = evolve.run_exact(m, GRID, N_MAX, 0.05)  # the exact and the markov engine
    runs = {
        "exact": chain,
        "markov": chain,
        "sample": sample.run_shots(m, GRID, N_MAX, 0.05, shots=64, seed=3),
    }
    if name in analytic.CLOSED_FORMS:
        runs["closed_form"] = analytic.closed_form_trace(name, GRID, N_MAX, 0.05)
    return runs


@pytest.mark.parametrize("name", MODELS)
def test_every_engine_returns_the_finished_trace(name):
    m = MODELS[name]
    for engine, values in engines(m, name).items():
        assert values.shape == (len(GRID), N_MAX + 1, m.dim), engine
        assert values.dtype == np.float64, engine
        assert np.max(np.abs(values.sum(axis=-1) - 1.0)) <= 1e-12, engine
        if engine in ("exact", "markov"):
            assert all(np.array_equal(row, m.initial_distribution) for row in values[:, 0])


@pytest.mark.parametrize("gamma", [0.05, 0.37, 1.0])
@pytest.mark.parametrize("name", ALL_MODEL_NAMES)
def test_noise_is_the_closed_form_fold_of_the_noiseless_trace(name, gamma):
    m = MODELS[name]
    chain = evolve.run_exact(m, GRID, N_MAX, gamma)
    assert np.array_equal(chain, evolve.noisy_closed_form(evolve.run_exact(m, GRID, N_MAX), gamma))
    closed = analytic.closed_form_trace(name, GRID, N_MAX, gamma)
    noiseless = analytic.closed_form_trace(name, GRID, N_MAX)
    assert np.array_equal(closed, evolve.noisy_closed_form(noiseless, gamma))


@pytest.mark.parametrize("gamma", [-0.1, 1.5])
def test_chain_and_closed_forms_reject_gamma_outside_the_unit_interval(bell, gamma):
    with pytest.raises(ValueError, match="gamma"):
        evolve.run_exact(bell, GRID, N_MAX, gamma)
    with pytest.raises(ValueError, match="gamma"):
        analytic.closed_form_trace("two_qubit_bell", GRID, N_MAX, gamma)


def test_chain_and_closed_forms_check_gamma_before_any_work(bell, monkeypatch):
    def reached(*args):
        raise AssertionError("the trace was computed before the gamma check")

    monkeypatch.setattr(evolve, "first_cycle", reached)
    monkeypatch.setitem(analytic.CLOSED_FORMS, "two_qubit_bell", reached)
    with pytest.raises(ValueError, match="gamma"):
        evolve.run_exact(bell, GRID, N_MAX, 1.5)
    with pytest.raises(ValueError, match="gamma"):
        analytic.closed_form_trace("two_qubit_bell", GRID, N_MAX, 1.5)


def test_chain_rejects_negative_n_max(bell):
    with pytest.raises(ValueError, match="n_max"):
        evolve.run_exact(bell, GRID, -1)


def test_noiseless_fold_leaves_the_trace_untouched(bell):
    values = evolve.run_exact(bell, GRID, N_MAX)
    before = values.copy()
    assert evolve.noisy_closed_form(values, 0.0) is values
    assert np.array_equal(values, before)


@pytest.mark.parametrize("engine", ["exact", "markov", "first_cycle", "sample", "closed_form"])
def test_every_engine_rejects_an_empty_grid(bell, engine):
    run = {
        "exact": lambda taus: evolve.run_exact(bell, taus, N_MAX),
        "markov": lambda taus: evolve.run_exact(bell, taus, N_MAX),
        "first_cycle": lambda taus: evolve.first_cycle(bell, taus),
        "sample": lambda taus: sample.run_shots(bell, taus, N_MAX, shots=64, seed=3),
        "closed_form": lambda taus: analytic.closed_form_trace("two_qubit_bell", taus, N_MAX),
    }[engine]
    for taus in ([], np.array([]), ()):
        with pytest.raises(ValueError, match="^taus must hold at least one grid point$"):
            run(taus)


SPLIT_GRID = np.linspace(0.0, np.pi, 33)
POINTWISE = ("exact", "markov", "closed_form")


def pointwise_engine(engine, name):
    """The engine as simulate calls it on a sub-grid: (m, taus, n_max, gamma) -> trace."""
    if engine in ("exact", "markov"):
        return evolve.run_exact
    return lambda m, taus, n_max, gamma: analytic.closed_form_trace(name, taus, n_max, gamma)


@pytest.mark.parametrize("gamma", [0.0, 0.033])
@pytest.mark.parametrize("engine, name", [
    (engine, name) for engine in POINTWISE for name in MODELS
    if engine != "closed_form" or name in analytic.CLOSED_FORMS
])
def test_a_sub_grid_gives_the_whole_grids_blocks_bit_for_bit(engine, name, gamma):
    # simulate's CSV write computes the grid in consecutive chunks, one engine call each
    m, run = MODELS[name], pointwise_engine(engine, name)
    whole = run(m, SPLIT_GRID, N_MAX, gamma)
    count = len(SPLIT_GRID)
    for split in (1, count // 2, count - 1):
        for start, stop in ((0, split), (split, count)):
            part = run(m, SPLIT_GRID[start:stop], N_MAX, gamma)
            assert part.tobytes() == whole[start:stop].tobytes(), (start, stop)
    middle = run(m, SPLIT_GRID[5:9], N_MAX, gamma)
    assert middle.tobytes() == whole[5:9].tobytes()
