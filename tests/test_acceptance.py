"""Acceptance suite: one test per release criterion.

Each test prints a single `[acceptance] criterion N (...): PASS|FAIL` line
(visible with `pytest -s`) and asserts every check at its stated tolerance,
including the runtime budgets.
"""

import math
import time

import numpy as np

from qmonitor import analytic, evolve, markov, model, noisefit, sample

import oracles
from conftest import cycle, cycle_trace, kernel, start_rows

TAU_GRID_33 = [k * math.pi / 32 for k in range(33)]
N_GRID_33 = range(33)


def _report(num: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def _expect(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def stationary(m, tau: float, p0):
    """The closed-form large-n limit of p0 L(tau)^n, or None if the chain oscillates."""
    return markov.stationary_limit(markov.classify(kernel(m, tau)[None]), p0)[0]


def _engines(m, tau: float, n_max: int):
    exact = evolve.run_exact(m, [tau], n_max)[0]
    p0 = oracles.born_probabilities(m.initial_state, m.basis)
    chain = evolve.propagate(kernel(m, tau), start_rows(p0, n_max))
    return exact, chain


def test_criterion_1_single_qubit_magnetization():
    failures = []
    m = model.single_qubit_model()
    start = time.perf_counter()
    for tau in TAU_GRID_33:
        exact, chain = _engines(m, tau, 32)
        closed = np.array(
            [analytic.magnetization_single_qubit(n, tau) for n in N_GRID_33]
        )
        _expect(
            failures,
            float(np.max(np.abs((chain[:, 0] - chain[:, 1]) - closed))) < 1e-10,
            f"markov magnetization off at tau={tau}",
        )
        _expect(
            failures,
            float(np.max(np.abs((exact[:, 0] - exact[:, 1]) - closed))) < 1e-10,
            f"exact magnetization off at tau={tau}",
        )
    elapsed = time.perf_counter() - start
    _expect(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s")
    _report(1, "single-qubit magnetization", failures)


def test_criterion_2_singlet_triplet():
    failures = []
    m = model.two_qubit_model("singlet_triplet")
    start = time.perf_counter()
    for tau in TAU_GRID_33:
        exact, chain = _engines(m, tau, 32)
        closed = np.stack([analytic.probs_singlet_triplet(n, tau) for n in N_GRID_33])
        _expect(
            failures,
            float(np.max(np.abs(closed - chain))) < 1e-10,
            f"markov trace off at tau={tau}",
        )
        _expect(
            failures,
            float(np.max(np.abs(closed - exact))) < 1e-10,
            f"exact trace off at tau={tau}",
        )
        _expect(
            failures,
            bool(np.all(chain[:, 2] == 0.0)),
            f"markov singlet component not exactly zero at tau={tau}",
        )
        _expect(
            failures,
            float(np.max(np.abs(exact[:, 2]))) < 1e-12,
            f"exact singlet component above 1e-12 at tau={tau}",
        )
    # asymptotics at tau = pi/4, n = 50
    far = evolve.propagate(kernel(m, math.pi / 4), start_rows([1.0, 0.0, 0.0, 0.0], 50))[50]
    _expect(
        failures,
        float(np.max(np.abs(far - [1 / 3, 1 / 3, 0.0, 1 / 3]))) < 1e-6,
        "n=50 distribution not within 1e-6 of (1/3, 1/3, 0, 1/3)",
    )
    elapsed = time.perf_counter() - start
    _expect(failures, elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s")
    _report(2, "singlet-triplet closed forms", failures)


def test_criterion_3_bell():
    failures = []
    m = model.two_qubit_model("bell")
    start = time.perf_counter()
    for tau in TAU_GRID_33:
        exact, chain = _engines(m, tau, 32)
        closed = np.stack([analytic.probs_bell(n, tau) for n in N_GRID_33])
        _expect(
            failures,
            float(np.max(np.abs(closed - chain))) < 1e-10,
            f"markov trace off at tau={tau}",
        )
        _expect(
            failures,
            float(np.max(np.abs(closed - exact))) < 1e-10,
            f"exact trace off at tau={tau}",
        )
        _expect(
            failures,
            float(np.max(np.abs(chain[:, 2] - 0.5))) < 1e-12
            and float(np.max(np.abs(chain[:, 3]))) < 1e-12,
            f"frozen Bell components drift at tau={tau}",
        )
    # parity-resolved limits at tau = pi/2 (kernel eigenvalue -1)
    _expect(
        failures,
        stationary(m, math.pi / 2, [0.5, 0, 0.5, 0]) is None,
        "stationary limit should not exist at tau=pi/2",
    )
    even = oracles.limit_probs("bell", math.pi / 2, parity="even")
    odd = oracles.limit_probs("bell", math.pi / 2, parity="odd")
    _expect(failures, np.array_equal(even, [0.5, 0.0, 0.5, 0.0]), "even-parity limit wrong")
    _expect(failures, np.array_equal(odd, [0.0, 0.5, 0.5, 0.0]), "odd-parity limit wrong")
    big_even = analytic.probs_bell(50, math.pi / 2)
    big_odd = analytic.probs_bell(51, math.pi / 2)
    _expect(failures, float(np.max(np.abs(big_even - even))) < 1e-10, "even subsequence wrong")
    _expect(failures, float(np.max(np.abs(big_odd - odd))) < 1e-10, "odd subsequence wrong")
    generic = oracles.limit_probs("bell", 0.7)
    stat = stationary(m, 0.7, [0.5, 0, 0.5, 0])
    _expect(
        failures,
        float(np.max(np.abs(generic - stat))) < 1e-12,
        "generic limit disagrees with the closed-form stationary limit",
    )
    elapsed = time.perf_counter() - start
    _expect(failures, elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s")
    _report(3, "Bell closed forms", failures)


def test_criterion_4_regime_classification():
    failures = []

    def classify(name, tau):
        m = model.build_model(name)
        return markov.classify(kernel(m, tau)[None])[0]

    rep = classify("single_qubit", 0.7)
    _expect(
        failures,
        rep.kind == markov.KIND_INFINITE_TEMPERATURE,
        f"single_qubit at 0.7: {rep.kind}",
    )
    rep = classify("two_qubit_singlet_triplet", 0.7)
    _expect(
        failures,
        rep.kind == markov.KIND_PARTIAL and rep.classes == ((0, 1, 3), (2,)),
        f"singlet_triplet at 0.7: {rep.kind} {rep.classes}",
    )
    rep = classify("two_qubit_bell", 0.7)
    _expect(
        failures,
        rep.kind == markov.KIND_PARTIAL and rep.classes == ((0, 1), (2,), (3,)),
        f"bell at 0.7: {rep.kind} {rep.classes}",
    )
    rep = classify("single_qubit", math.pi)
    _expect(failures, rep.kind == markov.KIND_OSCILLATORY, f"single_qubit at pi: {rep.kind}")
    for name in ("single_qubit", "two_qubit_singlet_triplet", "two_qubit_bell"):
        rep = classify(name, 0.0)
        _expect(failures, rep.kind == markov.KIND_FROZEN, f"{name} at 0: {rep.kind}")
    _report(4, "regime classification", failures)


def test_criterion_5_noise_model():
    failures = []
    tau_grid = [k * math.pi / 8 for k in range(9)] + [0.7]
    for name in ("single_qubit", "two_qubit_singlet_triplet", "two_qubit_bell"):
        m = model.build_model(name)
        for gamma in (0.033, 0.12):
            for tau in tau_grid:
                iterated = cycle_trace(m, tau, 32, gamma)
                folded = evolve.noisy_closed_form(evolve.run_exact(m, [tau], 32, 0.0), gamma)
                _expect(
                    failures,
                    float(np.max(np.abs(iterated - folded))) < 1e-12,
                    f"{name} gamma={gamma} tau={tau}: iterated noise != closed form",
                )
    n8 = noisefit.noise_timescale(0.12)
    n30 = noisefit.noise_timescale(0.033)
    _expect(failures, 7.5 <= n8 <= 8.2, f"n_noise(0.12) = {n8}")
    _expect(failures, 29.0 <= n30 <= 31.0, f"n_noise(0.033) = {n30}")
    _report(5, "depolarizing noise model", failures)


def test_criterion_6_gamma_recovery():
    failures = []
    start = time.perf_counter()
    n_max, n_shots = 24, 8192
    taus = [k * math.pi / 16 for k in range(17)]
    cases = [
        ("two_qubit_singlet_triplet", 0.12, 0.01),
        ("two_qubit_bell", 0.033, 0.005),
    ]
    for name, gamma_true, tolerance in cases:
        m = model.build_model(name)
        reference = noisefit.tau_average(evolve.run_exact(m, taus, n_max, 0.0), taus)
        for seed in range(10):
            frequencies = [
                sample.run_shots(
                    m, [tau], n_max, gamma_true, shots=n_shots, seed=100000 * (seed + 1) + i
                )[0]
                for i, tau in enumerate(taus)
            ]
            measured = noisefit.tau_average(np.array(frequencies), taus)
            fit = noisefit.fit_gamma(measured, reference, (1, n_max))
            _expect(
                failures,
                abs(fit.gamma - gamma_true) <= tolerance,
                f"{name} seed={seed}: gamma {fit.gamma:.4f} vs {gamma_true} (tol {tolerance})",
            )
    elapsed = time.perf_counter() - start
    _expect(failures, elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s")
    _report(6, "gamma recovery from sampled data", failures)


def test_criterion_7_timing_estimator():
    failures = []
    dt_st = noisefit.cycle_duration(noisefit.LayerCount(20, 4, 1))
    dt_bell = noisefit.cycle_duration(noisefit.LayerCount(10, 2, 1))
    _expect(failures, dt_st == 2.712, f"(20,4,1) -> {dt_st}")
    _expect(failures, dt_bell == 1.708, f"(10,2,1) -> {dt_bell}")
    _expect(failures, round(dt_st, 1) == 2.7, "rounding of 2.712")
    _expect(failures, round(dt_bell, 1) == 1.7, "rounding of 1.708")
    _expect(
        failures,
        round(noisefit.decay_rate(0.12, dt_st), 2) == 0.04,
        "decay rate (0.12, 2.712) rounding",
    )
    _expect(
        failures,
        round(noisefit.decay_rate(0.033, dt_bell), 2) == 0.02,
        "decay rate (0.033, 1.708) rounding",
    )
    # 7 single-qubit layers + 1 readout: the layer arithmetic yields 0.949 us,
    # an order of magnitude above 0.09; the estimator reports the computed value
    dt_1q = noisefit.cycle_duration(noisefit.LayerCount(7, 0, 1))
    _expect(failures, dt_1q == 0.949, f"(7,0,1) -> {dt_1q}")
    _expect(failures, abs(dt_1q - 0.09) > 0.5, "single-qubit duration should not be 0.09")
    _report(7, "hardware timing estimator", failures)


def test_criterion_8_monte_carlo_fidelity():
    failures = []
    start = time.perf_counter()
    n_shots, n_max = 8192, 32
    total = 0
    good = 0
    for name in ("single_qubit", "two_qubit_singlet_triplet", "two_qubit_bell"):
        m = model.build_model(name)
        for k, tau in enumerate(TAU_GRID_33):
            emp = sample.run_shots(m, [tau], n_max, 0.0, shots=n_shots, seed=777000 + k)[0]
            exact = evolve.run_exact(m, [tau], n_max, 0.0)[0]
            clipped = np.clip(exact, 0.0, 1.0)
            se = np.sqrt(clipped * (1.0 - clipped) / n_shots)
            delta = np.abs(emp - exact)
            ok = (delta <= 1e-12) | (delta < 5.0 * se)
            total += ok.size
            good += int(ok.sum())
    fraction = good / total
    _expect(
        failures,
        fraction >= 0.99,
        f"only {fraction:.4%} of cells within 5 binomial stderr",
    )
    elapsed = time.perf_counter() - start
    _expect(failures, elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s")
    _report(8, "Monte Carlo fidelity", failures)


def test_criterion_9_property_suite():
    failures = []
    tau_grid = [0.0, 0.31, 0.7, math.pi / 4, math.pi / 2, 2.5, math.pi]
    for name in ("single_qubit", "two_qubit_singlet_triplet", "two_qubit_bell"):
        m = model.build_model(name)
        v = m.basis.v
        _expect(
            failures,
            float(np.max(np.abs(v.conj().T @ v - np.eye(m.dim)))) < 1e-12,
            f"{name}: basis not unitary",
        )
        for tau in tau_grid:
            u = oracles.unitary_from_hamiltonian(m.hamiltonian, tau)
            _expect(
                failures,
                float(np.max(np.abs(u.conj().T @ u - np.eye(m.dim)))) < 1e-12,
                f"{name} tau={tau}: propagator not unitary",
            )
            l = kernel(m, tau)
            _expect(
                failures,
                float(np.max(np.abs(l - l.T))) < 1e-12
                and float(np.max(np.abs(l.sum(axis=0) - 1.0))) < 1e-12
                and float(np.max(np.abs(l.sum(axis=1) - 1.0))) < 1e-12,
                f"{name} tau={tau}: kernel not symmetric doubly stochastic",
            )
            uniform = np.full(m.dim, 1.0 / math.sqrt(m.dim))
            _expect(
                failures,
                float(np.max(np.abs(l @ uniform - uniform))) < 1e-12,
                f"{name} tau={tau}: uniform vector not fixed",
            )
            mixed = np.eye(m.dim, dtype=complex) / m.dim
            out = cycle(mixed, m, tau, gamma=0.3)
            _expect(
                failures,
                float(np.max(np.abs(out - mixed))) < 1e-12,
                f"{name} tau={tau}: completely mixed state not a fixed point",
            )
    _report(9, "property suite", failures)
