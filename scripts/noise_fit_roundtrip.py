#!/usr/bin/env python3
"""Synthetic depolarizing-noise round trip.

Generates shot-sampled data for both two-qubit models under a known noise
strength, tau-averages it, fits gamma back out, and prints the derived
timescales (n_noise and the decay rate for the per-model layer counts).
"""

import argparse
import math
import sys

from qmonitor import evolve, model, noisefit, sample

CASES = (
    # model name, injected gamma, cycle layer counts (1q, cnot, meas)
    ("two_qubit_singlet_triplet", 0.12, noisefit.LayerCount(20, 4, 1)),
    ("two_qubit_bell", 0.033, noisefit.LayerCount(10, 2, 1)),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=8192)
    parser.add_argument("--n-max", type=int, default=24)
    parser.add_argument("--tau-points", type=int, default=17)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    taus = [k * math.pi / (args.tau_points - 1) for k in range(args.tau_points)]
    for name, gamma_true, layers in CASES:
        m = model.build_model(name)
        measured = sample.run_shots(
            m, taus, args.n_max, gamma_true, shots=args.shots, seed=args.seed
        )
        reference = evolve.run_exact(m, taus, args.n_max, 0.0)
        fit = noisefit.fit_gamma(
            noisefit.tau_average(measured, taus),
            noisefit.tau_average(reference, taus),
            (1, args.n_max),
        )
        dt = noisefit.cycle_duration(layers)
        rate = noisefit.decay_rate(fit.gamma, dt)
        print(f"{name}:")
        print(f"  injected gamma   {gamma_true:.4f}")
        print(f"  fitted gamma     {fit.gamma:.4f}  (residual {fit.residual_sum_sq:.2e})")
        print(f"  n_noise          {fit.n_noise:.1f} cycles")
        print(f"  cycle duration   {dt:.3f} us  -> decay rate {rate:.3f} MHz")
    return 0


if __name__ == "__main__":
    sys.exit(main())
