"""Depolarizing-noise strength estimation and hardware timing arithmetic.

The noise model has a single parameter gamma, the per-cycle probability of
replacing the state by the completely mixed one. Fitting happens on
tau-averaged probability traces: tau_average reduces a (T, n_max+1, dim)
trace to an (n_max+1, dim) array. Averaging over the evolution period washes
out coherent detail and leaves the exponential envelope (1-gamma)^n, from
which fit_gamma recovers gamma by deterministic 1-D least squares.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class UnidentifiableDataError(ValueError):
    """The fit objective carries no information about gamma."""


class NoiseFit(NamedTuple):
    """Fitted depolarizing strength with its residual and derived timescale."""

    gamma: float
    residual_sum_sq: float
    n_noise: float
    fitted_on: tuple[int, int]


class HardwareProfile(NamedTuple("HardwareProfile", [
        ("dur_1q_ns", float), ("dur_cnot_ns", float), ("dur_readout_ns", float)])):
    """Gate and readout durations (ns), the inputs of cycle_duration."""

    __slots__ = ()

    def __new__(cls, dur_1q_ns: float, dur_cnot_ns: float, dur_readout_ns: float):
        self = super().__new__(cls, dur_1q_ns, dur_cnot_ns, dur_readout_ns)
        for name, value in zip(self._fields, self):
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        return self


# Bundled default: gate and readout durations of a 7-qubit fixed-frequency
# transmon device with native CNOTs.
DEFAULT_HARDWARE = HardwareProfile(
    dur_1q_ns=35.0,
    dur_cnot_ns=327.0,
    dur_readout_ns=704.0,
)


class LayerCount(NamedTuple("LayerCount", [
        ("n_1q_layers", int), ("n_cnot_layers", int), ("n_meas_layers", int)])):
    """Non-parallelizable gate layers making up one protocol cycle."""

    __slots__ = ()

    def __new__(cls, n_1q_layers: int, n_cnot_layers: int, n_meas_layers: int = 1):
        if min(n_1q_layers, n_cnot_layers) < 0:
            raise ValueError("layer counts must be non-negative")
        if n_meas_layers < 1:
            raise ValueError("each cycle needs at least one measurement layer")
        return super().__new__(cls, n_1q_layers, n_cnot_layers, n_meas_layers)


def tau_average(values: np.ndarray, taus) -> np.ndarray:
    """Trapezoidal tau-average of a (T, n_max+1, dim) trace over a grid covering [0, pi].

    Returns the (n_max+1, dim) array approximating
    (1/pi) * integral_0^pi P[n, k](tau) dtau, with the blocks taken in
    ascending order of their taus.
    """
    taus = np.asarray(taus, dtype=float)
    if len(taus) == 0:
        raise ValueError("empty tau grid")
    if len(taus) < 2:
        raise ValueError("need at least two tau points")
    order = np.argsort(taus, kind="stable")
    taus = taus[order]
    if abs(taus[0]) > 1e-9 or abs(taus[-1] - math.pi) > 1e-9:
        raise ValueError("tau grid must cover [0, pi]")
    dt = np.diff(taus)
    weights = np.zeros(len(taus))
    weights[:-1] += dt / 2.0
    weights[1:] += dt / 2.0
    avg = np.tensordot(weights, np.asarray(values, dtype=float)[order], axes=(0, 0)) / math.pi
    row_err = np.max(np.abs(avg.sum(axis=1) - 1.0))
    if row_err > 1e-10:
        raise ValueError(f"averaged rows must sum to 1 (max error {row_err:.3e})")
    return avg


def _predict(model: np.ndarray, ns: np.ndarray, gamma: float, dim: int) -> np.ndarray:
    survival = (1.0 - gamma) ** ns
    return survival[:, None] * model + ((1.0 - survival) / dim)[:, None]


def fit_gamma(
    measured: np.ndarray, model_noiseless: np.ndarray, n_range: tuple[int, int]
) -> NoiseFit:
    """Least-squares estimate of the depolarizing strength on [0, 1].

    measured and model_noiseless are tau-averaged (n_max+1, dim) traces.
    Minimizes sum over n in n_range (inclusive) and all k of
    (measured - [(1-gamma)^n model + (1-(1-gamma)^n)/dim])^2 with a
    golden-section search to width 1e-9 plus one parabolic refinement;
    the objective is smooth and unimodal for data of this form.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    if lo > hi:
        raise ValueError("empty n_range")
    if lo < 0 or hi > measured.shape[0] - 1:
        raise ValueError("n_range outside the trace")
    if measured.shape != model_noiseless.shape:
        raise ValueError("measured and model shapes differ")

    dim = measured.shape[-1]
    ns = np.arange(lo, hi + 1, dtype=float)
    data = measured[lo : hi + 1]
    model = model_noiseless[lo : hi + 1]

    informative = ns >= 1
    if not np.any(informative) or (
        float(np.max(np.abs(model[informative] - 1.0 / dim))) < 1e-12
    ):
        raise UnidentifiableDataError(
            "model trace is uniform on the fit range; gamma has no effect"
        )

    def objective(g: float) -> float:
        return float(np.sum((data - _predict(model, ns, g, dim)) ** 2))

    a, b = 0.0, 1.0
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > 1e-9:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = objective(d)
    gamma = (a + b) / 2.0

    # one parabolic refinement around the bracket midpoint
    h = max(1e-7, (b - a))
    g0, g1, g2 = max(0.0, gamma - h), gamma, min(1.0, gamma + h)
    f0, f1, f2 = objective(g0), objective(g1), objective(g2)
    denom = (g0 - g1) * (f0 - f2) - (g0 - g2) * (f0 - f1)
    if abs(denom) > 0.0:
        num = (g0 - g1) ** 2 * (f0 - f2) - (g0 - g2) ** 2 * (f0 - f1)
        cand = g0 - 0.5 * num / denom
        if 0.0 <= cand <= 1.0 and objective(cand) <= f1:
            gamma = cand

    gamma = min(1.0, max(0.0, gamma))
    residual = objective(gamma)
    if gamma <= 0.0:
        n_noise = math.inf
    elif gamma >= 1.0:
        n_noise = 0.0
    else:
        n_noise = noise_timescale(gamma)
    return NoiseFit(gamma=gamma, residual_sum_sq=residual, n_noise=n_noise, fitted_on=(lo, hi))


def noise_timescale(gamma: float) -> float:
    """Cycles until depolarization dominates: 1 / |ln(1 - gamma)|.

    The proportionality constant is fixed to 1; with it, gamma = 0.12 gives
    about 8 cycles and gamma = 0.033 about 30.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("noise_timescale needs 0 < gamma < 1")
    return 1.0 / abs(math.log1p(-gamma))


def cycle_duration(layers: LayerCount, hw: HardwareProfile = DEFAULT_HARDWARE) -> float:
    """Wall-clock duration of one protocol cycle in microseconds.

    Linear in the layer counts: each layer contributes its gate duration,
    plus one readout length per measurement layer.
    """
    ns = (
        layers.n_1q_layers * hw.dur_1q_ns
        + layers.n_cnot_layers * hw.dur_cnot_ns
        + layers.n_meas_layers * hw.dur_readout_ns
    )
    return ns / 1000.0


def decay_rate(gamma: float, dt_us: float) -> float:
    """Depolarization rate gamma / dt in MHz for a cycle duration dt in us."""
    if dt_us <= 0:
        raise ValueError("cycle duration must be positive")
    return float(gamma) / float(dt_us)


def hardware_profile_from_file(path) -> HardwareProfile:
    """Load a HardwareProfile from a JSON object that carries its three duration fields.

    Other keys, such as the error rates and coherence times of a full device
    characterization, are ignored.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"hardware profile {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"hardware profile {path}: expected a JSON object")
    try:
        return HardwareProfile(
            dur_1q_ns=float(raw["dur_1q_ns"]),
            dur_cnot_ns=float(raw["dur_cnot_ns"]),
            dur_readout_ns=float(raw["dur_readout_ns"]),
        )
    except KeyError as exc:
        raise ValueError(f"hardware profile {path}: missing key {exc}") from exc
