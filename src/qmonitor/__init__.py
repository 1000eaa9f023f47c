"""qmonitor: repeatedly measured small quantum systems.

Exact density-matrix propagation of measure-and-evolve protocols, their
Markov-chain reduction, closed-form references, seeded Monte Carlo
shot-count sampling, depolarizing-noise fitting, and a CLI for sweeps,
analysis and SVG rendering.

Importing the package loads none of its modules. Each export below is
resolved from its module on first access (PEP 562), so ``from qmonitor
import run_exact`` loads ``qmonitor.evolve`` and what it imports, and a CLI
command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports
_MODULE_EXPORTS = {
    "analytic": (
        "closed_form_trace",
        "magnetization_single_qubit",
        "probs_bell",
        "probs_single_qubit",
        "probs_singlet_triplet",
    ),
    "evolve": ("initial_density", "noisy_closed_form", "rho_in_basis", "run_exact"),
    "linalg": ("HermitianEig", "adjoint", "eig_hermitian", "kron"),
    "markov": ("RegimeReport", "classify", "propagate", "spectrum", "stationary_limit"),
    "model": (
        "MeasurementBasis",
        "Model",
        "build_model",
        "detect_blocks",
        "hamiltonian_in_basis",
        "pauli",
        "single_qubit_model",
        "two_qubit_model",
    ),
    "noisefit": (
        "DEFAULT_HARDWARE",
        "HardwareProfile",
        "LayerCount",
        "NoiseFit",
        "cycle_duration",
        "decay_rate",
        "fit_gamma",
        "noise_timescale",
        "tau_average",
    ),
    "sample": ("run_shots",),
    "traces": ("check_trace",),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
