"""qmonitor: repeatedly measured small quantum systems.

Exact density-matrix propagation of measure-and-evolve protocols, their
Markov-chain reduction, closed-form references, seeded Monte Carlo
shot-count sampling, depolarizing-noise fitting, and a CLI for sweeps,
analysis and SVG rendering.
"""

__version__ = "0.1.0"

from .analytic import (
    closed_form_trace,
    magnetization_single_qubit,
    probs_bell,
    probs_single_qubit,
    probs_singlet_triplet,
)
from .evolve import initial_density, noisy_closed_form, rho_in_basis, run_exact
from .linalg import HermitianEig, adjoint, eig_hermitian, kron
from .markov import RegimeReport, classify, propagate, spectrum, stationary_limit
from .model import (
    MeasurementBasis,
    Model,
    build_model,
    detect_blocks,
    hamiltonian_in_basis,
    pauli,
    single_qubit_model,
    two_qubit_model,
)
from .noisefit import (
    DEFAULT_HARDWARE,
    HardwareProfile,
    LayerCount,
    NoiseFit,
    cycle_duration,
    decay_rate,
    fit_gamma,
    noise_timescale,
    tau_average,
)
from .sample import ShotConfig, run_shots
from .traces import check_trace
