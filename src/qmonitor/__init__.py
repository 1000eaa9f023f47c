"""qmonitor: repeatedly measured small quantum systems.

Exact density-matrix propagation of measure-and-evolve protocols, their
Markov-chain reduction, closed-form references, seeded Monte Carlo
shot-count sampling, depolarizing-noise fitting, and a CLI for sweeps,
analysis and SVG rendering.

Each name lives in the module that owns it (``from qmonitor import evolve``,
then ``evolve.run_exact``). Importing the package loads none of those
modules, so a CLI command loads only the modules it runs.
"""

__version__ = "0.1.0"
