"""Work extraction from Ising-chain energy eigenstates under optimized control.

Core layers: bitmask Pauli strings (pauli), the zero-momentum inversion-even
sector (sector), symmetrized operator bases (operators), the Ising model and
its spectrum (model), discretized unitary propagation (propagate), the greedy
norm-constrained controller (optimizer), work and entanglement diagnostics
(observables), and the experiment harness (config, runner, cli).
"""

from .config import ExperimentConfig, RewardParams
from .model import PRESETS
from .pauli import make_pauli
from .sector import SectorBasis, build_sector_basis

__all__ = [
    "ExperimentConfig", "PRESETS", "RewardParams",
    "make_pauli", "SectorBasis", "build_sector_basis",
]

__version__ = "0.1.0"
