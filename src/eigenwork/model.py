"""Quantum Ising chain builder, sector diagonalization, energy-shell selection.

H = sum_l (sigma^z_l sigma^z_{l+1} + h sigma^z_l + g sigma^x_l) with periodic
wraparound and unit coupling. Presets carry the two working points studied
here, (h, g) = (0.9045, 0.809) chaotic and (0, 0.5) free-fermion solvable,
plus the (0, 1.5) quench target.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .operators import SymmetrizedOperator, translation_sum
from .sector import require_hermitian

PRESETS = {
    "nonintegrable": (0.9045, 0.809),
    "integrable": (0.0, 0.5),
    "quench-target": (0.0, 1.5),
}

SHELL_DEFAULT = (-0.25, -0.1)


@dataclass(frozen=True)
class IsingParams:
    h: float
    g: float
    L: int

    def __post_init__(self):
        if not (np.isfinite(self.h) and np.isfinite(self.g)):
            raise ValueError("fields must be finite")
        if self.L < 2:
            raise ValueError("need at least two sites")


def build_ising(params: IsingParams) -> SymmetrizedOperator:
    label = f"ising(h={params.h}, g={params.g})"
    return translation_sum(label, [(1.0, "ZZ"), (params.h, "Z"), (params.g, "X")], params.L)


@dataclass(eq=False)
class EigenDecomposition:
    energies: np.ndarray
    states: np.ndarray

    def checksum(self) -> str:
        return hashlib.sha256(self.states.tobytes()).hexdigest()


def diagonalize(H: np.ndarray) -> EigenDecomposition:
    """Dense Hermitian eigendecomposition with a deterministic gauge.

    Energies ascend; each eigenvector is rotated so its first coordinate of
    significant magnitude is real positive. Within degenerate subspaces the
    vectors still depend on the eigensolver, so run archives record the
    eigenvector checksum.
    """
    require_hermitian(H)
    energies, states = np.linalg.eigh(H)
    for j in range(states.shape[1]):
        col = states[:, j]
        idx = np.argmax(np.abs(col) > 1e-8 * np.abs(col).max())
        ref = col[idx]
        states[:, j] = col * (np.conj(ref) / abs(ref))
    return EigenDecomposition(energies, states)


@dataclass(frozen=True)
class EnergyShell:
    lo: float
    hi: float
    indices: tuple

    @property
    def size(self) -> int:
        return len(self.indices)


def select_shell(eig: EigenDecomposition, lo: float, hi: float, L: int) -> EnergyShell:
    """Eigenstate indices with energy density in the closed interval [lo, hi]."""
    if not lo < hi:
        raise ValueError("shell bounds must satisfy lo < hi")
    density = eig.energies / L
    members = np.flatnonzero((density >= lo) & (density <= hi))
    return EnergyShell(lo, hi, tuple(int(i) for i in members))


def spectrum_csv(eig: EigenDecomposition, shell: EnergyShell, L: int) -> str:
    lines = ["alpha,E,E_over_L,in_shell"]
    in_shell = set(shell.indices)
    for a, E in enumerate(eig.energies):
        lines.append(f"{a},{E:.17g},{E / L:.17g},{int(a in in_shell)}")
    return "\n".join(lines) + "\n"
