"""Quantum Ising chain builder, gauge-fixed sector diagonalization, energy-shell selection.

H = sum_l (sigma^z_l sigma^z_{l+1} + h sigma^z_l + g sigma^x_l) with periodic
wraparound and unit coupling. Presets carry the two working points studied
here, (h, g) = (0.9045, 0.809) chaotic and (0, 0.5) free-fermion solvable,
plus the (0, 1.5) quench target.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .operators import SymmetrizedOperator, translation_sum
from .sector import NumericalConsistencyError, SectorBasis, require_hermitian

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


BLOCK_TOL = 1e-9
# K is odd under the h=0 chain's spin flip, and splits every degenerate block of
# the three presets at L <= 16 by 0.0298 or more (0.239 or more at L <= 14).
GAUGE_WORDS = ((0.618, "Z"), (0.414, "XX"), (0.3, "XZ"), (0.3, "ZX"), (0.2, "ZXZ"),
               (0.17, "XZX"), (0.13, "ZZZ"), (0.11, "XXXX"))


def degenerate_blocks(values: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of two or more ascending ``values`` whose
    consecutive gaps are at most BLOCK_TOL * max(1, max |values|)."""
    tol = BLOCK_TOL * max(1.0, float(np.abs(values).max(initial=0.0)))
    edges = [0, *(np.flatnonzero(np.diff(values) > tol) + 1).tolist(), len(values)]
    return [(a, b) for a, b in zip(edges, edges[1:]) if b - a > 1]


def canonicalize(energies: np.ndarray, states: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """Fix the gauge of real eigenvectors ``states`` in place, and return them.

    Inside each :func:`degenerate_blocks` block of ``energies`` the vectors
    are rotated onto the eigenvectors of K restricted to the block, K
    ascending. K's sector matrix is built only when a block exists. A block
    whose K eigenvalues still form a block raises NumericalConsistencyError.
    Then each vector is signed so its first coordinate of magnitude above
    1e-8 of its largest is positive.
    """
    blocks = degenerate_blocks(energies)
    if blocks:
        K = translation_sum("gauge K", GAUGE_WORDS, basis.L).sector_matrix(basis)
        for a, b in blocks:
            V = states[:, a:b]
            k, W = np.linalg.eigh(V.T @ (K @ V))
            if degenerate_blocks(k):
                raise NumericalConsistencyError(
                    f"gauge operator leaves the {b - a}-fold level E={energies[a]!r} "
                    f"degenerate: K eigenvalues {k}")
            states[:, a:b] = V @ W
    mags = np.abs(states)
    first = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
    states *= np.sign(states[first, np.arange(states.shape[1])])
    return states


def diagonalize(H, basis: SectorBasis) -> EigenDecomposition:
    """Real symmetric eigendecomposition of a sector matrix, in a canonical gauge.

    ``H`` is the real CSR array of :meth:`SymmetrizedOperator.sector_matrix`;
    the Ising sector matrix has no imaginary part, so a complex ``H`` is
    rejected. Its dense form is checked by :func:`require_hermitian` and
    solved by one real ``eigh``, which keeps the full spectrum. Energies
    ascend. A degenerate block is a run of consecutive energies within
    BLOCK_TOL * max(1, max |E|), BLOCK_TOL = 1e-9. :func:`canonicalize` takes
    the real eigenvectors inside each block to the eigenvectors of the gauge
    operator K = sum_l T^l(0.618 Z + 0.414 XX + 0.3 (XZ + ZX) + 0.2 ZXZ +
    0.17 XZX + 0.13 ZZZ + 0.11 XXXX) (GAUGE_WORDS) restricted to the block,
    then fixes every sign. So the states do not depend on which basis of a
    block the solver returns, which can change with the BLAS thread count.
    """
    if np.iscomplexobj(H):
        raise ValueError("diagonalize takes a real sector matrix; this one has an imaginary part")
    energies, states = np.linalg.eigh(require_hermitian(H.toarray()))
    return EigenDecomposition(energies, canonicalize(energies, states, basis))


@dataclass(frozen=True, eq=False)
class EnergyShell:
    """The shell's columns of the eigendecomposition; per-state results follow their order."""

    indices: np.ndarray
    energies: np.ndarray
    states: np.ndarray

    @property
    def size(self) -> int:
        return len(self.indices)


def select_shell(eig: EigenDecomposition, lo: float, hi: float, L: int) -> EnergyShell:
    """Eigenstates with energy density in the closed interval [lo, hi]."""
    if not lo < hi:
        raise ValueError("shell bounds must satisfy lo < hi")
    density = eig.energies / L
    members = np.flatnonzero((density >= lo) & (density <= hi))
    return EnergyShell(members, eig.energies[members], eig.states[:, members])


def spectrum_csv(energies: np.ndarray, shell: EnergyShell, L: int) -> str:
    lines = ["alpha,E,E_over_L,in_shell"]
    in_shell = set(shell.indices.tolist())
    for a, E in enumerate(energies):
        lines.append(f"{a},{E:.17g},{E / L:.17g},{int(a in in_shell)}")
    return "\n".join(lines) + "\n"
