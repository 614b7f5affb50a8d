"""Zero-momentum, inversion-even symmetric subspace of the periodic chain.

Basis vectors are uniform sums over dihedral orbits of computational basis
states: |s> = |orbit|^{-1/2} sum_{n in orbit} |n>. For the k=0, R=+1 sector
every orbit survives (all group characters are +1), so the sector dimension
equals the number of binary bracelets of length L.

Sector matrices are plain complex ndarrays, validated Hermitian on
construction. All dynamics run in sector coordinates; the full 2^L space is
touched only by :func:`embed_state` for entanglement diagnostics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .pauli import apply_to_basis_indices

L_MIN = 2
L_MAX = 20

HERMITICITY_TOL = 1e-12


class NumericalConsistencyError(RuntimeError):
    """A numerical invariant (hermiticity, norm, residue) was violated."""


def _rotl_array(states: np.ndarray, shift: int, L: int) -> np.ndarray:
    shift %= L
    if shift == 0:
        return states
    full = np.int64((1 << L) - 1)
    return ((states << shift) | (states >> (L - shift))) & full


def _reverse_array(states: np.ndarray, L: int) -> np.ndarray:
    out = np.zeros_like(states)
    for l in range(L):
        out |= ((states >> l) & 1) << (L - 1 - l)
    return out


@dataclass(eq=False)
class SectorBasis:
    """Orbit data for the k=0, R=+1 sector.

    orbit_reps[s] is the smallest basis index in orbit s, orbit_sizes[s] the
    number of distinct members, and state_to_orbit maps every full-space basis
    index to its orbit. Embedded vectors carry amplitude orbit_sizes[s]**-0.5
    on each member.
    """

    L: int
    orbit_reps: np.ndarray
    orbit_sizes: np.ndarray
    state_to_orbit: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        self.dim = len(self.orbit_reps)

    @property
    def norms(self) -> np.ndarray:
        """Per-orbit member amplitude of the normalized symmetric combination."""
        return 1.0 / np.sqrt(self.orbit_sizes.astype(float))


def build_sector_basis(L: int) -> SectorBasis:
    """Enumerate dihedral orbits of the 2^L computational basis states."""
    if not L_MIN <= L <= L_MAX:
        raise ValueError(f"L={L} outside supported range [{L_MIN}, {L_MAX}]")
    states = np.arange(1 << L, dtype=np.int64)
    rep = states.copy()
    reflected = _reverse_array(states, L)
    for shift in range(L):
        np.minimum(rep, _rotl_array(states, shift, L), out=rep)
        np.minimum(rep, _rotl_array(reflected, shift, L), out=rep)
    orbit_reps, state_to_orbit, orbit_sizes = np.unique(
        rep, return_inverse=True, return_counts=True)
    return SectorBasis(L, orbit_reps, orbit_sizes,
                       state_to_orbit.astype(np.int64))


def embed_state(v: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """Map sector coordinates to the unit full-space vector they represent."""
    v = np.asarray(v)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"sector vector not normalized: |v| = {nrm!r}")
    amp = basis.norms
    return v[basis.state_to_orbit] * amp[basis.state_to_orbit]


def embed_batch(mat: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """Embed the columns of a (dim x M) sector matrix; columns must be unit."""
    mat = np.asarray(mat)
    nrms = np.linalg.norm(mat, axis=0)
    if np.any(np.abs(nrms - 1.0) > 1e-10):
        raise ValueError("sector batch has non-normalized columns")
    weights = basis.norms[basis.state_to_orbit]
    return mat[basis.state_to_orbit, :] * weights[:, None]


def restrict_state(full: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """Adjoint of embed_state: project a full-space vector onto the sector."""
    full = np.asarray(full)
    amp = basis.norms
    acc = np.zeros(basis.dim, dtype=full.dtype)
    np.add.at(acc, basis.state_to_orbit, full)
    return acc * amp


def require_hermitian(mat: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    diff = np.conjugate(mat).T  # a fresh array, so the subtraction can reuse it
    np.subtract(mat, diff, out=diff)
    dev = np.abs(diff).max()
    if not dev <= tol:
        raise NumericalConsistencyError(
            f"matrix fails hermiticity check: max |M - M^dag| = {dev:.3e} > {tol:.0e}")
    return mat


def sector_triplets(terms, basis: SectorBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unsummed (rows, cols, vals) of the sector matrix of sum_j c_j P_j.

    ``terms`` are (coefficient, PauliString) pairs. Each string is applied to
    the orbit representative of every column; the image lands in the row of
    its orbit, rescaled by sqrt(|orbit_col| / |orbit_row|). Triplets come in
    term order, columns ascending within a term; a (row, col) pair can repeat
    and the caller sums the repeats.
    """
    sizes = basis.orbit_sizes.astype(float)
    rows, vals = [], []
    for coeff, p in terms:
        targets, phases = apply_to_basis_indices(p, basis.orbit_reps)
        r = basis.state_to_orbit[targets]
        rows.append(r)
        vals.append(coeff * phases * np.sqrt(sizes / sizes[r]))
    cols = np.tile(np.arange(basis.dim, dtype=np.int64), len(rows))
    return np.concatenate(rows), cols, np.concatenate(vals)


def project_operator(op, basis: SectorBasis) -> np.ndarray:
    """Sector matrix <s|op|s'> of a translation+inversion symmetric operator.

    ``op`` supplies ``terms`` as (coefficient, PauliString) pairs; the matrix
    sums their :func:`sector_triplets`.
    """
    if not op.is_symmetric():
        raise ValueError(f"operator {getattr(op, 'label', op)!r} is not "
                         "translation+inversion symmetric")
    rows, cols, vals = sector_triplets(op.terms, basis)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    np.add.at(mat, (rows, cols), vals)
    return require_hermitian(mat)


def sector_manifest(basis: SectorBasis) -> str:
    """Text manifest of the sector basis for cross-implementation comparison."""
    lines = [f"# eigenwork sector basis v1",
             f"L {basis.L}",
             f"dim {basis.dim}"]
    for rep, size in zip(basis.orbit_reps, basis.orbit_sizes):
        lines.append(f"{int(rep)} {int(size)} {1.0 / np.sqrt(size):.17g}")
    return "\n".join(lines) + "\n"


def manifest_checksum(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
