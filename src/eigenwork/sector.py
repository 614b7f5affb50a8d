"""Zero-momentum, inversion-even symmetric subspace of the periodic chain.

Basis vectors are uniform sums over dihedral orbits of computational basis
states: |s> = |orbit|^{-1/2} sum_{n in orbit} |n>. For the k=0, R=+1 sector
every orbit survives (all group characters are +1), so the sector dimension
equals the number of binary bracelets of length L.

A fixed sector matrix (the target, the kick generator, the gauge operator) has
one form, the CSR array that :meth:`operators.SymmetrizedOperator.sector_matrix`
returns, real when it has no imaginary part; an assembled step Hamiltonian is a
dense complex ndarray. Every Taylor term, product with a held row's
eigenvectors, and H psi of a run goes through :func:`matmul`.
Every Hermiticity check on sector matrices goes through
:func:`check_hermiticity`, one rule relative to the scale of the matrix. All
dynamics and diagnostics run in sector coordinates: :func:`schmidt_maps` takes
sector vectors straight to their half-chain Schmidt blocks, and no 2^L vector
is formed. :func:`embed_state`, the map to the full space, stays as the test
oracle for both.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .pauli import apply_to_basis_indices, reflect_bits, rotate_bits

L_MIN = 2
L_MAX = 20

HERMITICITY_TOL = 1e-12


class NumericalConsistencyError(RuntimeError):
    """A numerical invariant (hermiticity, norm, residue) was violated."""


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
    reflected = reflect_bits(states, L)
    for shift in range(L):
        np.minimum(rep, rotate_bits(states, shift, L), out=rep)
        np.minimum(rep, rotate_bits(reflected, shift, L), out=rep)
    orbit_reps, state_to_orbit, orbit_sizes = np.unique(
        rep, return_inverse=True, return_counts=True)
    return SectorBasis(L, orbit_reps, orbit_sizes,
                       state_to_orbit.astype(np.int64))


def embed_state(v: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """Map sector coordinates to the unit full-space vector they represent.

    ``v`` is one sector vector or a (dim x M) matrix of them, one per column,
    and every column must be unit.
    """
    v = np.asarray(v)
    dev = np.abs(np.linalg.norm(v, axis=0) - 1.0).max(initial=0.0)
    if not dev <= 1e-10:
        raise ValueError(f"sector vector not normalized: max ||v| - 1| = {dev!r}")
    amp = basis.norms[basis.state_to_orbit]
    return v[basis.state_to_orbit] * (amp if v.ndim == 1 else amp[:, None])


def schmidt_maps(basis: SectorBasis) -> tuple[scipy.sparse.csr_array, scipy.sparse.csr_array]:
    """Real maps from sector coordinates to the flattened even and odd Schmidt blocks.

    With n = L/2, a sector state's Schmidt matrix Psi[b, a] (a = bits 0..n-1,
    the low half) is symmetric, since translation by n swaps the halves, and
    commutes with the n-bit reversal P, since the reflection l -> n-1-l mod L
    maps each half onto itself. In P's even/odd basis, palindromes and
    (e_x +- e_Px)/sqrt2 for x < Px, Psi splits into two symmetric blocks of
    sizes (2^n +- 2^ceil(n/2))/2; their singular values are Psi's. Each map
    has (block size)^2 rows, the row-major block, and basis.dim columns. The
    odd block is empty at L=2.
    """
    if basis.L % 2:
        raise ValueError("half-chain cut needs even L")
    n = basis.L // 2
    x = np.arange(1 << n, dtype=np.int64)
    px = reflect_bits(x, n)
    pal, pair = np.flatnonzero(x == px), np.flatnonzero(x < px)
    r, k = math.sqrt(0.5), np.arange(len(pair))

    def pair_columns(sign):  # (e_x + sign e_Px)/sqrt2 for each pair x < Px
        return scipy.sparse.csr_array(
            (np.repeat([r, sign * r], len(pair)),
             (np.concatenate([pair, px[pair]]), np.tile(k, 2))), shape=(1 << n, len(pair)))

    palindromes = scipy.sparse.csr_array((np.ones(len(pal)), (pal, np.arange(len(pal)))),
                                         shape=(1 << n, len(pal)))
    even = scipy.sparse.hstack([palindromes, pair_columns(1)], format="csr")
    # Psi.ravel() = embed @ v, and the block Q^T Psi Q ravels to kron(Q^T, Q^T) Psi.ravel().
    embed = scipy.sparse.csr_array(
        (basis.norms[basis.state_to_orbit], (np.arange(1 << basis.L), basis.state_to_orbit)),
        shape=(1 << basis.L, basis.dim))
    return tuple(scipy.sparse.kron(Q.T, Q.T, format="csr") @ embed
                 for Q in (even, pair_columns(-1)))


def check_hermiticity(dev: float, scale, what: str) -> None:
    """Reject a deviation dev from Hermiticity above HERMITICITY_TOL * max(1, scale()).

    The one Hermiticity rule: relative to the scale of the matrix, absolute
    below 1, and failed by every dev at a non-finite scale. ``scale`` is
    called only for a dev above HERMITICITY_TOL, so the usual tiny dev costs
    no pass over the matrix. ``what`` names dev in the error.
    """
    if dev <= HERMITICITY_TOL:
        return
    scale = float(scale())
    tol = HERMITICITY_TOL * max(1.0, scale) if math.isfinite(scale) else math.nan
    if not dev <= tol:
        raise NumericalConsistencyError(f"{what} = {dev:.3e} > {tol:.3e}")


def require_hermitian(mat: np.ndarray) -> np.ndarray:
    """``mat``, after checking max |M - M^dag| by :func:`check_hermiticity`."""
    diff = np.conjugate(mat).T  # a fresh array, so the subtraction can reuse it
    np.subtract(mat, diff, out=diff)
    check_hermiticity(np.abs(diff).max(), lambda: np.abs(mat).max(),
                      "matrix fails hermiticity check: max |M - M^dag|")
    return mat


def matmul(H, X: np.ndarray) -> np.ndarray:
    """H @ X for a dense or CSR sector matrix H and a (dim x M) batch X.

    A real H times a complex X multiplies X's float view, (dim x 2M), so H
    is never upcast to complex; each product adds the same real terms.
    """
    if np.iscomplexobj(X) and not np.iscomplexobj(H):
        return (H @ np.ascontiguousarray(X).view(float)).view(complex)
    return H @ X


def sector_triplets(terms, basis: SectorBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unsummed (rows, cols, vals) of the sector matrix of sum_j c_j P_j.

    ``terms`` are (coefficient, PauliString) pairs. Each string is applied to
    the orbit representative of every column; the image lands in the row of
    its orbit, rescaled by sqrt(|orbit_col| / |orbit_row|). Triplets come in
    term order, columns ascending within a term; a (row, col) pair can repeat
    and :func:`sector_entries` sums the repeats.
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


def sector_entries(terms, basis: SectorBasis) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero entries (flat, vals) of the sector matrix of sum_j c_j P_j.

    ``flat = row * dim + col`` ascends. Each value sums the repeats of its
    (row, col) among :func:`sector_triplets` sequentially in triplet order,
    the order ``np.add.at`` uses; this is the one place repeats are summed.
    """
    rows, cols, vals = sector_triplets(terms, basis)
    flat, where = np.unique(rows * basis.dim + cols, return_inverse=True)
    sums = np.empty(len(flat), dtype=complex)
    sums.real = np.bincount(where, weights=vals.real, minlength=len(flat))
    sums.imag = np.bincount(where, weights=vals.imag, minlength=len(flat))
    keep = sums != 0
    return flat[keep], sums[keep]


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
