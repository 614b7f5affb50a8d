"""Full-space and string-level reference code that the tests check eigenwork against.

No run calls these, and each is test-scale only: :func:`half_chain_ee` of
:func:`embed_state` checks the sector entanglement path, the dense 2^L
matrices check sector matrices, spectra and dynamics,
:func:`sector_triplets_oracle` applies one string at a time where the
package takes all of an operator's strings in one array pass, and
:func:`symbolic_gram` and :func:`frobenius_norm_sq` check Gram matrices and
norms by string-level trace orthogonality.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from eigenwork.observables import SCHMIDT_FLOOR
from eigenwork.operators import OperatorStack, SymmetrizedOperator
from eigenwork.pauli import make_pauli
from eigenwork.sector import SectorBasis

PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i^k


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


def half_chain_ee(state: np.ndarray, L: int) -> float:
    """Half-chain von Neumann entropy in nats of a unit full-space vector."""
    if L % 2:
        raise ValueError("half-chain cut needs even L")
    state = np.asarray(state)
    if state.shape != (1 << L,):
        raise ValueError("state length does not match 2^L")
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"state not normalized: |psi| = {nrm!r}")
    half = L // 2
    # bit l = site l, so block A = sites 0..L/2-1 lives in the low bits (columns).
    amp = state.reshape(1 << half, 1 << half)
    lam = np.linalg.svd(amp, compute_uv=False) ** 2
    lam = lam[lam > SCHMIDT_FLOOR]
    return float(-np.sum(lam * np.log(lam)))


def apply_to_basis_indices(x: int, z: int, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply string (x, z) to each |n> of an index array: (m, c) with (x, z)|n> = c|m>, |c| = 1."""
    n = np.asarray(n, dtype=np.int64)
    m = n ^ np.int64(x)
    parity = np.bitwise_count(n & np.int64(z)) & 1
    coeff = PHASES[bin(x & z).count("1") % 4] * np.where(parity, -1.0, 1.0)
    return m, coeff


def sector_triplets_oracle(terms, basis: SectorBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`eigenwork.sector.sector_triplets` one string at a time, in the same order."""
    sizes = basis.orbit_sizes.astype(float)
    rows, vals = [], []
    for coeff, x, z in terms:
        targets, phases = apply_to_basis_indices(x, z, basis.orbit_reps)
        r = basis.state_to_orbit[targets]
        rows.append(r)
        vals.append(coeff * phases * np.sqrt(sizes / sizes[r]))
    cols = np.tile(np.arange(basis.dim, dtype=np.int64), len(rows))
    return np.concatenate(rows), cols, np.concatenate(vals)


def dense_matrix(x: int, z: int, L: int) -> np.ndarray:
    """Full 2^L x 2^L matrix of string (x, z), assembled column by column. Test-scale only."""
    d = 1 << L
    cols = np.arange(d, dtype=np.int64)
    rows, coeffs = apply_to_basis_indices(x, z, cols)
    mat = np.zeros((d, d), dtype=complex)
    mat[rows, cols] = coeffs
    return mat


def operator_dense_matrix(op: SymmetrizedOperator) -> np.ndarray:
    """Full 2^L matrix, the weighted sum of :func:`dense_matrix`; test-scale only."""
    mat = np.zeros((1 << op.L, 1 << op.L), dtype=complex)
    for c, x, z in op.terms:
        mat += c * dense_matrix(x, z, op.L)
    return mat


def string_coefficients(ops) -> scipy.sparse.csr_matrix:
    """(ops x distinct string masks) table of string coefficients, masks sorted."""
    keys = sorted({(x, z) for op in ops for _, x, z in op.terms})
    index = {k: i for i, k in enumerate(keys)}
    data, si, sj = [], [], []
    for i, op in enumerate(ops):
        for c, x, z in op.terms:
            si.append(i)
            sj.append(index[x, z])
            data.append(c)
    return scipy.sparse.csr_matrix((data, (si, sj)), shape=(len(ops), len(keys)))


def symbolic_gram(ops, L: int) -> np.ndarray:
    """Gram matrix Tr[Q_a^dag Q_b] from string-level trace orthogonality."""
    coef = string_coefficients(ops)
    return float(1 << L) * (coef @ coef.T).toarray()


def frobenius_norm_sq(stack: OperatorStack, gamma: np.ndarray) -> float:
    """Exact full-space ||sum_i gamma_i Q_i||_2^2 of the stack's operators via string coefficients."""
    combined = string_coefficients(stack.ops).T @ np.asarray(gamma, dtype=float)
    return float((1 << stack.L) * np.dot(combined, combined))


def from_text(text: str) -> tuple[int, int, int]:
    """(x, z, L) of the canonical text form produced by :func:`eigenwork.pauli.to_text`."""
    tokens = text.split()
    if len(tokens) < 3 or not tokens[-2].startswith("@L=") or tokens[-1] != "*i^0":
        raise ValueError(f"malformed pauli text {text!r}")
    axes = [(int(tok[1:]), tok[0]) for tok in tokens[:-2] if tok != "I"]
    L = int(tokens[-2][3:])
    return (*make_pauli(axes, L), L)
