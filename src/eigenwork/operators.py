"""Translation+inversion symmetric Hermitian operators and control bases.

A SymmetrizedOperator is a real-weighted sum of Hermitian Pauli strings
whose string multiset is closed under translation and reflection. Its strings
are the translates of short strings, counted by :func:`_translates`, and two
constructors form them: :func:`translation_sum` weights the translation sums
of a few words (the Ising target, ``sum X``, the discrete actions), and
:func:`_dihedral_orbit` gives the control basis for locality k one element
per dihedral orbit of the strings on at most k contiguous sites. These are
normalized to Frobenius norm sqrt(L * 2^L), which makes them pairwise
orthogonal with Tr[Q_a^dag Q_b] = L * 2^L * delta_ab.

For k <= L/2 every translation orbit has full length L and the normalization
is automatic; for larger windows (e.g. k=8 on L=12) orbits can be shorter and
elements are scaled to keep the norm convention, which the norm-constrained
optimizer relies on.

In the real k=0, R=+1 sector basis each string's matrix elements are real or
imaginary according to its number of Y factors, and every string of one
symmetrized orbit has the same count. So each basis element is either real
symmetric or imaginary antisymmetric there, and :class:`OperatorStack` keeps
its operators as two real column-major matrices instead of one complex one.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import pauli
from .pauli import PauliString, window_span
from .sector import (NumericalConsistencyError, SectorBasis, check_hermiticity,
                     manifest_checksum, sector_entries)


def _combine_terms(raw_terms, L, tol=1e-14):
    """Sum the coefficients of same-mask strings; drop zeros; sort by masks."""
    acc: dict[tuple[int, int], list] = {}  # masks -> [summed coefficient, first string]
    for coeff, p in raw_terms:
        if p.n_sites != L:
            raise ValueError("term chain length mismatch")
        entry = acc.setdefault((p.x_mask, p.z_mask), [0.0, p])
        entry[0] += coeff
    return tuple((float(c), p) for _, (c, p) in sorted(acc.items()) if abs(c) > tol)


def _asymmetry(flat, values, combine, mirror, dim) -> float:
    """max |combine(M[r,c], M[c,r])| over the entries (flat, values) of a real matrix M.

    ``mirror`` is a zeroed dim*dim scratch, zeroed again on return, so the
    cost is O(len(flat)); an entry whose transpose is missing counts as its
    modulus, and a zero entry adds nothing its transpose's own term lacks.
    """
    if not values.any():  # the matrix lies wholly in the other part
        return 0.0
    mirror[flat] = values
    transposed = mirror[flat * dim - flat // dim * (dim * dim - 1)]  # col * dim + row
    mirror[flat] = 0
    return float(np.abs(combine(values, transposed)).max(initial=0.0))


def certified_entries(op, basis: SectorBasis, mirror=None):
    """(flat, vals, dev): ``op``'s :func:`sector_entries` and their Hermiticity certificate.

    dev = max |Q[r,c] - conj Q[c,r]| of the sector matrix Q, as the hypot of
    its real and imaginary parts' deviations (exact when Q is wholly one of
    them), checked by :func:`check_hermiticity` at scale max |Q|. A caller
    certifying many operators passes one zeroed dim*dim ``mirror`` scratch.
    """
    flat, vals = sector_entries(op.terms, basis)
    if mirror is None:
        mirror = np.zeros(basis.dim * basis.dim)
    # real part symmetric, imaginary part antisymmetric:
    # Q[r,c] - conj Q[c,r] = (Re Q - Re Q^T + i (Im Q + Im Q^T))[r,c]
    dev = math.hypot(_asymmetry(flat, vals.real, np.subtract, mirror, basis.dim),
                     _asymmetry(flat, vals.imag, np.add, mirror, basis.dim))
    check_hermiticity(dev, lambda: np.abs(vals).max(initial=0.0),
                      f"operator {op.label!r} fails hermiticity check: max |Q - Q^dag|")
    return flat, vals, dev


@dataclass(eq=False)
class SymmetrizedOperator:
    """Hermitian, translation+inversion symmetric weighted Pauli-string sum."""

    label: str
    terms: tuple
    L: int
    norm_sq: float = field(init=False)

    def __post_init__(self):
        self.terms = _combine_terms(self.terms, self.L)
        d = float(1 << self.L)
        self.norm_sq = d * sum(c * c for c, _ in self.terms)

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        ref = {(p.x_mask, p.z_mask): c for c, p in self.terms}
        for image in (lambda p: pauli.translate(p, 1), pauli.invert):
            for c, p in self.terms:
                q = image(p)
                if abs(ref.get((q.x_mask, q.z_mask), 0.0) - c) > tol:
                    return False
        return True

    def sector_matrix(self, basis: SectorBasis) -> scipy.sparse.csr_array:
        """Hermitian sector matrix <s|op|s'> in the one form of a fixed sector matrix:
        the CSR array of :func:`certified_entries`, real when no entry is imaginary."""
        if basis.L != self.L:
            raise ValueError("sector basis chain length mismatch")
        if not self.is_symmetric():
            raise ValueError(f"operator {self.label!r} is not "
                             "translation+inversion symmetric")
        flat, vals, _ = certified_entries(self, basis)
        rows, cols = np.array(divmod(flat, basis.dim), dtype=np.int32)  # as csr_array(dense) picks
        return scipy.sparse.csr_array((vals if vals.imag.any() else vals.real, (rows, cols)),
                                      shape=(basis.dim, basis.dim))

    def dense_matrix(self) -> np.ndarray:
        """Full 2^L matrix, the weighted sum of :func:`pauli.dense_matrix`; test-scale only."""
        mat = np.zeros((1 << self.L, 1 << self.L), dtype=complex)
        for c, p in self.terms:
            mat += c * pauli.dense_matrix(p)
        return mat

    def __repr__(self):
        return f"SymmetrizedOperator({self.label!r}, {len(self.terms)} strings, L={self.L})"


def enumerate_window_paulis(L: int, k: int) -> list[PauliString]:
    """Non-identity Hermitian strings in a k-site window, first site occupied.

    Canonical positioning (support starts at site 0) plus downstream dedup
    makes the window placement irrelevant after translation symmetrization.
    """
    if not 1 <= k <= L:
        raise ValueError(f"k={k} outside [1, L={L}]")
    out = []
    for first in "XYZ":
        for rest in itertools.product("IXYZ", repeat=k - 1):
            axes = [(0, first)]
            axes += [(i + 1, a) for i, a in enumerate(rest) if a != "I"]
            out.append(pauli.make_pauli(axes, L))
    return out


def _translates(x: int, z: int, L: int) -> Counter:
    """Mask counts of the L translates of string (x, z); each is L / its period."""
    return Counter((pauli.rotate_bits(x, shift, L), pauli.rotate_bits(z, shift, L))
                   for shift in range(L))


def translation_sum(label: str, words, L: int) -> SymmetrizedOperator:
    """sum_j c_j sum_l T^l(w_j) for ``words = [(c_j, "ZZ"), ...]``.

    The letters of each word sit on sites 0, 1, ...; T translates by one site.
    A word that equals some of its own translates is counted once per
    translate, as a sum over sites would count it (Z0 Z1 twice at L=2).
    """
    terms = []
    for coeff, word in words:
        p = pauli.make_pauli(enumerate(word), L)
        terms += [(coeff * count, PauliString(x, z, L))
                  for (x, z), count in _translates(p.x_mask, p.z_mask, L).items()]
    return SymmetrizedOperator(label, tuple(terms), L)


def _dihedral_orbit(p: PauliString) -> tuple[Counter, bool]:
    """Mask counts of p's translates and, when p's reflection is not one of
    them, of the reflection's translates; and whether it is one of them."""
    L = p.n_sites
    orbit = _translates(p.x_mask, p.z_mask, L)
    reflected = (pauli.reflect_bits(p.x_mask, L), pauli.reflect_bits(p.z_mask, L))
    symmetric = reflected in orbit
    if not symmetric:
        orbit.update(_translates(*reflected, L))
    return orbit, symmetric


def _orbit_operator(label, orbit, L):
    """The orbit's strings weighted by their counts, scaled to norm_sq L * 2^L."""
    target = float(L * (1 << L))
    # integer counts: the sum is exact, so it equals norm_sq's float sum in any order
    norm_sq = float(1 << L) * sum(count * count for count in orbit.values())
    scale = np.sqrt(target / norm_sq) if abs(norm_sq - target) > 1e-9 * target else 1.0
    terms = tuple((scale * count, PauliString(x, z, L)) for (x, z), count in orbit.items())
    return SymmetrizedOperator(label, terms, L)


def build_basis(L: int, k: int) -> list[SymmetrizedOperator]:
    """Orthogonal translation-invariant, inversion-symmetric basis B_k.

    One element per dihedral orbit of the window strings. The orbit's first
    generator gives its label (``+R`` marks a translation orbit summed with
    its reflection) and its sort key, the generator's window span. Elements
    are sorted by that span, then by the orbit's smallest (x_mask, z_mask).
    """
    seen, found = set(), []
    for gen in enumerate_window_paulis(L, k):
        orbit, symmetric = _dihedral_orbit(gen)
        key = min(orbit)
        if key in seen:
            continue
        seen.add(key)
        label = pauli.to_text(gen).split(" @")[0] + ("" if symmetric else " +R")
        found.append((window_span(gen), key, label, orbit))
    found.sort(key=lambda f: f[:2])
    return [_orbit_operator(label, orbit, L) for _, _, label, orbit in found]


def sum_x(L: int) -> SymmetrizedOperator:
    """sum_l sigma^x_l, the gradient-unlocking perturbation generator."""
    return translation_sum("sum X", [(1.0, "X")], L)


def discrete_action_set(L: int) -> list[SymmetrizedOperator]:
    """The seven-element Hermitian generator set of the discrete protocol mode.

    Couplings (J, h_I, h_N, g_I, g_N) = (1, 0, 0.9045, 0.5, 0.809); every
    element has Frobenius norm at most sqrt(2 L 2^L).
    """
    J, h_i, h_n, g_i, g_n = 1.0, 0.0, 0.9045, 0.5, 0.809
    table = [
        ("zz + hI z", [(J, "ZZ"), (h_i, "Z")]),
        ("zz + hN z", [(J, "ZZ"), (h_n, "Z")]),
        ("xy + yx", [(1.0, "XY"), (1.0, "YX")]),
        ("yz + zy", [(1.0, "YZ"), (1.0, "ZY")]),
        ("gI x", [(g_i, "X")]),
        ("gN x", [(g_n, "X")]),
        ("y", [(1.0, "Y")]),
    ]
    ops = [translation_sum(label, words, L) for label, words in table]
    bound = 2.0 * L * (1 << L)
    for op in ops:
        if op.norm_sq > bound * (1 + 1e-12):
            raise ValueError(f"discrete action {op.label!r} violates the norm bound")
    return ops


def operator_manifest(ops, L: int) -> str:
    """Text manifest (label, terms, norm); replay compares only its checksum."""
    lines = ["# eigenwork operator basis v1", f"L {L}", f"count {len(ops)}"]
    for i, op in enumerate(ops):
        lines.append(f"op {i} | {op.label} | norm_sq {op.norm_sq:.17g}")
        for c, p in op.terms:
            lines.append(f"  {c:.17g} {pauli.to_text(p)}")
    return "\n".join(lines) + "\n"


def string_coefficients(ops) -> scipy.sparse.csr_matrix:
    """(ops x distinct string masks) table of string coefficients, masks sorted."""
    keys = sorted({(p.x_mask, p.z_mask) for op in ops for _, p in op.terms})
    index = {k: i for i, k in enumerate(keys)}
    data, si, sj = [], [], []
    for i, op in enumerate(ops):
        for c, p in op.terms:
            si.append(i)
            sj.append(index[(p.x_mask, p.z_mask)])
            data.append(c)
    return scipy.sparse.csr_matrix((data, (si, sj)), shape=(len(ops), len(keys)))


def symbolic_gram(ops, L: int) -> np.ndarray:
    """Gram matrix Tr[Q_a^dag Q_b] from string-level trace orthogonality."""
    coef = string_coefficients(ops)
    return float(1 << L) * (coef @ coef.T).toarray()


class OperatorStack:
    """Sector representation of an operator list, packed for per-step work.

    Column i of the (dim*dim x n_ops) stack is the flattened sector matrix of
    Q_i, its :func:`sector_entries`. It is held as two real CSC matrices, the
    real part A and the imaginary part B, with zero entries left out, so both
    products run over n_ops long columns:

    - assembly of sum_i gamma_i Q_i is A gamma + i B gamma;
    - the gradient gather is Im q = A^T Im(K) + B^T Re(K), with
      q_i = sum_{r,c} Q_i[r,c] K[r,c].

    Each entry holds the same sum as :meth:`SymmetrizedOperator.sector_matrix`.
    Each column lies wholly in A or wholly in B for the operators used here
    (see the module docstring), so both products add the same terms in the
    same order as the complex products with A + iB, bit for bit. The exact
    full-space Frobenius norm of any coefficient combination is kept as a
    test oracle.

    Hermiticity is proven once per column, and not per step: each column
    comes from :func:`certified_entries`, the path that
    :meth:`SymmetrizedOperator.sector_matrix` takes too, and keeps its
    certificate ``dev[i] = max |Q_i[r,c] - conj Q_i[c,r]|``. The sum_i
    gamma_i Q_i of the stored entries then satisfies max |H - H^dag| <=
    sum_i |gamma_i| dev[i], and :meth:`assemble` checks that bound by
    :func:`sector.check_hermiticity` at H's scale; the assembled H
    differs from that sum only by the rounding of its sparse products. This
    is the Hermiticity that :func:`propagate.expm_step` and
    :func:`propagate.spectral_propagator` take as a precondition.
    """

    def __init__(self, ops, basis: SectorBasis):
        self.ops = list(ops)
        self.dim = basis.dim
        self.n_ops = len(self.ops)
        self.L = basis.L
        self.manifest = operator_manifest(self.ops, basis.L)
        self.checksum = manifest_checksum(self.manifest)

        shape = (self.dim * self.dim, self.n_ops)
        # int32 row indices where they fit, as scipy picks
        index = np.int32 if shape[0] <= np.iinfo(np.int32).max else np.int64
        # A column has at most its triplet count of entries; pages of the
        # preallocated arrays that no entry reaches are never touched.
        capacity = sum(len(op.terms) for op in self.ops) * self.dim
        parts = [(np.empty(capacity, index), np.empty(capacity), np.zeros(self.n_ops + 1, np.int64))
                 for _ in range(2)]  # (rows, values, indptr) of A and of B
        mirror = np.zeros(shape[0])  # the certificate's scratch, shared by the columns
        self.dev = np.empty(self.n_ops)
        for i, op in enumerate(self.ops):
            flat, vals, self.dev[i] = certified_entries(op, basis, mirror)
            for (rows, data, indptr), values in zip(parts, (vals.real, vals.imag)):
                keep = values != 0
                start, end = indptr[i], indptr[i] + np.count_nonzero(keep)
                rows[start:end] = flat[keep]
                data[start:end] = values[keep]
                indptr[i + 1] = end
        for rows, data, indptr in parts:
            # shrink in place: scipy would copy a slice of a much larger buffer
            rows.resize(indptr[-1], refcheck=False)
            data.resize(indptr[-1], refcheck=False)
        self.real, self.imag = (scipy.sparse.csc_matrix((data, rows, indptr), shape=shape)
                                for rows, data, indptr in parts)
        # CSR views of the transposes share the arrays; taken once, not per gather.
        self._real_T, self._imag_T = self.real.T, self.imag.T
        # The gather's contiguous copy of Im K, then of Re K. Its pages are
        # mapped by the first gather and reused by every later one.
        self._part = np.empty(self.dim * self.dim)

    def assemble(self, gamma: np.ndarray) -> np.ndarray:
        """Dense sector matrix of sum_i gamma_i Q_i, certified Hermitian.

        Rejects a non-finite row, and a row whose bound sum_i |gamma_i| dev[i]
        fails :func:`check_hermiticity` at scale m = max(max |Re H|, max |Im
        H|) <= max |H|.
        """
        gamma = np.asarray(gamma, dtype=float)
        if gamma.shape != (self.n_ops,):
            raise ValueError("coefficient vector length mismatch")
        if not np.isfinite(gamma).all():
            raise NumericalConsistencyError("coefficient row has non-finite entries")
        H = np.empty((self.dim, self.dim), dtype=complex)
        H.real = (self.real @ gamma).reshape(self.dim, self.dim)
        H.imag = (self.imag @ gamma).reshape(self.dim, self.dim)
        check_hermiticity(float(np.abs(gamma) @ self.dev),
                          lambda: max(np.abs(H.real).max(), np.abs(H.imag).max()),
                          "assembled H fails hermiticity bound: sum |gamma_i| dev_i")
        return H

    def gather_quadratic(self, K: np.ndarray) -> np.ndarray:
        """Im q, where q_i = sum_{r,c} Q_i[r,c] * K[r,c].

        The sparse products read Im K and Re K from one scratch vector the
        stack keeps, instead of from a fresh copy of each part per call.
        """
        K = K.ravel()
        np.copyto(self._part, K.imag)
        q = self._real_T @ self._part
        np.copyto(self._part, K.real)
        q += self._imag_T @ self._part
        return q

    def frobenius_norm_sq(self, gamma: np.ndarray) -> float:
        """Exact full-space ||sum_i gamma_i Q_i||_2^2 via string coefficients."""
        combined = string_coefficients(self.ops).T @ np.asarray(gamma, dtype=float)
        return float((1 << self.L) * np.dot(combined, combined))
