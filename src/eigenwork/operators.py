"""Translation+inversion symmetric Hermitian operators and control bases.

A SymmetrizedOperator is a real-weighted sum of Hermitian Pauli strings
whose string multiset is closed under translation and reflection. Its strings
are the translates of short strings, counted by :func:`_translates`, and two
constructors form them: :func:`translation_sum` weights the translation sums
of a few words (the Ising target and ``sum X``), and
:func:`_dihedral_orbit` gives the control basis for locality k one element
per dihedral orbit of the strings on at most k contiguous sites. These are
normalized to Frobenius norm sqrt(L * 2^L), which makes them pairwise
orthogonal with Tr[Q_a^dag Q_b] = L * 2^L * delta_ab. The string-level
Gram matrix and the full-space matrices that check this are test oracles, in
``tests/oracles.py``.

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
from .sector import (NumericalConsistencyError, SectorBasis, check_hermiticity,
                     manifest_checksum, sector_entries)

TERM_DROP_TOL = 1e-14  # a summed coefficient at most this large is dropped
SYMMETRY_TOL = 1e-12  # largest coefficient change a translation or reflection may make


def _combine_terms(raw_terms, L):
    """(coeff, x, z) triples: same-mask coefficients summed in input order, zeros
    dropped, sorted by masks. A mask bit at or above L or a non-finite sum is rejected."""
    acc: dict[tuple[int, int], float] = {}
    for coeff, x, z in raw_terms:
        if (x | z) >> L:
            raise ValueError("term chain length mismatch")
        acc[x, z] = acc.get((x, z), 0.0) + coeff
    if not all(map(math.isfinite, acc.values())):
        raise ValueError("operator coefficients must be finite")
    return tuple((float(c), x, z) for (x, z), c in sorted(acc.items()) if abs(c) > TERM_DROP_TOL)


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
    """Hermitian, translation+inversion symmetric weighted Pauli-string sum.

    ``terms`` holds one (coeff, x, z) triple per string, by masks ascending.
    """

    label: str
    terms: tuple
    L: int
    norm_sq: float = field(init=False)

    def __post_init__(self):
        self.terms = _combine_terms(self.terms, self.L)
        d = float(1 << self.L)
        self.norm_sq = d * sum(c * c for c, _, _ in self.terms)

    def is_symmetric(self) -> bool:
        L = self.L
        ref = {(x, z): c for c, x, z in self.terms}
        for image in (lambda m: pauli.rotate_bits(m, 1, L), lambda m: pauli.reflect_bits(m, L)):
            for c, x, z in self.terms:
                if abs(ref.get((image(x), image(z)), 0.0) - c) > SYMMETRY_TOL:
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

    def __repr__(self):
        return f"SymmetrizedOperator({self.label!r}, {len(self.terms)} strings, L={self.L})"


def enumerate_window_paulis(L: int, k: int) -> list[tuple[int, int]]:
    """Masks (x, z) of the non-identity strings in a k-site window, first site occupied.

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
        orbit = _translates(*pauli.make_pauli(enumerate(word), L), L)
        terms += [(coeff * count, x, z) for (x, z), count in orbit.items()]
    return SymmetrizedOperator(label, tuple(terms), L)


def _dihedral_orbit(x: int, z: int, L: int) -> tuple[Counter, bool]:
    """Mask counts of string (x, z)'s translates and, when its reflection is not
    one of them, of the reflection's translates; and whether it is one of them."""
    orbit = _translates(x, z, L)
    reflected = (pauli.reflect_bits(x, L), pauli.reflect_bits(z, L))
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
    terms = tuple((scale * count, x, z) for (x, z), count in orbit.items())
    return SymmetrizedOperator(label, terms, L)


def build_basis(L: int, k: int) -> list[SymmetrizedOperator]:
    """Orthogonal translation-invariant, inversion-symmetric basis B_k.

    One element per dihedral orbit of the window strings. The orbit's first
    generator gives its label (``+R`` marks a translation orbit summed with
    its reflection) and its sort key, the generator's window span. Elements
    are sorted by that span, then by the orbit's smallest masks (x, z).
    """
    seen, found = set(), []
    for gen in enumerate_window_paulis(L, k):
        orbit, symmetric = _dihedral_orbit(*gen, L)
        key = min(orbit)
        if key in seen:
            continue
        seen.add(key)
        label = pauli.to_text(*gen, L).split(" @")[0] + ("" if symmetric else " +R")
        found.append((pauli.window_span(*gen), key, label, orbit))
    found.sort(key=lambda f: f[:2])
    return [_orbit_operator(label, orbit, L) for _, _, label, orbit in found]


def sum_x(L: int) -> SymmetrizedOperator:
    """sum_l sigma^x_l, the gradient-unlocking perturbation generator."""
    return translation_sum("sum X", [(1.0, "X")], L)


def operator_manifest(ops, L: int) -> str:
    """Text manifest (label, terms, norm); replay compares only its checksum."""
    lines = ["# eigenwork operator basis v1", f"L {L}", f"count {len(ops)}"]
    for i, op in enumerate(ops):
        lines.append(f"op {i} | {op.label} | norm_sq {op.norm_sq:.17g}")
        for c, x, z in op.terms:
            lines.append(f"  {c:.17g} {pauli.to_text(x, z, op.L)}")
    return "\n".join(lines) + "\n"


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
    full-space Frobenius norm of any coefficient combination, the test
    oracle of the norm constraint, is ``frobenius_norm_sq`` in
    ``tests/oracles.py``.

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
        self.basis = basis
        self.dim = basis.dim
        self.n_ops = len(self.ops)
        self.L = basis.L
        self.manifest = operator_manifest(self.ops, basis.L)
        self.checksum = manifest_checksum(self.manifest)
        # A string commutes with the global flip prod_l X_l when it has an even
        # number of Z and Y factors, an even popcount of its z mask.
        self.flip_even = all(z.bit_count() % 2 == 0 for op in self.ops for _, _, z in op.terms)

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
        # The gather's copy of Im K, then of Re K, reused at every step. It is
        # allocated by the first gather, so a quench, which gathers nothing,
        # allocates none.
        self._part = None

    def assemble(self, gamma: np.ndarray) -> np.ndarray:
        """Dense sector matrix of sum_i gamma_i Q_i, certified Hermitian.

        A stack with no imaginary column returns a real H, the sparse product
        A gamma itself; any other returns a fresh complex H.

        Rejects a non-finite row, and a row whose bound sum_i |gamma_i| dev[i]
        fails :func:`check_hermiticity` at scale m = max(max |Re H|, max |Im
        H|) <= max |H|.
        """
        gamma = np.asarray(gamma, dtype=float)
        if gamma.shape != (self.n_ops,):
            raise ValueError("coefficient vector length mismatch")
        if not np.isfinite(gamma).all():
            raise NumericalConsistencyError("coefficient row has non-finite entries")
        if not self.imag.nnz:
            H = (self.real @ gamma).reshape(self.dim, self.dim)
        else:
            H = np.empty((self.dim, self.dim), dtype=complex)
            H.real = (self.real @ gamma).reshape(self.dim, self.dim)
            H.imag = (self.imag @ gamma).reshape(self.dim, self.dim)
        parts = (H.real, H.imag) if np.iscomplexobj(H) else (H,)
        check_hermiticity(float(np.abs(gamma) @ self.dev),
                          lambda: np.max([(p.max(), -p.min()) for p in parts]),
                          "assembled H fails hermiticity bound: sum |gamma_i| dev_i")
        return H

    def gather_quadratic(self, K: np.ndarray) -> np.ndarray:
        """Im q, where q_i = sum_{r,c} Q_i[r,c] * K[r,c].

        The sparse products read Im K and Re K from one scratch vector the
        stack keeps, allocated by the first gather, instead of from a fresh
        copy of each part per call.
        """
        K = K.ravel()
        if self._part is None:
            self._part = np.empty(self.dim * self.dim)
        np.copyto(self._part, K.imag)
        q = self._real_T @ self._part
        np.copyto(self._part, K.real)
        q += self._imag_T @ self._part
        return q
