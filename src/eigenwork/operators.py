"""Translation+inversion symmetric Hermitian operators and control bases.

A SymmetrizedOperator is a real-weighted sum of canonical Hermitian Pauli
strings whose string multiset is closed under translation and reflection.
The control basis for locality k collects, for every window string supported
on at most k contiguous sites, the sum of all its translates; inversion-
asymmetric sums are paired with their reflections. All basis elements are
normalized to Frobenius norm sqrt(L * 2^L), which makes them pairwise
orthogonal with Tr[Q_a^dag Q_b] = L * 2^L * delta_ab.

For k <= L/2 every translation orbit has full length L and the normalization
is automatic; for larger windows (e.g. k=8 on L=12) orbits can be shorter and
elements are rescaled to keep the norm convention, which the norm-constrained
optimizer relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import pauli
from .pauli import PauliString, canonical_hermitian, window_span
from .sector import SectorBasis, manifest_checksum, project_operator, sector_triplets


def _combine_terms(raw_terms, L, tol=1e-14):
    """Merge same-mask strings into canonical gauge; drop zeros; sort."""
    acc: dict[tuple[int, int], complex] = {}
    for coeff, p in raw_terms:
        if p.n_sites != L:
            raise ValueError("term chain length mismatch")
        canon = canonical_hermitian(p.x_mask, p.z_mask, L)
        rel = pauli.PHASES[(p.phase_pow - canon.phase_pow) % 4]
        key = (p.x_mask, p.z_mask)
        acc[key] = acc.get(key, 0.0) + coeff * rel
    terms = []
    for (x, z), c in sorted(acc.items()):
        if abs(c) <= tol:
            continue
        if abs(c.imag) > 1e-12 * max(1.0, abs(c)):
            raise ValueError("non-Hermitian combination: complex string coefficient")
        terms.append((float(c.real), canonical_hermitian(x, z, L)))
    return tuple(terms)


@dataclass(eq=False)
class SymmetrizedOperator:
    """Hermitian, translation+inversion symmetric weighted Pauli-string sum."""

    label: str
    terms: tuple
    locality: int
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

    def scaled(self, factor: float, label: str | None = None) -> "SymmetrizedOperator":
        return SymmetrizedOperator(label or self.label,
                                   tuple((factor * c, p) for c, p in self.terms),
                                   self.locality, self.L)

    def sector_matrix(self, basis: SectorBasis) -> np.ndarray:
        if basis.L != self.L:
            raise ValueError("sector basis chain length mismatch")
        return project_operator(self, basis)

    def dense_matrix(self) -> np.ndarray:
        """Full 2^L matrix; test-scale only."""
        d = 1 << self.L
        mat = np.zeros((d, d), dtype=complex)
        for c, p in self.terms:
            cols = np.arange(d, dtype=np.int64)
            rows, coeffs = pauli.apply_to_basis_indices(p, cols)
            mat[rows, cols] += c * coeffs
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


def _translation_orbit(p: PauliString) -> dict[tuple[int, int], int]:
    """Mask multiset of sum_l T^l p T^-l (multiplicity = L / orbit period)."""
    orbit: dict[tuple[int, int], int] = {}
    for shift in range(p.n_sites):
        q = pauli.translate(p, shift)
        key = (q.x_mask, q.z_mask)
        orbit[key] = orbit.get(key, 0) + 1
    return orbit


def _reflect_orbit(orbit, L):
    out = {}
    for (x, z), mult in orbit.items():
        q = pauli.invert(canonical_hermitian(x, z, L))
        out[(q.x_mask, q.z_mask)] = mult
    return out


def _orbit_key(orbit):
    return tuple(sorted(orbit.items()))


def _orbit_operator(label, orbit, locality, L):
    terms = [(float(mult), canonical_hermitian(x, z, L))
             for (x, z), mult in orbit.items()]
    op = SymmetrizedOperator(label, tuple(terms), locality, L)
    target = float(L * (1 << L))
    if abs(op.norm_sq - target) > 1e-9 * target:
        op = op.scaled(np.sqrt(target / op.norm_sq), label)
    return op


def _gen_label(p: PauliString) -> str:
    return pauli.to_text(p).split(" @")[0]


def build_basis(L: int, k: int) -> list[SymmetrizedOperator]:
    """Orthogonal translation-invariant, inversion-symmetric basis B_k."""
    generators = enumerate_window_paulis(L, k)
    orbits: dict[tuple, tuple[PauliString, dict]] = {}
    order: list[tuple] = []
    for p in generators:
        orbit = _translation_orbit(p)
        key = _orbit_key(orbit)
        if key not in orbits:
            orbits[key] = (p, orbit)
            order.append(key)

    elements = []
    consumed = set()
    for key in order:
        if key in consumed:
            continue
        gen, orbit = orbits[key]
        reflected = _reflect_orbit(orbit, L)
        rkey = _orbit_key(reflected)
        span = window_span(gen)
        if rkey == key:
            elements.append(_orbit_operator(_gen_label(gen), orbit, span, L))
        else:
            consumed.add(rkey)
            merged = dict(orbit)
            for mk, mult in reflected.items():
                merged[mk] = merged.get(mk, 0) + mult
            label = f"{_gen_label(gen)} +R"
            elements.append(_orbit_operator(label, merged, span, L))

    def sort_key(op):
        c0, p0 = min(op.terms, key=lambda t: (t[1].x_mask, t[1].z_mask))
        return (op.locality, p0.x_mask, p0.z_mask)

    elements.sort(key=sort_key)
    return elements


def sum_x(L: int) -> SymmetrizedOperator:
    """sum_l sigma^x_l, the gradient-unlocking perturbation generator."""
    terms = [(1.0, pauli.make_pauli([(l, "X")], L)) for l in range(L)]
    return SymmetrizedOperator("sum X", tuple(terms), 1, L)


def _chain_sum(L, builder):
    terms = []
    for l in range(L):
        terms.extend(builder(l))
    return terms


def discrete_action_set(L: int) -> list[SymmetrizedOperator]:
    """The seven-element Hermitian generator set of the discrete protocol mode.

    Couplings (J, h_I, h_N, g_I, g_N) = (1, 0, 0.9045, 0.5, 0.809); every
    element has Frobenius norm at most sqrt(2 L 2^L).
    """
    J, h_i, h_n, g_i, g_n = 1.0, 0.0, 0.9045, 0.5, 0.809

    def zz(l):
        return [(J, pauli.make_pauli([(l, "Z"), ((l + 1) % L, "Z")], L))]

    def two_site(a, b):
        def build(l):
            return [(1.0, pauli.make_pauli([(l, a), ((l + 1) % L, b)], L)),
                    (1.0, pauli.make_pauli([(l, b), ((l + 1) % L, a)], L))]
        return build

    def single(axis, coeff):
        def build(l):
            return [(coeff, pauli.make_pauli([(l, axis)], L))]
        return build

    specs = [
        ("zz + hI z", _chain_sum(L, zz) + _chain_sum(L, single("Z", h_i))),
        ("zz + hN z", _chain_sum(L, zz) + _chain_sum(L, single("Z", h_n))),
        ("xy + yx", _chain_sum(L, two_site("X", "Y"))),
        ("yz + zy", _chain_sum(L, two_site("Y", "Z"))),
        ("gI x", _chain_sum(L, single("X", g_i))),
        ("gN x", _chain_sum(L, single("X", g_n))),
        ("y", _chain_sum(L, single("Y", 1.0))),
    ]
    ops = [SymmetrizedOperator(label, tuple(terms), 2, L) for label, terms in specs]
    bound = 2.0 * L * (1 << L)
    for op in ops:
        if op.norm_sq > bound * (1 + 1e-12):
            raise ValueError(f"discrete action {op.label!r} violates the norm bound")
    return ops


def operator_manifest(ops, L: int) -> str:
    """Text manifest (label, terms, norm) consumed by optimizer and replay."""
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

    Holds one CSR matrix whose column i is the flattened sector matrix of
    Q_i, summed from :func:`sector_triplets`. Per time step it gives
    Hamiltonian assembly (the CSR times the coefficient vector) and the
    weighted quadratic-form gather for the gradient (the transposed CSR times
    the flattened weight matrix). The exact full-space Frobenius norm of any
    coefficient combination is kept as a test oracle.
    """

    def __init__(self, ops, basis: SectorBasis):
        self.ops = list(ops)
        self.basis = basis
        self.dim = basis.dim
        self.n_ops = len(self.ops)
        self.L = basis.L
        self.manifest = operator_manifest(self.ops, basis.L)
        self.checksum = manifest_checksum(self.manifest)

        flat, vals = [], []
        for op in self.ops:
            rows, cols, v = sector_triplets(op.terms, basis)
            flat.append(rows * self.dim + cols)
            vals.append(v)
        op_idx = np.repeat(np.arange(self.n_ops), [len(v) for v in vals])
        self._assembler = scipy.sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(flat), op_idx)),
            shape=(self.dim * self.dim, self.n_ops))

    def assemble(self, gamma: np.ndarray) -> np.ndarray:
        """Dense sector matrix of sum_i gamma_i Q_i."""
        gamma = np.asarray(gamma, dtype=float)
        if gamma.shape != (self.n_ops,):
            raise ValueError("coefficient vector length mismatch")
        return (self._assembler @ gamma).reshape(self.dim, self.dim)

    def gather_quadratic(self, K: np.ndarray) -> np.ndarray:
        """Vector q with q_i = sum_{r,c} Q_i[r,c] * K[r,c]."""
        return self._assembler.T @ K.ravel()

    def frobenius_norm_sq(self, gamma: np.ndarray) -> float:
        """Exact full-space ||sum_i gamma_i Q_i||_2^2 via string coefficients."""
        combined = string_coefficients(self.ops).T @ np.asarray(gamma, dtype=float)
        return float((1 << self.L) * np.dot(combined, combined))
