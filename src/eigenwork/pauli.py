"""Bitmask-encoded Pauli strings on a periodic chain of L sites.

A string is stored as ``i^phase_pow * prod_l X_l^{x_l} Z_l^{z_l}`` where bit l
of ``x_mask`` / ``z_mask`` refers to site l. A site with both bits set carries
the product XZ; since sigma^y = i XZ, every Y site shifts ``phase_pow`` by one.
The canonical Hermitian gauge used throughout is ``phase_pow = n_Y mod 4``,
which makes the stored operator equal to the plain product of its X/Y/Z letters
with prefactor +1.

Basis convention: bit l of a computational index holds site l, and the bit
value 0 is the +1 eigenstate of sigma^z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

_AXIS_MASKS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@dataclass(frozen=True)
class PauliString:
    x_mask: int
    z_mask: int
    phase_pow: int
    n_sites: int

    def __post_init__(self):
        L = self.n_sites
        if L < 1:
            raise ValueError(f"n_sites must be positive, got {L}")
        full = (1 << L) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask contains a bit at position >= n_sites")
        object.__setattr__(self, "phase_pow", self.phase_pow % 4)

    @property
    def y_mask(self) -> int:
        return self.x_mask & self.z_mask

    @property
    def n_y(self) -> int:
        return bin(self.y_mask).count("1")

    @property
    def support(self) -> int:
        return self.x_mask | self.z_mask

    def is_hermitian(self) -> bool:
        # P^dag = i^{-p} (-1)^{n_Y} X^x Z^z, so Hermitian iff p and n_Y share parity.
        return (self.phase_pow - self.n_y) % 2 == 0

    def axis_at(self, site: int) -> str | None:
        x = (self.x_mask >> site) & 1
        z = (self.z_mask >> site) & 1
        if x and z:
            return "Y"
        if x:
            return "X"
        if z:
            return "Z"
        return None

    def __str__(self) -> str:
        return to_text(self)


def make_pauli(axes, L: int) -> PauliString:
    """Build the Hermitian string with the given (site, axis) factors.

    ``axes`` is an iterable of ``(site, axis)`` with axis in {"X","Y","Z"}.
    The result carries unit physical prefactor (canonical Hermitian gauge).
    """
    x_mask = 0
    z_mask = 0
    seen = set()
    n_y = 0
    for site, axis in axes:
        if not 0 <= site < L:
            raise ValueError(f"site {site} out of range for L={L}")
        if site in seen:
            raise ValueError(f"duplicate site {site}")
        seen.add(site)
        try:
            bx, bz = _AXIS_MASKS[axis.upper()]
        except KeyError:
            raise ValueError(f"unknown axis {axis!r}") from None
        x_mask |= bx << site
        z_mask |= bz << site
        if bx and bz:
            n_y += 1
    return PauliString(x_mask, z_mask, n_y % 4, L)


def canonical_hermitian(x_mask: int, z_mask: int, L: int) -> PauliString:
    """Hermitian string with the given masks and unit physical prefactor."""
    n_y = bin(x_mask & z_mask).count("1")
    return PauliString(x_mask, z_mask, n_y % 4, L)


def _rotl(mask: int, shift: int, L: int) -> int:
    shift %= L
    full = (1 << L) - 1
    return ((mask << shift) | (mask >> (L - shift))) & full if shift else mask


def _reverse_bits(mask: int, L: int) -> int:
    out = 0
    for l in range(L):
        if (mask >> l) & 1:
            out |= 1 << (L - 1 - l)
    return out


def translate(p: PauliString, shift: int) -> PauliString:
    """Shift all site indices by +shift mod L. Phase is untouched."""
    L = p.n_sites
    return PauliString(_rotl(p.x_mask, shift, L), _rotl(p.z_mask, shift, L),
                       p.phase_pow, L)


def invert(p: PauliString) -> PauliString:
    """Reflect sites l -> L-1-l. Phase is untouched."""
    L = p.n_sites
    return PauliString(_reverse_bits(p.x_mask, L), _reverse_bits(p.z_mask, L),
                       p.phase_pow, L)


def apply_to_basis_indices(p: PauliString, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply p to each |n> of an index array: (m, c) with p|n> = c|m>, |c| = 1."""
    n = np.asarray(n, dtype=np.int64)
    m = n ^ np.int64(p.x_mask)
    parity = np.bitwise_count(n & np.int64(p.z_mask)) & 1
    coeff = PHASES[p.phase_pow] * np.where(parity, -1.0, 1.0)
    return m, coeff


def dense_matrix(p: PauliString) -> np.ndarray:
    """Full 2^L x 2^L matrix assembled column by column. Test-scale only."""
    d = 1 << p.n_sites
    cols = np.arange(d, dtype=np.int64)
    rows, coeffs = apply_to_basis_indices(p, cols)
    mat = np.zeros((d, d), dtype=complex)
    mat[rows, cols] = coeffs
    return mat


def window_span(p: PauliString) -> int:
    """Length of the smallest contiguous window (no wraparound) holding the support.

    The identity has span 0. For a string with support {0, 1} the span is 2;
    for {0, 2} it is 3. Positions are read on the open chain 0..L-1.
    """
    sup = p.support
    if sup == 0:
        return 0
    lo = (sup & -sup).bit_length() - 1
    hi = sup.bit_length() - 1
    return hi - lo + 1


def to_text(p: PauliString) -> str:
    """Canonical text form, e.g. 'X0 Z1 @L=4 *i^0'.

    The trailing i-power is the physical prefactor relative to the plain
    product of the listed letters, so Hermitian strings show *i^0 or *i^2.
    """
    parts = []
    for site in range(p.n_sites):
        axis = p.axis_at(site)
        if axis is not None:
            parts.append(f"{axis}{site}")
    body = " ".join(parts) if parts else "I"
    k = (p.phase_pow - p.n_y) % 4
    return f"{body} @L={p.n_sites} *i^{k}"


def from_text(text: str) -> PauliString:
    """Parse the canonical text form produced by :func:`to_text`."""
    tokens = text.split()
    if len(tokens) < 3 or not tokens[-2].startswith("@L=") or not tokens[-1].startswith("*i^"):
        raise ValueError(f"malformed pauli text {text!r}")
    L = int(tokens[-2][3:])
    k = int(tokens[-1][3:])
    axes = []
    for tok in tokens[:-2]:
        if tok == "I":
            continue
        axes.append((int(tok[1:]), tok[0]))
    base = make_pauli(axes, L)
    return PauliString(base.x_mask, base.z_mask, (base.phase_pow + k) % 4, L)
