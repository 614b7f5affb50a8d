"""Bitmask-encoded Hermitian Pauli strings on a periodic chain of L sites.

A string is the plain product of its X/Y/Z letters with prefactor +1. Bit l
of ``x_mask`` / ``z_mask`` refers to site l, and a site with both bits set
carries Y. Since sigma^y = i XZ, the string equals
``i^{n_Y} prod_l X_l^{x_l} Z_l^{z_l}``, and every string is Hermitian.

Translation and reflection of the chain act on masks through
:func:`rotate_bits` and :func:`reflect_bits`, which take Python ints and int64
arrays of computational basis indices alike.

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
    n_sites: int

    def __post_init__(self):
        L = self.n_sites
        if L < 1:
            raise ValueError(f"n_sites must be positive, got {L}")
        full = (1 << L) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask contains a bit at position >= n_sites")

    @property
    def n_y(self) -> int:
        return bin(self.x_mask & self.z_mask).count("1")

    @property
    def support(self) -> int:
        return self.x_mask | self.z_mask

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
    """Build the string with the given (site, axis) factors.

    ``axes`` is an iterable of ``(site, axis)`` with axis in {"X","Y","Z"}.
    """
    x_mask = 0
    z_mask = 0
    seen = set()
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
    return PauliString(x_mask, z_mask, L)


def rotate_bits(mask, shift: int, L: int):
    """Move bit l of an L-bit mask to bit (l + shift) mod L: site translation.

    ``mask`` is a Python int or an int64 array of masks.
    """
    shift %= L
    if shift == 0:
        return mask
    return ((mask << shift) | (mask >> (L - shift))) & ((1 << L) - 1)


def reflect_bits(mask, L: int):
    """Move bit l of an L-bit mask to bit L-1-l: site reflection.

    ``mask`` is a Python int or an int64 array of masks.
    """
    out = mask & 0  # 0, or a zero array of the mask array's shape and dtype
    for l in range(L):
        out |= ((mask >> l) & 1) << (L - 1 - l)
    return out


def translate(p: PauliString, shift: int) -> PauliString:
    """Shift all site indices by +shift mod L."""
    L = p.n_sites
    return PauliString(rotate_bits(p.x_mask, shift, L), rotate_bits(p.z_mask, shift, L), L)


def invert(p: PauliString) -> PauliString:
    """Reflect sites l -> L-1-l."""
    L = p.n_sites
    return PauliString(reflect_bits(p.x_mask, L), reflect_bits(p.z_mask, L), L)


def apply_to_basis_indices(p: PauliString, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply p to each |n> of an index array: (m, c) with p|n> = c|m>, |c| = 1."""
    n = np.asarray(n, dtype=np.int64)
    m = n ^ np.int64(p.x_mask)
    parity = np.bitwise_count(n & np.int64(p.z_mask)) & 1
    coeff = PHASES[p.n_y % 4] * np.where(parity, -1.0, 1.0)
    return m, coeff


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

    The trailing i-power is the prefactor of the product of the listed
    letters, always ``*i^0``; manifest format v1 keeps it.
    """
    parts = []
    for site in range(p.n_sites):
        axis = p.axis_at(site)
        if axis is not None:
            parts.append(f"{axis}{site}")
    body = " ".join(parts) if parts else "I"
    return f"{body} @L={p.n_sites} *i^0"

