"""Hermitian Pauli strings on a periodic chain of L sites, as int mask pairs.

A string is the pair ``(x, z)`` of L-bit masks: bit l of ``x`` / ``z``
refers to site l, and a site with both bits set carries Y. It is the plain
product of its X/Y/Z letters with prefactor +1. Since sigma^y = i XZ, the
string equals ``i^{n_Y} prod_l X_l^{x_l} Z_l^{z_l}`` with n_Y the number of
bits set in ``x & z``, and every string is Hermitian.

Translation and reflection of the chain act on masks through
:func:`rotate_bits` and :func:`reflect_bits`, which take Python ints and int64
arrays of computational basis indices alike.

Basis convention: bit l of a computational index holds site l, and the bit
value 0 is the +1 eigenstate of sigma^z.
"""

from __future__ import annotations

_AXIS_MASKS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def make_pauli(axes, L: int) -> tuple[int, int]:
    """The masks (x, z) of the string with the given (site, axis) factors.

    ``axes`` is an iterable of ``(site, axis)`` with axis in {"X","Y","Z"}.
    """
    x = 0
    z = 0
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
        x |= bx << site
        z |= bz << site
    return x, z


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


def window_span(x: int, z: int) -> int:
    """Length of the smallest contiguous window (no wraparound) holding the support.

    The identity has span 0. For a string with support {0, 1} the span is 2;
    for {0, 2} it is 3. Positions are read on the open chain 0..L-1.
    """
    sup = x | z
    if sup == 0:
        return 0
    lo = (sup & -sup).bit_length() - 1
    hi = sup.bit_length() - 1
    return hi - lo + 1


def to_text(x: int, z: int, L: int) -> str:
    """Canonical text form, e.g. 'X0 Z1 @L=4 *i^0'.

    The trailing i-power is the prefactor of the product of the listed
    letters, always ``*i^0``; manifest format v1 keeps it.
    """
    parts, sup = [], x | z
    while sup:  # visit the set bits of the support, lowest site first
        site = (sup & -sup).bit_length() - 1
        parts.append(f"{'IXZY'[(x >> site & 1) + 2 * (z >> site & 1)]}{site}")  # Y: both bits
        sup &= sup - 1
    body = " ".join(parts) if parts else "I"
    return f"{body} @L={L} *i^0"
