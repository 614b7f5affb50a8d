"""Pauli-string encoding: algebraic conventions checked against kron products.

A string under test is the triple (x, z, L) of its masks and chain length."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from eigenwork.operators import SymmetrizedOperator
from eigenwork.pauli import make_pauli, reflect_bits, rotate_bits, to_text, window_span
from oracles import apply_to_basis_indices, dense_matrix, from_text

SIGMA = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}  # by (x bit, z bit)


def kron_oracle(x: int, z: int, L: int) -> np.ndarray:
    """Independent dense matrix: kron product over sites, high site leftmost.

    Bit l of the basis index holds site l, so site 0 is the fastest-running
    index and must sit rightmost in the kron chain.
    """
    mat = np.eye(1, dtype=complex)
    for site in reversed(range(L)):
        mat = np.kron(mat, SIGMA[LETTER[x >> site & 1, z >> site & 1]])
    return mat


def st_pauli(max_L=6):
    def build(L, x, z):
        full = (1 << L) - 1
        return x & full, z & full, L
    return st.builds(build, st.integers(2, max_L), st.integers(0, 63),
                     st.integers(0, 63))


def translate(p, shift):
    """String p moved by +shift sites mod L: rotate_bits on both masks."""
    x, z, L = p
    return rotate_bits(x, shift, L), rotate_bits(z, shift, L), L


def invert(p):
    """String p reflected, sites l -> L-1-l: reflect_bits on both masks."""
    x, z, L = p
    return reflect_bits(x, L), reflect_bits(z, L), L


def string(axes, L):
    return (*make_pauli(axes, L), L)


def test_make_single_x():
    assert make_pauli([(0, "X")], 4) == (1, 0)


def test_make_y_matches_sigma_y():
    x, z = make_pauli([(1, "Y")], 4)
    assert x == 2 and z == 2
    expected = np.kron(np.eye(4), np.kron(SIGMA["Y"], np.eye(2)))
    assert_allclose(dense_matrix(x, z, 4), expected, atol=1e-15)


def test_make_zz_bond_hermitian():
    x, z = make_pauli([(0, "Z"), (1, "Z")], 4)
    assert z == 0b11 and x == 0


def test_make_errors():
    with pytest.raises(ValueError):
        make_pauli([(4, "X")], 4)
    with pytest.raises(ValueError):
        make_pauli([(1, "X"), (1, "Z")], 4)


def test_translate_examples():
    x0 = string([(0, "X")], 4)
    assert translate(x0, 1) == string([(1, "X")], 4)
    zz = string([(0, "Z"), (1, "Z")], 4)
    assert translate(zz, 3) == string([(3, "Z"), (0, "Z")], 4)
    assert translate(zz, 4) == zz


@given(st_pauli(), st.integers(-8, 8), st.integers(-8, 8))
def test_translate_group_action(p, a, b):
    assert translate(p, a + b) == translate(translate(p, a), b)


def test_invert_examples():
    p = string([(0, "X"), (1, "Z")], 4)
    assert invert(p) == string([(3, "X"), (2, "Z")], 4)
    palindrome = string([(1, "Z"), (2, "Z")], 4)
    assert invert(palindrome) == palindrome


@given(st_pauli())
def test_invert_involution(p):
    assert invert(invert(p)) == p


@given(st_pauli(max_L=5))
def test_invert_matches_permutation_oracle(p):
    """Reflection acts as the basis permutation n -> reverse_bits(n)."""
    L = p[2]
    perm = np.array([int(format(n, f"0{L}b")[::-1], 2) for n in range(1 << L)])
    R = np.zeros((1 << L, 1 << L))
    R[perm, np.arange(1 << L)] = 1.0
    assert_allclose(dense_matrix(*invert(p)), R @ dense_matrix(*p) @ R.T, atol=1e-14)


def test_apply_sign_conventions():
    L = 4
    z0 = make_pauli([(0, "Z")], L)
    m, c = apply_to_basis_indices(*z0, [0b0000, 0b0001])
    assert m.tolist() == [0b0000, 0b0001] and c.tolist() == [1, -1]
    x0 = make_pauli([(0, "X")], L)
    m, c = apply_to_basis_indices(*x0, [0b0000])
    assert m.tolist() == [0b0001] and c.tolist() == [1]
    y0 = make_pauli([(0, "Y")], L)
    m, c = apply_to_basis_indices(*y0, [0b0000, 0b0001])
    assert m.tolist() == [0b0001, 0b0000] and c.tolist() == [1j, -1j]


@given(st_pauli())
def test_dense_matches_kron_oracle(p):
    assert_allclose(dense_matrix(*p), kron_oracle(*p), atol=1e-14)


def test_every_string_hermitian_exhaustive():
    """Every mask pair at L <= 4 gives a Hermitian dense matrix."""
    for L in (2, 3, 4):
        for x in range(1 << L):
            for z in range(1 << L):
                mat = dense_matrix(x, z, L)
                assert np.abs(mat - mat.conj().T).max() < 1e-12


def test_mask_range_validation():
    """A term with a mask bit at or above L is rejected where it enters an operator."""
    SymmetrizedOperator("X0 X1", ((1.0, 0b11, 0),), 2)
    for x, z in ((0b100, 0), (0, 0b100), (0b1, 0b1000), (-1, 0)):
        with pytest.raises(ValueError, match="term chain length mismatch"):
            SymmetrizedOperator("bad", ((1.0, 0b1, 0b1), (1.0, x, z)), 2)


def test_window_span():
    L = 6
    assert window_span(0, 0) == 0
    assert window_span(*make_pauli([(2, "X")], L)) == 1
    assert window_span(*make_pauli([(0, "X"), (2, "Z")], L)) == 3


def test_text_form_example():
    assert to_text(*make_pauli([(0, "X"), (1, "Z")], 4), 4) == "X0 Z1 @L=4 *i^0"
    assert to_text(*make_pauli([(2, "Y")], 4), 4) == "Y2 @L=4 *i^0"
    assert to_text(0, 0, 4) == "I @L=4 *i^0"


@given(st_pauli())
def test_text_roundtrip(p):
    assert from_text(to_text(*p)) == p


@pytest.mark.parametrize("L", [2, 7, 20])
def test_text_form_edges(L):
    """The identity, and a Y on the last site, where the set-bit walk ends."""
    assert to_text(0, 0, L) == f"I @L={L} *i^0"
    assert to_text(*make_pauli([(L - 1, "Y")], L), L) == f"Y{L - 1} @L={L} *i^0"


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        from_text("X0 Z1")
    with pytest.raises(ValueError):
        from_text("X0 Z1 @L=4 *i^2")
