"""Control-basis construction: orthogonality, norms, symmetry closure."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenwork import pauli
from eigenwork.model import IsingParams, build_ising
from eigenwork.operators import (OperatorStack, SymmetrizedOperator,
                                 build_basis, discrete_action_set,
                                 enumerate_window_paulis, operator_manifest,
                                 sum_x, symbolic_gram)
from eigenwork.sector import build_sector_basis, manifest_checksum


def term_dict(op):
    return {(p.x_mask, p.z_mask): c for c, p in op.terms}


def dense_gram(ops):
    flat = np.stack([op.dense_matrix().ravel() for op in ops])
    return flat.conj() @ flat.T


def test_enumeration_counts():
    assert len(enumerate_window_paulis(8, 1)) == 3
    assert len(enumerate_window_paulis(8, 2)) == 12
    assert len(enumerate_window_paulis(12, 4)) == 192
    with pytest.raises(ValueError):
        enumerate_window_paulis(4, 0)
    with pytest.raises(ValueError):
        enumerate_window_paulis(4, 5)


def test_enumeration_translation_distinct():
    """No two canonical window strings coincide under any translation."""
    L, k = 12, 4
    strings = enumerate_window_paulis(L, k)
    orbits = set()
    for p in strings:
        orbit = frozenset((q.x_mask, q.z_mask)
                          for q in (pauli.translate(p, s) for s in range(L)))
        assert orbit not in orbits
        orbits.add(orbit)


def test_b1_content():
    L = 6
    ops = build_basis(L, 1)
    assert len(ops) == 3
    for op, axis in zip(ops, ("Z", "X", "Y")):
        expected = {(q.x_mask, q.z_mask): 1.0
                    for q in (pauli.make_pauli([(l, axis)], L) for l in range(L))}
        assert term_dict(op) == expected


def test_b2_is_the_nine_element_set():
    L = 6
    ops = build_basis(L, 2)
    assert len(ops) == 9

    def chain(axes_list, scale=1.0):
        out = {}
        for axes in axes_list:
            for l in range(L):
                q = pauli.make_pauli([((l + off) % L, ax) for off, ax in axes], L)
                out[(q.x_mask, q.z_mask)] = scale
        return out

    expected = [
        chain([[(0, "X")]]), chain([[(0, "Y")]]), chain([[(0, "Z")]]),
        chain([[(0, "X"), (1, "X")]]), chain([[(0, "Y"), (1, "Y")]]),
        chain([[(0, "Z"), (1, "Z")]]),
        chain([[(0, "X"), (1, "Y")], [(0, "Y"), (1, "X")]], 1 / np.sqrt(2)),
        chain([[(0, "X"), (1, "Z")], [(0, "Z"), (1, "X")]], 1 / np.sqrt(2)),
        chain([[(0, "Y"), (1, "Z")], [(0, "Z"), (1, "Y")]], 1 / np.sqrt(2)),
    ]
    actual = [term_dict(op) for op in ops]
    for want in expected:
        match = [got for got in actual
                 if got.keys() == want.keys()
                 and all(abs(got[k] - want[k]) < 1e-12 for k in want)]
        assert len(match) == 1, f"missing element {want}"


def test_gram_frozen_L4_k2():
    ops = build_basis(4, 2)
    assert_allclose(dense_gram(ops), 64.0 * np.eye(9), atol=1e-9)


@pytest.mark.parametrize("L,k", [(4, 2), (6, 2), (6, 3), (8, 3)])
def test_gram_dense_identity(L, k):
    ops = build_basis(L, k)
    target = float(L * (1 << L))
    G = dense_gram(ops)
    assert np.abs(G - target * np.eye(len(ops))).max() < 1e-9 * target


@pytest.mark.parametrize("L,k", [(8, 4), (10, 4), (12, 4)])
def test_gram_symbolic_identity(L, k):
    ops = build_basis(L, k)
    target = float(L * (1 << L))
    G = symbolic_gram(ops, L)
    assert np.abs(G - target * np.eye(len(ops))).max() < 1e-9 * target


def test_norms_and_symmetry_closure():
    L, k = 8, 4
    target = float(L * (1 << L))
    for op in build_basis(L, k):
        assert abs(op.norm_sq - target) < 1e-9 * target
        assert op.is_symmetric()
        # reflection maps the term multiset onto itself exactly
        reflected = {(q.x_mask, q.z_mask): c
                     for c, p in op.terms for q in [pauli.invert(p)]}
        assert reflected.keys() == term_dict(op).keys()


def test_basis_nesting_exact():
    L = 8
    smaller = [term_dict(op) for op in build_basis(L, 2)]
    larger = [term_dict(op) for op in build_basis(L, 3)]
    for want in smaller:
        assert any(got.keys() == want.keys()
                   and all(abs(got[x] - want[x]) < 1e-12 for x in want)
                   for got in larger)


def test_wide_window_orbits_rescaled():
    """Windows above L/2 hit short translation orbits; norms must still match."""
    L, k = 4, 3
    ops = build_basis(L, k)
    target = float(L * (1 << L))
    for op in ops:
        assert abs(op.norm_sq - target) < 1e-9 * target
    G = dense_gram(ops)
    assert np.abs(G - target * np.eye(len(ops))).max() < 1e-9 * target


def test_deterministic_ordering():
    a = [op.label for op in build_basis(8, 3)]
    b = [op.label for op in build_basis(8, 3)]
    assert a == b


def test_discrete_action_set():
    L = 6
    ops = discrete_action_set(L)
    assert len(ops) == 7
    d = 1 << L
    sum_y = [op for op in ops if op.label == "y"]
    assert len(sum_y) == 1
    assert abs(sum_y[0].norm_sq - L * d) < 1e-9 * L * d
    for op in ops:
        assert op.norm_sq <= 2 * L * d * (1 + 1e-12)
        assert op.is_symmetric()


def test_discrete_actions_decompose_over_b2():
    """Least-squares over string coefficients; the residual must vanish."""
    L = 6
    basis_ops = build_basis(L, 2)
    actions = discrete_action_set(L)
    keys = sorted({(p.x_mask, p.z_mask)
                   for op in basis_ops + actions for _, p in op.terms})
    index = {key: i for i, key in enumerate(keys)}

    def vec(op):
        v = np.zeros(len(keys))
        for c, p in op.terms:
            v[index[(p.x_mask, p.z_mask)]] = c
        return v

    A = np.stack([vec(op) for op in basis_ops], axis=1)
    for action in actions:
        b = vec(action)
        coeffs, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.linalg.norm(A @ coeffs - b) < 1e-10


def test_identity_absent():
    for op in build_basis(6, 3):
        for _, p in op.terms:
            assert not p.is_identity()


# Strings of one operator can send a column to the same row, so the CSR sums
# repeated (row, col) entries; k=4 > L/2 adds rescaled short-orbit operators.
STACK_CASES = pytest.mark.parametrize("L,k", [(6, 2), (6, 4)])


@STACK_CASES
def test_stack_assemble_matches_sector_matrices(rng, L, k):
    basis = build_sector_basis(L)
    ops = build_basis(L, k)
    stack = OperatorStack(ops, basis)
    gamma = rng.normal(size=len(ops))
    direct = sum(g * op.sector_matrix(basis) for g, op in zip(gamma, ops))
    assert_allclose(stack.assemble(gamma), direct, atol=1e-12)


@STACK_CASES
def test_stack_gather_quadratic(rng, L, k):
    basis = build_sector_basis(L)
    ops = build_basis(L, k)
    stack = OperatorStack(ops, basis)
    K = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    expected = [np.sum(op.sector_matrix(basis) * K) for op in ops]
    assert_allclose(stack.gather_quadratic(K), expected, atol=1e-10)


def test_stack_frobenius_matches_dense(rng):
    L = 4
    basis = build_sector_basis(L)
    ops = build_basis(L, 2)
    stack = OperatorStack(ops, basis)
    gamma = rng.normal(size=len(ops))
    dense = sum(g * op.dense_matrix() for g, op in zip(gamma, ops))
    assert abs(stack.frobenius_norm_sq(gamma) - np.linalg.norm(dense) ** 2) < 1e-9


def test_manifest_checksum_distinguishes_bases():
    L = 6
    m2 = operator_manifest(build_basis(L, 2), L)
    m3 = operator_manifest(build_basis(L, 3), L)
    assert manifest_checksum(m2) != manifest_checksum(m3)
    assert manifest_checksum(m2) == manifest_checksum(operator_manifest(build_basis(L, 2), L))


def test_sum_x_generator():
    op = sum_x(6)
    assert op.is_symmetric()
    assert len(op.terms) == 6
    assert abs(op.norm_sq - 6 * 64) < 1e-12


def test_ising_lives_in_span_of_b2():
    op = build_ising(IsingParams.preset("nonintegrable", 6))
    b2 = build_basis(6, 2)
    keys = {(p.x_mask, p.z_mask) for o in b2 for _, p in o.terms}
    assert all((p.x_mask, p.z_mask) in keys for _, p in op.terms)
