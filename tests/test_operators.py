"""Control-basis construction: orthogonality, norms, symmetry closure."""

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose, assert_array_equal

from eigenwork import operators, pauli
from eigenwork.model import PRESETS, IsingParams, build_ising
from eigenwork.operators import (OperatorStack, SymmetrizedOperator,
                                 build_basis, discrete_action_set,
                                 enumerate_window_paulis, operator_manifest,
                                 sum_x, symbolic_gram, translation_sum)
from eigenwork.sector import (NumericalConsistencyError, build_sector_basis,
                              manifest_checksum, sector_manifest, sector_triplets)


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
            assert p.support != 0


def stack_ops(L, k):
    if k == "discrete":
        return discrete_action_set(L)
    if k == "ising":
        return [build_ising(IsingParams(*PRESETS["nonintegrable"], L))]
    return build_basis(L, k)


# Strings of one operator can send a column to the same row, so the stack sums
# repeated (row, col) entries; k=4 > L/2 adds rescaled short-orbit operators;
# the discrete actions mix real and imaginary operators.
STACK_CASES = pytest.mark.parametrize("L,k", [(6, 2), (6, 4), (6, "discrete"), (6, "ising")])


@STACK_CASES
def test_stack_assemble_matches_sector_matrices(rng, L, k):
    basis = build_sector_basis(L)
    ops = stack_ops(L, k)
    stack = OperatorStack(ops, basis)
    gamma = rng.normal(size=len(ops))
    direct = sum(g * op.sector_matrix(basis).toarray() for g, op in zip(gamma, ops))
    assert_allclose(stack.assemble(gamma), direct, atol=1e-12)
    for i, op in enumerate(ops):
        assert_array_equal(stack.assemble(np.eye(len(ops))[i]), op.sector_matrix(basis).toarray())


@STACK_CASES
def test_stack_gather_quadratic(rng, L, k):
    basis = build_sector_basis(L)
    ops = stack_ops(L, k)
    stack = OperatorStack(ops, basis)
    K = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    expected = [np.sum(op.sector_matrix(basis).toarray() * K) for op in ops]
    assert_allclose(stack.gather_quadratic(K), np.imag(expected), atol=1e-10)


@STACK_CASES
def test_stack_is_real_split_without_zeros(L, k):
    """Two real parts, no stored zeros, and each operator in one part only."""
    stack = OperatorStack(stack_ops(L, k), build_sector_basis(L))
    for value in vars(stack).values():
        assert not np.iscomplexobj(value.data if scipy.sparse.issparse(value) else value)
    for part in (stack.real, stack.imag):
        assert part.format == "csc" and part.dtype == np.float64
        assert np.all(part.data != 0)
        assert part.has_canonical_format
    in_real, in_imag = np.diff(stack.real.indptr) > 0, np.diff(stack.imag.indptr) > 0
    assert not np.any(in_real & in_imag)


def complex_csr_oracle(ops, basis):
    """The complex (dim*dim x n_ops) CSR the stack splits, summed in the same order."""
    flat, vals = [], []
    for op in ops:
        rows, cols, v = sector_triplets(op.terms, basis)
        flat.append(rows * basis.dim + cols)
        vals.append(v)
    op_idx = np.repeat(np.arange(len(ops)), [len(v) for v in vals])
    return scipy.sparse.csr_matrix((np.concatenate(vals), (np.concatenate(flat), op_idx)),
                                   shape=(basis.dim * basis.dim, len(ops)))


@STACK_CASES
def test_stack_bitwise_matches_complex_csr(rng, L, k):
    """The real split changes no bit of either product."""
    basis = build_sector_basis(L)
    ops = stack_ops(L, k)
    stack = OperatorStack(ops, basis)
    oracle = complex_csr_oracle(ops, basis)
    gamma = rng.normal(size=len(ops))
    K = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    assert_array_equal(stack.assemble(gamma), (oracle @ gamma).reshape(basis.dim, basis.dim))
    assert_array_equal(stack.gather_quadratic(K), (oracle.T @ K.ravel()).imag)


def test_stack_frobenius_matches_dense(rng):
    L = 4
    basis = build_sector_basis(L)
    ops = build_basis(L, 2)
    stack = OperatorStack(ops, basis)
    gamma = rng.normal(size=len(ops))
    dense = sum(g * op.dense_matrix() for g, op in zip(gamma, ops))
    assert abs(stack.frobenius_norm_sq(gamma) - np.linalg.norm(dense) ** 2) < 1e-9


@STACK_CASES
def test_stack_dev_is_each_columns_asymmetry(L, k):
    """dev[i] is max |Q_i - Q_i^dag| of the sector matrix, to the bit."""
    basis = build_sector_basis(L)
    ops = stack_ops(L, k)
    stack = OperatorStack(ops, basis)
    for op, dev in zip(ops, stack.dev):
        Q = op.sector_matrix(basis).toarray()
        assert dev == np.abs(Q - Q.conj().T).max()


def tamper_one_column(monkeypatch, edit):
    """Route the stack's sector_entries through ``edit`` for operator 4 only,
    whose first entry (row 0, column 1) is off the diagonal."""
    entries, calls = operators.sector_entries, []

    def patched(terms, basis):
        flat, vals = entries(terms, basis)
        calls.append(None)
        return edit(flat, vals.copy()) if len(calls) == 5 else (flat, vals)
    monkeypatch.setattr(operators, "sector_entries", patched)


def scale_first(flat, vals, factor):
    vals[0] *= factor
    return flat, vals


@pytest.mark.parametrize("edit", [
    lambda flat, vals: scale_first(flat, vals, 1 + 1e-9),
    lambda flat, vals: scale_first(flat, vals, 1j),
    lambda flat, vals: (flat[1:], vals[1:]),  # an entry loses its transpose
], ids=["scaled", "rotated", "dropped"])
def test_stack_rejects_nonhermitian_column(monkeypatch, edit):
    basis = build_sector_basis(6)
    ops = build_basis(6, 2)
    tamper_one_column(monkeypatch, edit)
    with pytest.raises(NumericalConsistencyError, match="hermiticity"):
        OperatorStack(ops, basis)


def test_stack_keeps_rounding_level_asymmetry(monkeypatch):
    """An asymmetry within HERMITICITY_TOL is kept, and counted in dev."""
    basis = build_sector_basis(6)
    ops = build_basis(6, 2)
    clean = OperatorStack(ops, basis).dev
    tamper_one_column(monkeypatch, lambda flat, vals: scale_first(flat, vals, 1 + 1e-14))
    dev = OperatorStack(ops, basis).dev
    assert dev[4] > clean[4] and np.array_equal(np.delete(dev, 4), np.delete(clean, 4))


def test_assemble_rejects_tampered_dev(rng):
    basis = build_sector_basis(6)
    stack = OperatorStack(build_basis(6, 2), basis)
    gamma = rng.normal(size=stack.n_ops)
    stack.assemble(gamma)
    stack.dev[3] = 1e-6
    with pytest.raises(NumericalConsistencyError, match="hermiticity bound"):
        stack.assemble(gamma)
    gamma[3] = 0.0
    stack.assemble(gamma)
    stack.dev[3] = np.inf
    with pytest.raises(NumericalConsistencyError):
        stack.assemble(np.eye(stack.n_ops)[3])


@pytest.mark.parametrize("L", [4, 6, 8, 10])
@pytest.mark.parametrize("k", [2, 4])
def test_certified_bound_covers_measured_asymmetry(rng, L, k):
    """max |H - H^dag| <= sum_i |gamma_i| dev_i for random rows.

    The bound is the one of the exact sum; the sum is measured in the
    platform's extended precision and the float64 assembly against it, each
    with the standard rounding bound 2 n eps max(|A| |gamma| + |B| |gamma|)
    of its own precision.
    """
    basis = build_sector_basis(L)
    stack = OperatorStack(build_basis(L, k), basis)
    dim, n = basis.dim, stack.n_ops
    parts = [np.abs(part).toarray() for part in (stack.real, stack.imag)]
    for scale in (1e-3, 1.0, 1e3):
        gamma = scale * rng.normal(size=n)
        bound = np.abs(gamma) @ stack.dev
        magnitude = max(sum(part @ np.abs(gamma) for part in parts))
        H = stack.assemble(gamma)
        assert np.abs(H - H.conj().T).max() <= bound + 2 * n * np.finfo(float).eps * magnitude
        wide = gamma.astype(np.longdouble)
        re, im = ((part.toarray().astype(np.longdouble) @ wide).reshape(dim, dim)
                  for part in (stack.real, stack.imag))
        asymmetry = np.sqrt(((re - re.T) ** 2 + (im + im.T) ** 2).max())
        assert asymmetry <= bound + 2 * n * np.finfo(np.longdouble).eps * magnitude


def test_manifest_checksum_distinguishes_bases():
    L = 6
    m2 = operator_manifest(build_basis(L, 2), L)
    m3 = operator_manifest(build_basis(L, 3), L)
    assert manifest_checksum(m2) != manifest_checksum(m3)
    assert manifest_checksum(m2) == manifest_checksum(operator_manifest(build_basis(L, 2), L))


FROZEN_MANIFESTS = {
    "basis_L4_k3": (lambda: operator_manifest(build_basis(4, 3), 4),
                    "b8b2a9915641598908a88e1d1543df6b04dba442d6a9c63c233ab4552dfbebb9"),
    "basis_L6_k2": (lambda: operator_manifest(build_basis(6, 2), 6),
                    "89744c182e708fc329e23f4dd8faf0f8675a898bbc51c46a3e42096d63c24b82"),
    "basis_L8_k4": (lambda: operator_manifest(build_basis(8, 4), 8),
                    "15af9007cb3ca272cc40e6b73ad3ca9f889d7c28a68b8b409df340353086101e"),
    "basis_L12_k4": (lambda: operator_manifest(build_basis(12, 4), 12),
                     "e4f5e3208133839a7d2e95c59c0e7556076aded1b69571baa666638d3a429ffd"),
    "discrete_L6": (lambda: operator_manifest(discrete_action_set(6), 6),
                    "81b11849605a9c968ad48207603d79a974d824219df1f13a0a014b5e3d7c6ba9"),
    "sum_x_L6": (lambda: operator_manifest([sum_x(6)], 6),
                 "8f1afa547ff53a0fbe22ce076ecf326c9ef0eaa5a4705513cf6b21c9c59400b6"),
    "ising_integrable_L6": (
        lambda: operator_manifest([build_ising(IsingParams(*PRESETS["integrable"], 6))], 6),
        "d38c1fe2997631a2011e154a59a06d6d88ab3527a4ee8f6162e202ceb5a6f4b8"),
    "ising_nonintegrable_L6": (
        lambda: operator_manifest([build_ising(IsingParams(*PRESETS["nonintegrable"], 6))], 6),
        "7bfbb36e4a989621ecfe13305288a27cd4cb55ed7dfe14a5b7eedc22787fb6b6"),
    "discrete_L12": (lambda: operator_manifest(discrete_action_set(12), 12),
                     "7e8a11eb46688a365bbbc993acfed3080cdd88c7276fdb172dfe4ce54a2de2ab"),
    "sum_x_L14": (lambda: operator_manifest([sum_x(14)], 14),
                  "940bad13239f23574eb7489d9cc615c993fc93d813aad00340293463c5ec0f0f"),
    "ising_integrable_L14": (
        lambda: operator_manifest([build_ising(IsingParams(*PRESETS["integrable"], 14))], 14),
        "0113a2f3b25d94fe94fabfcdbf861ce0cbab0d6428815709e59437001dd2e7d4"),
    "ising_nonintegrable_L14": (
        lambda: operator_manifest([build_ising(IsingParams(*PRESETS["nonintegrable"], 14))], 14),
        "f02f380e00f26756d295efeb271455a68cfab674852b914167d8c2606b399969"),
    "quench_target_L14": (  # the quench_L14 benchmark's target
        lambda: operator_manifest([build_ising(IsingParams(*PRESETS["quench-target"], 14))], 14),
        "e115245e1344a61b8de7bbad9ecf241d3ed2005aafa47944b4fcc08fd2daf487"),
    "sector_L4": (lambda: sector_manifest(build_sector_basis(4)),
                  "ef0812f403a67b70fdc87bc01ff80f4d72acc54c2488f33cc5330be57efa1d4b"),
    "sector_L12": (lambda: sector_manifest(build_sector_basis(12)),
                   "12eee61bbebfef92888282cfd237b33adc164b89fc1c25f73979000c3e89dc1d"),
    "sector_L16": (lambda: sector_manifest(build_sector_basis(16)),
                   "32e4912cd5396a7ab9242c766054ec93361c4fb9b7415826c029f2000041b913"),
}


@pytest.mark.parametrize("case", sorted(FROZEN_MANIFESTS))
def test_manifest_bytes_frozen(case):
    """Replay rejects a protocol whose basis checksum differs from the one its
    config rebuilds, so these manifest bytes must not move: (4, 3) has rescaled
    wide-window orbits and (6, 2) has +R pairs."""
    build, digest = FROZEN_MANIFESTS[case]
    assert manifest_checksum(build()) == digest


@pytest.mark.parametrize("L", range(2, 13, 2))
@pytest.mark.parametrize("word", ["ZZ", "XY", "YX", "YZ", "ZY", "Z", "X", "Y"])
def test_translation_sum_matches_site_loop(L, word):
    """Same terms as the sum over sites, doubled where a word is its own translate."""
    expected = {}
    for l in range(L):
        p = pauli.make_pauli([((l + i) % L, a) for i, a in enumerate(word)], L)
        expected[(p.x_mask, p.z_mask)] = expected.get((p.x_mask, p.z_mask), 0.0) + 1.0
    assert term_dict(translation_sum(word, [(1.0, word)], L)) == expected


def test_sum_x_generator():
    op = sum_x(6)
    assert op.is_symmetric()
    assert len(op.terms) == 6
    assert abs(op.norm_sq - 6 * 64) < 1e-12


def test_ising_lives_in_span_of_b2():
    op = build_ising(IsingParams(*PRESETS["nonintegrable"], 6))
    b2 = build_basis(6, 2)
    keys = {(p.x_mask, p.z_mask) for o in b2 for _, p in o.terms}
    assert all((p.x_mask, p.z_mask) in keys for _, p in op.terms)
