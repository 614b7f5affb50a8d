"""Symmetric-subspace construction against brute-force group projectors."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from numpy.testing import assert_allclose, assert_array_equal

from eigenwork import pauli
from eigenwork.model import GAUGE_WORDS, PRESETS, build_ising, diagonalize
from eigenwork.operators import (SymmetrizedOperator, build_basis, certified_entries,
                                 sum_x, translation_sum)
from eigenwork.sector import (NumericalConsistencyError, build_sector_basis,
                              manifest_checksum, sector_manifest, sector_triplets)
from oracles import embed_state, operator_dense_matrix, sector_triplets_oracle


def translation_matrix(L):
    dim = 1 << L
    T = np.zeros((dim, dim))
    for n in range(dim):
        m = ((n << 1) | (n >> (L - 1))) & (dim - 1)
        T[m, n] = 1.0
    return T


def reflection_matrix(L):
    dim = 1 << L
    R = np.zeros((dim, dim))
    for n in range(dim):
        m = int(format(n, f"0{L}b")[::-1], 2)
        R[m, n] = 1.0
    return R


def brute_force_dim(L):
    """Rank of the joint (k=0, R=+1) projector from explicit group sums."""
    T = translation_matrix(L)
    R = reflection_matrix(L)
    P_T = sum(np.linalg.matrix_power(T, j) for j in range(L)) / L
    P = (np.eye(1 << L) + R) / 2 @ P_T
    return round(np.trace(P).real)


@pytest.mark.parametrize("L,expected", [(2, 3), (4, 6)])
def test_dimension_frozen_values(L, expected):
    assert build_sector_basis(L).dim == expected


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8])
def test_dimension_matches_projector_oracle(L):
    assert build_sector_basis(L).dim == brute_force_dim(L)


def test_L_range_validated():
    with pytest.raises(ValueError):
        build_sector_basis(1)
    with pytest.raises(ValueError):
        build_sector_basis(25)


@pytest.mark.parametrize("L", [2, 4, 6])
def test_embedded_vectors_orthonormal_and_symmetric(L):
    basis = build_sector_basis(L)
    E = embed_state(np.eye(basis.dim), basis)
    assert_allclose(E.conj().T @ E, np.eye(basis.dim), atol=1e-12)
    T = translation_matrix(L)
    R = reflection_matrix(L)
    assert np.abs(T @ E - E).max() < 1e-12
    assert np.abs(R @ E - E).max() < 1e-12


def test_embed_examples():
    basis = build_sector_basis(4)
    s = int(np.searchsorted(basis.orbit_reps, 0b0101))
    v = np.zeros(basis.dim)
    v[s] = 1.0
    full = embed_state(v, basis)
    expected = np.zeros(16)
    expected[0b0101] = expected[0b1010] = 1 / np.sqrt(2)
    assert_allclose(full, expected, atol=1e-15)

    v0 = np.zeros(basis.dim)
    v0[int(np.searchsorted(basis.orbit_reps, 0))] = 1.0
    full0 = embed_state(v0, basis)
    assert full0[0] == 1.0 and np.count_nonzero(full0) == 1


def test_embed_preserves_inner_products(rng):
    basis = build_sector_basis(6)
    u = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    lhs = np.vdot(embed_state(u, basis), embed_state(v, basis))
    assert abs(lhs - np.vdot(u, v)) < 1e-12


def test_embed_rejects_unnormalized():
    basis = build_sector_basis(4)
    with pytest.raises(ValueError):
        embed_state(np.ones(basis.dim), basis)
    one_bad_column = np.eye(basis.dim)
    one_bad_column[0, -1] = 1.0
    with pytest.raises(ValueError):
        embed_state(one_bad_column, basis)


def classical_ising_orbit_energies(L):
    """Direct evaluation of sum_l Z_l Z_{l+1} on each orbit representative."""
    basis = build_sector_basis(L)
    energies = []
    for rep in basis.orbit_reps:
        spins = [1 - 2 * ((int(rep) >> l) & 1) for l in range(L)]
        energies.append(sum(spins[l] * spins[(l + 1) % L] for l in range(L)))
    return energies


def test_classical_ising_projection_frozen():
    basis = build_sector_basis(4)
    H = build_ising(0.0, 0.0, 4).sector_matrix(basis).toarray()
    assert np.abs(H - np.diag(np.diag(H))).max() < 1e-14
    diag = sorted(np.round(np.diag(H).real).astype(int))
    assert diag == sorted([4, 4, 0, 0, 0, -4])
    assert diag == sorted(classical_ising_orbit_energies(4))


def test_magnetization_projection_traceless():
    L = 4
    basis = build_sector_basis(L)
    op = SymmetrizedOperator(
        "sum Z", tuple((1.0, *pauli.make_pauli([(l, "Z")], L)) for l in range(L)), L)
    M = op.sector_matrix(basis).toarray()
    assert np.abs(M - np.diag(np.diag(M))).max() < 1e-14
    assert abs(np.trace(M)) < 1e-12


def test_asymmetric_operator_rejected():
    L = 4
    basis = build_sector_basis(L)
    lone = SymmetrizedOperator.__new__(SymmetrizedOperator)
    lone.label = "lone X0"
    lone.terms = ((1.0, *pauli.make_pauli([(0, "X")], L)),)
    lone.L = L
    with pytest.raises(ValueError):
        lone.sector_matrix(basis)


def test_sector_matrix_is_real_exactly_without_an_imaginary_entry():
    """A fixed sector matrix is the CSR array of its entries, real unless an
    entry is imaginary: the target, sum X and B_2's X0 are real, its Y0 and
    X0 Y1 +R complex."""
    L = 8
    basis = build_sector_basis(L)
    b2 = {op.label: op for op in build_basis(L, 2)}
    for op, real in ((build_ising(*PRESETS["nonintegrable"], L), True), (sum_x(L), True),
                     (b2["X0"], True), (b2["Y0"], False), (b2["X0 Y1 +R"], False)):
        M = op.sector_matrix(basis)
        assert isinstance(M, scipy.sparse.csr_array) and M.has_canonical_format
        assert M.dtype == (np.float64 if real else np.complex128), op.label
        assert real or M.data.imag.any()
        flat, vals, _ = certified_entries(op, basis)
        dense = np.zeros(basis.dim * basis.dim, dtype=complex)
        dense[flat] = vals
        assert_array_equal(M.toarray().ravel(), dense)


TRIPLET_CASES = {
    "B4_L8": lambda: build_basis(8, 4),
    "B4_L12": lambda: build_basis(12, 4),
    "B5_L10": lambda: build_basis(10, 5),
    "B6_L12": lambda: build_basis(12, 6),
    "sumX_L12": lambda: [sum_x(12)],
    "ising_presets_L12": lambda: [build_ising(*PRESETS[p], 12) for p in PRESETS],
    "gaugeK_L12": lambda: [translation_sum("gauge K", GAUGE_WORDS, 12)],
}


@pytest.mark.parametrize("case", TRIPLET_CASES)
def test_sector_triplets_match_one_string_oracle(case):
    """The one array pass over an operator's strings gives the per-string
    oracle's rows, cols and vals, in the same order and to the bit."""
    ops = TRIPLET_CASES[case]()
    basis = build_sector_basis(ops[0].L)
    for op in ops:
        for got, want in zip(sector_triplets(op.terms, basis),
                             sector_triplets_oracle(op.terms, basis)):
            assert_array_equal(got, want)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("L", [4, 6])
def test_sector_spectrum_subset_of_full(L):
    op = build_ising(*PRESETS["nonintegrable"], L)
    basis = build_sector_basis(L)
    sector_eigs = np.linalg.eigvalsh(op.sector_matrix(basis).toarray())
    full_eigs = list(np.linalg.eigvalsh(operator_dense_matrix(op)))
    for ev in sector_eigs:
        j = int(np.argmin(np.abs(np.array(full_eigs) - ev)))
        assert abs(full_eigs[j] - ev) < 1e-9
        full_eigs.pop(j)


def test_sector_dynamics_closure(rng):
    """Evolving in sector coordinates commutes with embedding, L=4."""
    L = 4
    basis = build_sector_basis(L)
    op = build_ising(*PRESETS["nonintegrable"], L)
    H_sec = op.sector_matrix(basis).toarray()
    H_full = operator_dense_matrix(op)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    v /= np.linalg.norm(v)
    dt = 0.3
    U_sec = scipy.linalg.expm(-1j * dt * H_sec)
    U_full = scipy.linalg.expm(-1j * dt * H_full)
    stepped = U_sec @ v
    assert_allclose(embed_state(stepped / np.linalg.norm(stepped), basis),
                    U_full @ embed_state(v, basis), atol=1e-9)


def test_manifest_contents_and_checksum():
    basis = build_sector_basis(4)
    text = sector_manifest(basis)
    lines = text.splitlines()
    assert "L 4" in lines and "dim 6" in lines
    assert len(lines) == 3 + basis.dim
    assert manifest_checksum(text) == manifest_checksum(sector_manifest(build_sector_basis(4)))


def ising_csr_L4(max_abs=None):
    """The integrable L=4 target's real CSR, rescaled to max |H| = max_abs if given."""
    H = build_ising(*PRESETS["integrable"], 4).sector_matrix(build_sector_basis(4))
    return H if max_abs is None else H * (max_abs / abs(H).max())


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermiticity_check_rejects_non_finite(bad):
    """diagonalize checks its real CSR by check_hermiticity, which a NaN or inf fails."""
    H = ising_csr_L4()
    diagonalize(H, build_sector_basis(4))
    H[0, 0] = bad
    with pytest.raises(NumericalConsistencyError):
        diagonalize(H, build_sector_basis(4))


def test_hermiticity_rule_is_relative_to_scale():
    """Deviations are judged against HERMITICITY_TOL * max(1, max |H|)."""
    basis = build_sector_basis(4)
    for max_abs, within, beyond in ((0.5, 5e-13, 2e-12), (1e6, 5e-7, 2e-6)):
        H = ising_csr_L4(max_abs)
        H[1, 0] += within
        diagonalize(H, basis)
        H[1, 0] += beyond
        with pytest.raises(NumericalConsistencyError):
            diagonalize(H, basis)
    lone = ising_csr_L4()
    lone[0, 1] = np.inf  # max |H - H^T| = inf
    with pytest.raises(NumericalConsistencyError):
        diagonalize(lone, basis)
