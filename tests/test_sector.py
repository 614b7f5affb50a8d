"""Symmetric-subspace construction against brute-force group projectors."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from numpy.testing import assert_allclose, assert_array_equal

from eigenwork import pauli
from eigenwork.model import PRESETS, IsingParams, build_ising
from eigenwork.operators import (SymmetrizedOperator, certified_entries, discrete_action_set,
                                 sum_x)
from eigenwork.sector import (NumericalConsistencyError, build_sector_basis,
                              embed_state, manifest_checksum,
                              require_hermitian, sector_manifest)


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
    H = build_ising(IsingParams(0.0, 0.0, 4)).sector_matrix(basis).toarray()
    assert np.abs(H - np.diag(np.diag(H))).max() < 1e-14
    diag = sorted(np.round(np.diag(H).real).astype(int))
    assert diag == sorted([4, 4, 0, 0, 0, -4])
    assert diag == sorted(classical_ising_orbit_energies(4))


def test_magnetization_projection_traceless():
    L = 4
    basis = build_sector_basis(L)
    op = SymmetrizedOperator(
        "sum Z", tuple((1.0, pauli.make_pauli([(l, "Z")], L)) for l in range(L)), L)
    M = op.sector_matrix(basis).toarray()
    assert np.abs(M - np.diag(np.diag(M))).max() < 1e-14
    assert abs(np.trace(M)) < 1e-12


def test_asymmetric_operator_rejected():
    L = 4
    basis = build_sector_basis(L)
    lone = SymmetrizedOperator.__new__(SymmetrizedOperator)
    lone.label = "lone X0"
    lone.terms = ((1.0, pauli.make_pauli([(0, "X")], L)),)
    lone.L = L
    with pytest.raises(ValueError):
        lone.sector_matrix(basis)


def test_sector_matrix_is_real_exactly_without_an_imaginary_entry():
    """A fixed sector matrix is the CSR array of its entries, real unless an
    entry is imaginary: the target and sum X are real, Y-string actions complex."""
    L = 8
    basis = build_sector_basis(L)
    actions = {op.label: op for op in discrete_action_set(L)}
    for op, real in ((build_ising(IsingParams(*PRESETS["nonintegrable"], L)), True),
                     (sum_x(L), True), (actions["y"], False), (actions["xy + yx"], False)):
        M = op.sector_matrix(basis)
        assert isinstance(M, scipy.sparse.csr_array) and M.has_canonical_format
        assert M.dtype == (np.float64 if real else np.complex128), op.label
        assert real or M.data.imag.any()
        flat, vals, _ = certified_entries(op, basis)
        dense = np.zeros(basis.dim * basis.dim, dtype=complex)
        dense[flat] = vals
        assert_array_equal(M.toarray().ravel(), dense)


@pytest.mark.parametrize("L", [4, 6])
def test_sector_spectrum_subset_of_full(L):
    op = build_ising(IsingParams(*PRESETS["nonintegrable"], L))
    basis = build_sector_basis(L)
    sector_eigs = np.linalg.eigvalsh(op.sector_matrix(basis).toarray())
    full_eigs = list(np.linalg.eigvalsh(op.dense_matrix()))
    for ev in sector_eigs:
        j = int(np.argmin(np.abs(np.array(full_eigs) - ev)))
        assert abs(full_eigs[j] - ev) < 1e-9
        full_eigs.pop(j)


def test_sector_dynamics_closure(rng):
    """Evolving in sector coordinates commutes with embedding, L=4."""
    L = 4
    basis = build_sector_basis(L)
    op = build_ising(IsingParams(*PRESETS["nonintegrable"], L))
    H_sec = op.sector_matrix(basis).toarray()
    H_full = op.dense_matrix()
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_require_hermitian_rejects_non_finite(bad):
    mat = np.eye(3, dtype=complex)
    require_hermitian(mat)
    mat[1, 1] = bad
    with pytest.raises(NumericalConsistencyError):
        require_hermitian(mat)


def test_hermiticity_rule_is_relative_to_scale():
    """Deviations are judged against HERMITICITY_TOL * max(1, max |M|)."""
    small = np.array([[0.5, 0.1], [0.1 + 5e-13, 0.0]], dtype=complex)
    require_hermitian(small)
    small[1, 0] = 0.1 + 2e-12
    with pytest.raises(NumericalConsistencyError):
        require_hermitian(small)
    big = np.array([[1e6, 1.0], [1.0 + 5e-7, 0.0]], dtype=complex)
    require_hermitian(big)
    big[1, 0] = 1.0 + 2e-6
    with pytest.raises(NumericalConsistencyError):
        require_hermitian(big)
    lone = np.array([[0.0, np.inf], [0.0, 0.0]], dtype=complex)  # max |M - M^dag| = inf
    with pytest.raises(NumericalConsistencyError):
        require_hermitian(lone)
