"""Ising builder, sector diagonalization, and shell selection."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eigenwork.model import (SHELL_DEFAULT, EigenDecomposition, IsingParams, PRESETS,
                             build_ising, canonicalize, degenerate_blocks, diagonalize,
                             select_shell, spectrum_csv)
from eigenwork.sector import NumericalConsistencyError, build_sector_basis


def test_preset_values():
    assert PRESETS["nonintegrable"] == (0.9045, 0.809)
    assert PRESETS["integrable"] == (0.0, 0.5)
    assert PRESETS["quench-target"] == (0.0, 1.5)
    p = IsingParams(*PRESETS["nonintegrable"], 8)
    assert (p.h, p.g, p.L) == (0.9045, 0.809, 8)


def test_params_validation():
    with pytest.raises(ValueError):
        IsingParams(float("nan"), 0.5, 4)
    with pytest.raises(ValueError):
        IsingParams(0.0, 0.5, 1)


def test_classical_L2_full_spectrum():
    # Both bonds coincide on two sites, so H = 2 Z_0 Z_1.
    H = build_ising(IsingParams(0.0, 0.0, 2)).dense_matrix()
    assert_allclose(np.linalg.eigvalsh(H), [-2.0, -2.0, 2.0, 2.0], atol=1e-14)


def test_builder_is_symmetric():
    op = build_ising(IsingParams(*PRESETS["nonintegrable"], 6))
    assert op.is_symmetric()


def test_sector_diagonalization_frozen_classical():
    basis = build_sector_basis(4)
    H = build_ising(IsingParams(0.0, 0.0, 4)).sector_matrix(basis)
    eig = diagonalize(H, basis)
    assert_allclose(eig.energies, [-4.0, 0.0, 0.0, 0.0, 4.0, 4.0], atol=1e-12)


def test_diagonalize_reconstruction_and_unitarity():
    basis = build_sector_basis(6)
    H = build_ising(IsingParams(*PRESETS["nonintegrable"], 6)).sector_matrix(basis)
    eig = diagonalize(H, basis)
    V, H = eig.states, H.toarray()
    assert np.abs(V.conj().T @ V - np.eye(basis.dim)).max() < 1e-10
    assert np.abs(H - (V * eig.energies) @ V.conj().T).max() < 1e-10
    resid = np.abs(H @ V - V * eig.energies).max()
    assert resid < 1e-9 * np.abs(H).max()
    assert np.all(np.diff(eig.energies) >= 0)


def test_diagonalize_gauge_deterministic():
    basis = build_sector_basis(6)
    H = build_ising(IsingParams(*PRESETS["integrable"], 6)).sector_matrix(basis)
    a, b = diagonalize(H.copy(), basis), diagonalize(H.copy(), basis)
    assert a.checksum() == b.checksum()


def test_diagonalize_rejects_nonhermitian():
    basis = build_sector_basis(4)
    H = build_ising(IsingParams(*PRESETS["integrable"], 4)).sector_matrix(basis)
    H[0, 1] += 1e-6
    with pytest.raises(NumericalConsistencyError):
        diagonalize(H, basis)


def test_diagonalize_rejects_an_imaginary_part():
    basis = build_sector_basis(4)
    H = build_ising(IsingParams(*PRESETS["integrable"], 4)).sector_matrix(basis).astype(complex)
    H[0, 1] += 1e-14j
    H[1, 0] -= 1e-14j
    with pytest.raises(ValueError, match="imaginary part"):
        diagonalize(H, basis)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("L", range(4, 15))
def test_real_solve_matches_complex_spectrum_and_shell(L, preset):
    """The real solve's energies are the complex solver's, and so is the shell."""
    basis = build_sector_basis(L)
    H = build_ising(IsingParams(*PRESETS[preset], L)).sector_matrix(basis)
    eig = diagonalize(H, basis)
    reference = np.linalg.eigvalsh(H.toarray())
    assert np.all(np.abs(eig.energies - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))
    shell = select_shell(eig, *SHELL_DEFAULT, L)
    assert_array_equal(shell.indices,
                       select_shell(EigenDecomposition(reference, eig.states), *SHELL_DEFAULT,
                                    L).indices)
    assert eig.states.dtype == np.float64


def test_degenerate_blocks_chain_consecutive_levels():
    assert degenerate_blocks(np.array([-2.0, -1.0, -1.0 + 5e-10, -1.0 + 1e-9, 0.0, 3.0,
                                       3.0])) == [(1, 4), (5, 7)]
    # the tolerance is relative to max(1, max |value|)
    assert degenerate_blocks(np.array([1e4, 1e4 + 5e-6])) == [(0, 2)]
    assert degenerate_blocks(np.array([0.5, 0.5 + 2e-9])) == []
    assert degenerate_blocks(np.array([])) == []


@pytest.mark.parametrize("preset", ["integrable", "quench-target"])
@pytest.mark.parametrize("L", [8, 10])
def test_canonical_gauge_undoes_rotations_inside_blocks(rng, L, preset):
    """Any orthogonal basis of each degenerate block, and any signs, canonicalize
    back to diagonalize's vectors."""
    basis = build_sector_basis(L)
    H = build_ising(IsingParams(*PRESETS[preset], L)).sector_matrix(basis)
    eig = diagonalize(H, basis)
    blocks = degenerate_blocks(eig.energies)
    assert blocks, "the h=0 chain has degenerate levels at L=8 and 10"
    for _ in range(3):
        rotated = eig.states * rng.choice([-1.0, 1.0], basis.dim)
        for a, b in blocks:
            Q, _ = np.linalg.qr(rng.standard_normal((b - a, b - a)))
            assert np.abs(rotated[:, a:b] @ Q - eig.states[:, a:b]).max() > 1e-3
            rotated[:, a:b] = rotated[:, a:b] @ Q
        out = canonicalize(eig.energies, rotated, basis)
        assert out is rotated
        assert np.abs(out - eig.states).max() <= 1e-12


def test_shell_selection_examples():
    L = 10
    eig = EigenDecomposition(np.array([-3.0, -2.0, -0.5]), np.eye(3))
    shell = select_shell(eig, -0.25, -0.1, L)
    assert shell.indices.tolist() == [1]
    assert shell.energies.tolist() == [-2.0]
    assert_array_equal(shell.states, eig.states[:, [1]])

    empty = select_shell(eig, 5.0, 6.0, L)
    assert empty.indices.tolist() == [] and empty.size == 0
    assert empty.states.shape == (3, 0)

    with pytest.raises(ValueError):
        select_shell(eig, -0.1, -0.25, L)


def test_shell_bounds_closed():
    L = 4
    eig = EigenDecomposition(np.array([-1.0, -0.4, 0.0]), np.eye(3))
    shell = select_shell(eig, -0.25, -0.1, L)
    # -1.0/4 and -0.4/4 hit the boundaries exactly and are both kept.
    assert shell.indices.tolist() == [0, 1]


def test_shell_membership_reproducible_from_energies():
    L = 8
    basis = build_sector_basis(L)
    H = build_ising(IsingParams(*PRESETS["integrable"], L)).sector_matrix(basis)
    eig = diagonalize(H, basis)
    shell = select_shell(eig, -0.25, -0.1, L)
    recomputed = np.flatnonzero((eig.energies / L >= -0.25) & (eig.energies / L <= -0.1))
    assert_array_equal(shell.indices, recomputed)
    assert_array_equal(shell.energies, eig.energies[recomputed])
    assert_array_equal(shell.states, eig.states[:, recomputed])


@pytest.mark.parametrize("L", [4, 6])
def test_integrable_spectrum_even_in_g(L):
    basis = build_sector_basis(L)
    plus = diagonalize(build_ising(IsingParams(0.0, 0.5, L)).sector_matrix(basis), basis)
    minus = diagonalize(build_ising(IsingParams(0.0, -0.5, L)).sector_matrix(basis), basis)
    assert_allclose(plus.energies, minus.energies, atol=1e-9)


def test_ground_state_density_monotone_in_g():
    L = 8
    basis = build_sector_basis(L)
    densities = []
    for g in np.arange(0.1, 1.05, 0.1):
        H = build_ising(IsingParams(0.0, float(g), L)).sector_matrix(basis)
        densities.append(np.linalg.eigvalsh(H.toarray())[0] / L)
    assert np.all(np.diff(densities) < 0)


def test_spectrum_csv_roundtrip():
    L = 4
    basis = build_sector_basis(L)
    H = build_ising(IsingParams(*PRESETS["integrable"], L)).sector_matrix(basis)
    eig = diagonalize(H, basis)
    shell = select_shell(eig, -0.25, -0.1, L)
    text = spectrum_csv(eig.energies, shell, L)
    lines = text.strip().splitlines()
    assert lines[0] == "alpha,E,E_over_L,in_shell"
    assert len(lines) == basis.dim + 1
    for line in lines[1:]:
        alpha, E, density, in_shell = line.split(",")
        assert float(E) / L == float(density)
        assert (int(alpha) in shell.indices) == bool(int(in_shell))
