"""Work metrics and entanglement diagnostics against independent evaluations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eigenwork import observables
from eigenwork.model import PRESETS, build_ising, diagonalize
from eigenwork.config import ConfigError
from eigenwork.observables import (FIG4_HEADER, Trajectory, csv_text, d_pos, ee_records,
                                   fig4_rows, half_chain_entropies)
from eigenwork.operators import OperatorStack, build_basis, sum_x
from eigenwork.pauli import reflect_bits
from eigenwork.propagate import ControlProtocol, evolve
from eigenwork.sector import build_sector_basis
from oracles import embed_state, half_chain_ee


def test_d_pos_examples():
    assert d_pos(np.array([0.2, 0.15, 0.149]), 0.15) == 2
    assert d_pos(np.zeros(40), 0.15) == 0
    assert d_pos(np.zeros(40), 0.0) == 40  # W >= 0 counts at threshold zero


def test_d_pos_monotone_in_threshold(rng):
    w = rng.normal(size=200) * 0.2
    eps_grid = [0.10, 0.125, 0.15, 0.175]
    counts = [d_pos(w, e) for e in eps_grid]
    assert counts == sorted(counts, reverse=True)


def test_ee_product_state():
    state = np.zeros(16)
    state[0] = 1.0
    assert half_chain_ee(state, 4) == 0.0


def test_ee_two_schmidt_weights():
    state = np.zeros(16)
    state[0b0101] = state[0b1010] = 1 / np.sqrt(2)
    assert abs(half_chain_ee(state, 4) - np.log(2)) < 1e-12


def test_ee_dual_method_oracle(rng):
    """Reduced-density-matrix eigenvalues vs singular values of the reshape."""
    L = 8
    psi = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    psi /= np.linalg.norm(psi)
    amp = psi.reshape(1 << (L // 2), 1 << (L // 2))
    rho = amp.conj().T @ amp  # traces out the high-bit block
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-14]
    S_rho = -np.sum(lam * np.log(lam))
    assert abs(half_chain_ee(psi, L) - S_rho) < 1e-10


def test_ee_phase_invariance(rng):
    L = 6
    psi = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    psi /= np.linalg.norm(psi)
    assert abs(half_chain_ee(psi, L) - half_chain_ee(np.exp(0.7j) * psi, L)) < 1e-12


def test_ee_complement_invariance(rng):
    """Tracing out either side of the cut gives the same entropy."""
    L = 6
    psi = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    psi /= np.linalg.norm(psi)
    swapped = psi.reshape(1 << (L // 2), 1 << (L // 2)).T.ravel()
    assert abs(half_chain_ee(psi, L) - half_chain_ee(swapped, L)) < 1e-10


def test_ee_bounds_and_validation(rng):
    L = 6
    psi = rng.normal(size=1 << L)
    psi /= np.linalg.norm(psi)
    S = half_chain_ee(psi, L)
    assert 0.0 <= S <= (L / 2) * np.log(2) + 1e-9
    with pytest.raises(ValueError):
        half_chain_ee(np.ones(8) / np.sqrt(8), 3)
    with pytest.raises(ValueError):
        half_chain_ee(np.ones(1 << L), L)


def _random_batch(rng, dim, m, complex_):
    v = rng.normal(size=(dim, m))
    if complex_:
        v = v + 1j * rng.normal(size=(dim, m))
    return v / np.linalg.norm(v, axis=0)


def _oracle_entropies(v, basis):
    return np.array([half_chain_ee(embed_state(v[:, j], basis), basis.L)
                     for j in range(v.shape[1])])


@pytest.mark.parametrize("drift", [0.0, 1e-9], ids=["unit", "drift"])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 12])
def test_half_chain_entropies_match_full_space_oracle(rng, L, complex_, drift):
    """The Schmidt-block kernel against one SVD per embedded unit state.

    L=2 has an empty odd block. Columns off unit norm by the drift evolution
    leaves give the entropies of the unit states.
    """
    basis = build_sector_basis(L)
    v = _random_batch(rng, basis.dim, 6, complex_)
    S = half_chain_entropies(v * (1.0 + drift * np.array([1, -1, 0.5, -0.5, 0, 1])), basis)
    assert S.shape == (6,)
    assert_allclose(S, _oracle_entropies(v, basis), rtol=0, atol=1e-12)


def test_half_chain_entropies_chunk_the_columns(rng, monkeypatch):
    """A chunk of one column gives the same entropies as one chunk of all of them."""
    basis = build_sector_basis(8)
    v = _random_batch(rng, basis.dim, 5, True)
    whole = half_chain_entropies(v, basis)
    monkeypatch.setattr(observables, "SCHMIDT_CHUNK_BYTES", 1)
    assert_allclose(half_chain_entropies(v, basis), whole, rtol=0, atol=1e-14)


def test_half_chain_entropies_of_a_product_state_are_zero():
    basis = build_sector_basis(6)
    v = np.zeros((basis.dim, 1), dtype=complex)
    v[int(np.searchsorted(basis.orbit_reps, 0)), 0] = 1.0
    assert half_chain_entropies(v, basis).tolist() == [0.0]
    assert half_chain_entropies(v.real, basis).tolist() == [0.0]


def test_half_chain_entropies_reject_odd_L():
    basis = build_sector_basis(5)
    with pytest.raises(ValueError):
        half_chain_entropies(np.eye(basis.dim), basis)


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10])
def test_sector_schmidt_matrix_symmetric_and_reflection_even(rng, L):
    """The invariant the block kernel rests on: Psi = Psi^T and P Psi P = Psi.

    Psi[b, a] is an embedded sector vector with a the low L/2 bits; P reverses
    the L/2 bits of a half.
    """
    basis = build_sector_basis(L)
    half = 1 << (L // 2)
    P = reflect_bits(np.arange(half), L // 2)
    full = embed_state(_random_batch(rng, basis.dim, 4, True), basis)
    for j in range(full.shape[1]):
        psi = full[:, j].reshape(half, half)
        assert_array_equal(psi, psi.T)
        assert_array_equal(psi[np.ix_(P, P)], psi)


def test_identity_protocol_gives_zero_deltaS():
    L = 6
    basis = build_sector_basis(L)
    H = build_ising(*PRESETS["integrable"], L).sector_matrix(basis)
    states = diagonalize(H, basis)[1][:, 3:6]
    ee = ee_records(states, states, basis)
    assert ee.shape == (3, 2) and np.all(np.isfinite(ee))
    assert np.abs(ee[:, 0] - ee[:, 1]).max() < 1e-12


def test_deltaS_sign_convention_toy():
    """A protocol that provably entangles a product state must give dS < 0."""
    L = 4
    basis = build_sector_basis(L)
    ops = build_basis(L, 2)
    stack = OperatorStack(ops, basis)
    s0 = int(np.searchsorted(basis.orbit_reps, 0))
    v = np.zeros((basis.dim, 1), dtype=complex)
    v[s0, 0] = 1.0

    xx = next(i for i, op in enumerate(ops)
              if {(x, z) for _, x, z in op.terms}
              == {(0b0011, 0), (0b0110, 0), (0b1100, 0), (0b1001, 0)})
    gamma = np.zeros((40, stack.n_ops))
    gamma[:, xx] = 1.0
    protocol = ControlProtocol(dt=0.02, gamma=gamma, basis_checksum=stack.checksum,
                               kick_duration=0.001)
    out = evolve(v, protocol, stack,
                 kick_matrix=sum_x(L).sector_matrix(basis))

    (S0, St), = ee_records(v, out, basis)
    assert S0 == 0.0
    assert St > 0.05
    assert S0 - St < 0


def _toy_trajectory():
    traj = Trajectory(np.array([5, 9]), np.array([-1.2, -1.4]))
    traj.add_sample(0, 0.0, 0.1, 0.0, 0, [0.0, 0.0])
    traj.add_sample(10, 0.5, 0.8, 0.2, 1, [0.2, 0.01])
    traj.add_sample(20, 1.0, 1.5, 0.1, 2, [0.21, 0.152])
    traj.ee = np.array([[0.3, 0.9], [0.4, 0.35]])
    return traj


def test_dpos_recompute_matches_timeseries():
    traj = _toy_trajectory()
    eps = 0.15
    loaded = Trajectory.from_csv(traj.timeseries_csv(), traj.per_state_csv())
    assert loaded.times == traj.times
    for w, dp in zip(loaded.w_samples, loaded.dpos, strict=True):
        assert d_pos(w, eps) == dp


def test_from_csv_rejects_rows_off_the_sample_grid():
    traj = _toy_trajectory()
    ts, ps = traj.timeseries_csv(), traj.per_state_csv()
    lines = ps.splitlines()
    swapped = lines[:3] + [lines[4], lines[3]] + lines[5:]  # states reordered at t=0.5
    retimed = lines[:3] + [lines[3].replace(",0.5,", ",0.25,")] + lines[4:]
    bad = {
        "row dropped": (ts, "\n".join(lines[:-1]) + "\n"),
        "states reordered": (ts, "\n".join(swapped) + "\n"),
        "time off the grid": (ts, "\n".join(retimed) + "\n"),
        "sample dropped": ("\n".join(ts.splitlines()[:-1]) + "\n", ps),
        "no samples": ("step,t,r,y_norm,d_pos\n", "alpha,E,t,w,S\n"),
        "final S missing": (ts, ps.replace(",0.90000000000000002\n", ",\n")),
        "wrong header": (ts, ps.replace("alpha,E,t,w,S", "alpha,E,t,w")),
    }
    for name, (ts_text, ps_text) in bad.items():
        with pytest.raises(ConfigError):
            Trajectory.from_csv(ts_text, ps_text)
            pytest.fail(name)  # reached only if the case was accepted


def test_per_state_csv_carries_ee_at_endpoints():
    traj = _toy_trajectory()
    rows = [ln.split(",") for ln in traj.per_state_csv().splitlines()[1:]]
    s_values = {(int(r[0]), float(r[2])): r[4] for r in rows}
    assert float(s_values[(5, 0.0)]) == 0.3
    assert float(s_values[(5, 1.0)]) == 0.9
    assert s_values[(5, 0.5)] == ""


def test_fig4_csv_columns():
    traj = _toy_trajectory()
    lines = csv_text(FIG4_HEADER, fig4_rows(traj, 0.15)).splitlines()
    assert lines[0].split(",")[5:7] == ["dS_final_minus_initial", "dS_initial_minus_final"]
    row5 = lines[1].split(",")
    assert float(row5[5]) == pytest.approx(0.6)
    assert float(row5[6]) == pytest.approx(-0.6)
    assert row5[7] == "1"
    row9 = lines[2].split(",")
    assert row9[7] == "1"  # w = 0.152 >= 0.15 inclusive
