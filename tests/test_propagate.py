"""Discretized evolution: exactness, drift accounting, protocol persistence."""

import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from eigenwork import propagate
from eigenwork.model import IsingParams, build_ising, diagonalize
from eigenwork.operators import OperatorStack, build_basis, sum_x
from eigenwork.propagate import (ControlProtocol, StateBatch, _taylor_plan,
                                 evolve, expm_step, step_unitary)
from eigenwork.sector import (NumericalConsistencyError, build_sector_basis,
                              embed_state)


@pytest.fixture(scope="module")
def setup_L6():
    basis = build_sector_basis(6)
    ops = build_basis(6, 2)
    stack = OperatorStack(ops, basis)
    eig = diagonalize(build_ising(IsingParams.preset("integrable", 6)).sector_matrix(basis))
    return basis, ops, stack, eig


def random_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2


def test_expm_identity_cases():
    H = np.zeros((4, 4), dtype=complex)
    assert_allclose(expm_step(H, 0.5, np.eye(4)), np.eye(4), atol=1e-15)
    H = np.diag([1.0, -2.0, 0.5, 3.0]).astype(complex)
    assert_allclose(expm_step(H, 0.0, np.eye(4)), np.eye(4), atol=1e-15)


def test_expm_half_step_composition(rng):
    H = random_hermitian(rng, 8)
    dt = 0.07
    assert_allclose(expm_step(H, dt / 2, expm_step(H, dt / 2, np.eye(8))),
                    expm_step(H, dt, np.eye(8)), atol=1e-12)


def test_expm_matches_scipy(rng):
    H = random_hermitian(rng, 6)
    assert_allclose(expm_step(H, 0.3, np.eye(6)), scipy.linalg.expm(-0.3j * H), atol=1e-12)
    assert_allclose(step_unitary(H, 0.3), scipy.linalg.expm(-0.3j * H), atol=1e-12)


@pytest.mark.parametrize("n_cols,dt_norm,substeps", [
    (1, 0.05, 1), (7, 0.05, 1), (7, 0.9, 1), (7, 2.5, 3), (1, 5.5, 6)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_taylor_step_matches_scipy(rng, n_cols, dt_norm, substeps, sign):
    H = random_hermitian(rng, 12)
    norm_1 = np.abs(H).sum(axis=0).max()
    dt = sign * dt_norm / norm_1
    assert _taylor_plan(abs(dt) * norm_1)[0] == substeps
    B = rng.normal(size=(12, n_cols)) + 1j * rng.normal(size=(12, n_cols))
    B /= np.linalg.norm(B, axis=0)
    assert_allclose(expm_step(H, dt, B), scipy.linalg.expm(-1j * dt * H) @ B,
                    rtol=0, atol=1e-12)


def test_taylor_plan_bound():
    assert _taylor_plan(0.0) == (1, 0)
    for norm in (1e-3, 0.03, 0.1, 1.0, 2.5, 40.0):
        n_sub, n_terms = _taylor_plan(norm)
        x = norm / n_sub
        assert x <= propagate.TAYLOR_THETA
        bound = x ** (n_terms + 1) / math.factorial(n_terms + 1) * np.exp(x)
        assert bound <= propagate.TAYLOR_TOL
        shorter = x ** n_terms / math.factorial(n_terms) * np.exp(x)
        assert shorter > propagate.TAYLOR_TOL


def test_taylor_step_zero_hamiltonian_returns_states_exactly(rng):
    B = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    out = expm_step(np.zeros((5, 5), dtype=complex), 0.3, B)
    assert np.array_equal(out, B) and out is not B


def test_expm_rejects_nonhermitian():
    H = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NumericalConsistencyError):
        expm_step(H, 0.1, np.eye(2))
    with pytest.raises(NumericalConsistencyError):
        step_unitary(H, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_rejects_non_finite_input(bad):
    H = np.diag([1.0, bad]).astype(complex)
    with pytest.raises(NumericalConsistencyError):
        expm_step(H, 0.1, np.eye(2))
    with pytest.raises(NumericalConsistencyError):
        step_unitary(H, 0.1)
    with pytest.raises(NumericalConsistencyError):
        expm_step(np.eye(2, dtype=complex), bad, np.eye(2))


def test_taylor_step_term_cap():
    H = np.diag([1e200, -1e200]).astype(complex)
    with pytest.raises(NumericalConsistencyError):
        expm_step(H, 1.0, np.eye(2))
    with pytest.raises(NumericalConsistencyError):
        expm_step(H, 1e200, np.eye(2))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_check_norms_rejects_non_finite_states():
    for bad in (np.nan, np.inf):
        batch = StateBatch(np.array([[1.0], [bad]]), 0.0, np.zeros(1))
        with pytest.raises(NumericalConsistencyError):
            batch.check_norms()


def test_batch_validation():
    with pytest.raises(ValueError):
        StateBatch(np.zeros((4, 2)), 0.0, np.zeros(3))
    with pytest.raises(ValueError):
        StateBatch(np.zeros(4), 0.0, np.zeros(1))


def test_empty_protocol_is_identity(setup_L6):
    basis, ops, stack, eig = setup_L6
    batch = StateBatch(eig.states[:, :3], 0.0, eig.energies[:3])
    protocol = ControlProtocol(dt=0.01, gamma=np.zeros((0, stack.n_ops)))
    out = evolve(batch, protocol, stack)
    assert_allclose(out.states, batch.states, atol=0)


def test_measured_hamiltonian_protocol_preserves_energy(setup_L6):
    """Driving with H(0) itself leaves every eigenstate expectation fixed."""
    basis, ops, stack, eig = setup_L6
    H_op = build_ising(IsingParams.preset("integrable", 6))
    H_sec = H_op.sector_matrix(basis)
    # H(0) expanded over the basis: coefficients on sum ZZ, sum Z, sum X.
    gamma0 = np.zeros(stack.n_ops)
    for i, op in enumerate(ops):
        keys = {(p.x_mask, p.z_mask) for _, p in op.terms}
        coeffs = {(p.x_mask, p.z_mask): c for c, p in H_op.terms}
        if keys <= coeffs.keys():
            gamma0[i] = coeffs[next(iter(keys))]
    assert abs(stack.frobenius_norm_sq(gamma0) - H_op.norm_sq) < 1e-9

    batch = StateBatch(eig.states[:, 2:6], 0.0, eig.energies[2:6])
    protocol = ControlProtocol(dt=0.02, gamma=np.tile(gamma0, (100, 1)))
    out = evolve(batch, protocol, stack)
    energy = np.einsum("ia,ia->a", out.states.conj(), H_sec @ out.states).real
    assert np.abs(energy - batch.origin_energies).max() < 1e-10


def test_unitarity_accumulation(setup_L6, rng):
    basis, ops, stack, eig = setup_L6
    batch = StateBatch(eig.states[:, :2], 0.0, eig.energies[:2])
    gamma = rng.normal(size=(1000, stack.n_ops)) * 0.3
    protocol = ControlProtocol(dt=0.002, gamma=gamma)
    out = evolve(batch, protocol, stack, sample_steps=[1000])
    assert out.norm_drift() < 1e-8


def test_time_reversal(setup_L6, rng):
    basis, ops, stack, eig = setup_L6
    batch = StateBatch(eig.states[:, :3], 0.0, eig.energies[:3])
    gamma = rng.normal(size=(500, stack.n_ops)) * 0.5
    forward = evolve(batch, ControlProtocol(dt=0.002, gamma=gamma), stack)
    back = evolve(forward, ControlProtocol(dt=-0.002, gamma=gamma[::-1]), stack)
    assert np.abs(back.states - batch.states).max() < 1e-7


def test_sector_step_commutes_with_full_space(rng):
    L = 4
    basis = build_sector_basis(L)
    op = build_ising(IsingParams.preset("nonintegrable", L))
    U_full = scipy.linalg.expm(-0.2j * op.dense_matrix())
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    v /= np.linalg.norm(v)
    stepped = expm_step(op.sector_matrix(basis), 0.2, v)
    assert np.abs(embed_state(stepped / np.linalg.norm(stepped), basis)
                  - U_full @ embed_state(v, basis)).max() < 1e-9


def test_evolve_mixes_cached_unitary_and_taylor_steps(setup_L6, rng, monkeypatch):
    """Runs of identical rows reuse one dense unitary; the rest are Taylor steps."""
    basis, ops, stack, eig = setup_L6
    a, b, c, d = (rng.normal(size=stack.n_ops) * 0.4 for _ in range(4))
    gamma = np.array([a, a, a, b, c, c, d, a])
    dt = 0.01
    batch = StateBatch(eig.states[:, :4], 0.0, eig.energies[:4])
    built = []
    monkeypatch.setattr(propagate, "step_unitary",
                        lambda H, dt: built.append(dt) or step_unitary(H, dt))
    out = evolve(batch, ControlProtocol(dt=dt, gamma=gamma), stack)
    assert len(built) == 2

    taylor = exact = batch.states
    for row in gamma:
        H = stack.assemble(row)
        taylor = expm_step(H, dt, taylor)
        exact = scipy.linalg.expm(-1j * dt * H) @ exact
    assert_allclose(out.states, taylor, rtol=0, atol=1e-12)
    assert_allclose(out.states, exact, rtol=0, atol=1e-12)


def test_evolve_rejects_non_finite_protocol(setup_L6):
    basis, ops, stack, eig = setup_L6
    batch = StateBatch(eig.states[:, :1], 0.0, eig.energies[:1])
    for n_bad in (1, 3):
        gamma = np.zeros((4, stack.n_ops))
        gamma[1:1 + n_bad, 0] = np.nan
        with pytest.raises(NumericalConsistencyError):
            evolve(batch, ControlProtocol(dt=0.1, gamma=gamma), stack)


def test_observer_sampling_and_snapshots(setup_L6):
    basis, ops, stack, eig = setup_L6
    batch = StateBatch(eig.states[:, :1], 0.0, eig.energies[:1])
    gamma = np.zeros((10, stack.n_ops))
    gamma[:, 0] = 1.0
    seen = []

    def observer(step, t, states):
        seen.append((step, t))
        assert not states.flags.writeable

    evolve(batch, ControlProtocol(dt=0.1, gamma=gamma), stack,
           observers=[observer], sample_steps=[0, 5, 10])
    assert seen == [(0, 0.0), (5, 0.5), (10, 1.0)]


def test_manifest_mismatch_rejected(setup_L6):
    basis, ops, stack, eig = setup_L6
    batch = StateBatch(eig.states[:, :1], 0.0, eig.energies[:1])
    protocol = ControlProtocol(dt=0.1, gamma=np.zeros((2, stack.n_ops)),
                               basis_checksum="deadbeef")
    with pytest.raises(ValueError):
        evolve(batch, protocol, stack)
    wrong_width = ControlProtocol(dt=0.1, gamma=np.zeros((2, stack.n_ops + 1)))
    with pytest.raises(ValueError):
        evolve(batch, wrong_width, stack)


def test_kick_requires_generator(setup_L6):
    basis, ops, stack, eig = setup_L6
    batch = StateBatch(eig.states[:, :1], 0.0, eig.energies[:1])
    protocol = ControlProtocol(dt=0.1, gamma=np.zeros((1, stack.n_ops)),
                               kick_duration=0.001)
    with pytest.raises(ValueError):
        evolve(batch, protocol, stack)
    kick = sum_x(6).sector_matrix(basis)
    out = evolve(batch, protocol, stack, kick_matrix=kick)
    assert out.norm_drift() < 1e-10


def test_protocol_file_roundtrip_exact(tmp_path, rng):
    gamma = rng.normal(size=(7, 5)) * np.pi
    gamma[0, 0] = 1.0 / 3.0
    awkward = np.array([[-0.0, 5e-324, 1e300, -1e300],
                        [1e-300, -1e-300, 0.1 + 0.2, -5e-324]])
    for values in (gamma, awkward):
        protocol = ControlProtocol(dt=0.002, gamma=values, kick_duration=0.001,
                                   basis_checksum="abc123")
        path = tmp_path / "protocol.txt"
        protocol.save(path)
        n_steps, n_ops = values.shape
        rows = "".join(" ".join(f"{g:.17g}" for g in row) + "\n" for row in values)
        assert path.read_text() == (
            "# eigenwork protocol v1\nbasis_checksum abc123\ndt 0.002\n"
            f"n_steps {n_steps}\nn_ops {n_ops}\nkick_duration 0.001\n"
            "kick_generator sum_sigma_x\ngamma\n" + rows)
        loaded = ControlProtocol.load(path)
        assert loaded.dt == protocol.dt
        assert loaded.kick_duration == protocol.kick_duration
        assert loaded.basis_checksum == "abc123"
        assert np.array_equal(loaded.gamma, protocol.gamma)
        assert np.array_equal(np.signbit(loaded.gamma), np.signbit(protocol.gamma))
