"""Discretized evolution: exactness, drift accounting, protocol persistence."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from eigenwork.model import IsingParams, build_ising, diagonalize
from eigenwork.operators import OperatorStack, build_basis, sum_x
from eigenwork.propagate import (ControlProtocol, StateBatch, evolve,
                                 expm_step)
from eigenwork.sector import (NumericalConsistencyError, build_sector_basis,
                              embed_state)


@pytest.fixture(scope="module")
def setup_L6():
    basis = build_sector_basis(6)
    ops = build_basis(6, 2)
    stack = OperatorStack(ops, basis)
    eig = diagonalize(build_ising(IsingParams.preset("integrable", 6)).sector_matrix(basis))
    return basis, ops, stack, eig


def test_expm_identity_cases():
    H = np.zeros((4, 4), dtype=complex)
    assert_allclose(expm_step(H, 0.5), np.eye(4), atol=1e-15)
    H = np.diag([1.0, -2.0, 0.5, 3.0]).astype(complex)
    assert_allclose(expm_step(H, 0.0), np.eye(4), atol=1e-15)


def test_expm_half_step_composition(rng):
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = (A + A.conj().T) / 2
    dt = 0.07
    assert_allclose(expm_step(H, dt / 2) @ expm_step(H, dt / 2),
                    expm_step(H, dt), atol=1e-12)


def test_expm_matches_scipy(rng):
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    H = (A + A.conj().T) / 2
    assert_allclose(expm_step(H, 0.3), scipy.linalg.expm(-0.3j * H), atol=1e-12)


def test_expm_rejects_nonhermitian():
    with pytest.raises(NumericalConsistencyError):
        expm_step(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 0.1)


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
    U_sec = expm_step(op.sector_matrix(basis), 0.2)
    U_full = scipy.linalg.expm(-0.2j * op.dense_matrix())
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    v /= np.linalg.norm(v)
    stepped = U_sec @ v
    assert np.abs(embed_state(stepped / np.linalg.norm(stepped), basis)
                  - U_full @ embed_state(v, basis)).max() < 1e-9


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
