"""Greedy KKT controller: reward algebra, gradient oracle, run properties."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eigenwork.config import ConfigError, ExperimentConfig, RewardParams
from eigenwork.model import PRESETS, EnergyShell, build_ising, diagonalize, select_shell
from eigenwork.operators import OperatorStack, SymmetrizedOperator, build_basis, sum_x
from eigenwork.optimizer import (compute_Y, optimize, reward, reward_grad,
                                 solve_gamma)
from eigenwork.propagate import evolve, expm_step, kick_unitary
from eigenwork.sector import NumericalConsistencyError, build_sector_basis
from eigenwork.observables import work_density
from oracles import embed_state, frobenius_norm_sq, operator_dense_matrix

P = RewardParams()


def optimize_config(L, k, **fields):
    """An integrable-chain optimize config in the default shell."""
    return ExperimentConfig.from_dict(
        {"preset": "integrable", "L": L, "mode": "optimize", "k": k, **fields})


@pytest.fixture(scope="module")
def shell_setup_L8():
    L = 8
    basis = build_sector_basis(L)
    H_op = build_ising(*PRESETS["integrable"], L)
    H = H_op.sector_matrix(basis)
    energies, states = diagonalize(H, basis)
    shell = select_shell(energies, states, -0.25, -0.1, L)
    stack = OperatorStack(build_basis(L, 2), basis)
    kick = sum_x(L).sector_matrix(basis)
    return L, basis, H_op, H, shell, stack, kick


def test_reward_params_validation():
    with pytest.raises(ValueError):
        RewardParams(a=-1.0)
    with pytest.raises(ValueError):
        RewardParams(c=-0.1)
    with pytest.raises(ValueError):
        RewardParams(epsilon=0.3, delta=0.3)


def test_reward_frozen_values():
    assert abs(reward(np.array([P.epsilon]), P) - 0.485) < 1e-12
    # at the knee the step function is off, leaving only the sigmoid
    assert abs(reward(np.array([P.delta]), P) - 1 / (1 + np.exp(-4.5))) < 1e-12
    assert abs(reward(np.full(17, 50.0), P) - 17.0) < 1e-9


def test_reward_grad_frozen_values():
    assert abs(reward_grad(np.array([P.epsilon]), P)[0] - 7.6) < 1e-12
    assert reward_grad(np.array([10.0]), P)[0] < 1e-30


def test_reward_grad_matches_central_differences(rng):
    """Finite-difference oracle away from the knee discontinuity."""
    w = rng.uniform(-0.5, 0.8, size=64)
    w = w[np.abs(w - P.delta) > 1e-3]
    h = 1e-6
    for wi in w:
        fd = (reward(np.array([wi + h]), P) - reward(np.array([wi - h]), P)) / (2 * h)
        assert abs(reward_grad(np.array([wi]), P)[0] - fd) < 1e-6


def test_solve_gamma_closed_form():
    L, d = 8, 256
    C = np.sqrt(2 * L * d)
    Y = np.array([1.0, 0.0, 0.0])
    gamma = solve_gamma(Y, C, L, d, tol=1e-12)
    assert gamma.any()
    assert_allclose(gamma, [np.sqrt(2), 0.0, 0.0], atol=1e-14)
    assert abs(np.sum(gamma ** 2) - 2.0) < 1e-12

    Y = np.array([0.3, -0.4, 1.2])
    gamma = solve_gamma(Y, C, L, d, tol=1e-12)
    cos = np.dot(gamma, Y) / (np.linalg.norm(gamma) * np.linalg.norm(Y))
    assert abs(cos - 1.0) < 1e-12

    gamma = solve_gamma(np.zeros(3), C, L, d, tol=1e-12)
    assert gamma.shape == (3,) and not gamma.any()


def test_work_density_zero_at_start(shell_setup_L8):
    L, basis, H_op, H, shell, stack, kick = shell_setup_L8
    w = work_density(shell.states, shell.energies, H, L)
    assert np.abs(w).max() < 1e-12


def test_work_density_conserved_under_target(shell_setup_L8):
    L, basis, H_op, H, shell, stack, kick = shell_setup_L8
    states = expm_step(H, 0.7, shell.states)
    w = work_density(states, shell.energies, H, L)
    assert np.abs(w).max() < 1e-10


def test_Y_vanishes_for_unkicked_eigenstates(shell_setup_L8):
    L, basis, H_op, H, shell, stack, kick = shell_setup_L8
    w = work_density(shell.states, shell.energies, H, L)
    Y = compute_Y(shell.states, H @ shell.states, stack, reward_grad(w, P), L)
    assert np.abs(Y).max() < 1e-12


def test_Y_component_vanishes_for_target_aligned_element(shell_setup_L8):
    """[H, Q] = 0 when Q is proportional to the measured Hamiltonian."""
    L, basis, H_op, H, shell, stack, kick = shell_setup_L8
    unit = tuple((c / np.sqrt(H_op.norm_sq), x, z) for c, x, z in H_op.terms)
    aligned = OperatorStack([SymmetrizedOperator("aligned", unit, L)], basis)
    states = kick_unitary(kick, 0.05, shell.states)
    w = work_density(states, shell.energies, H, L)
    Y = compute_Y(states, H @ states, aligned, reward_grad(w, P), L)
    assert np.abs(Y).max() < 1e-10


def test_Y_matches_dense_commutator_oracle(shell_setup_L8):
    """Brute-force trace evaluation in the full 2^L space."""
    L, basis, H_op, H, shell, stack, kick = shell_setup_L8
    states = kick_unitary(kick, 0.05, shell.states)
    w = work_density(states, shell.energies, H, L)
    grad = reward_grad(w, P)
    Y = compute_Y(states, H @ states, stack, grad, L)

    H_full = operator_dense_matrix(H_op)
    full_states = embed_state(states, basis)
    Y_dense = np.zeros(stack.n_ops)
    for i, op in enumerate(stack.ops):
        comm = H_full @ operator_dense_matrix(op) - operator_dense_matrix(op) @ H_full
        acc = 0.0 + 0.0j
        for a in range(full_states.shape[1]):
            psi = full_states[:, a]
            val = psi.conj() @ comm @ psi
            assert abs(val.real) < 1e-10  # commutator expectation is imaginary
            acc += grad[a] * val
        Y_dense[i] = (1j / L * acc).real
    assert_allclose(Y, Y_dense, atol=1e-9)


def test_work_density_residue_guard(shell_setup_L8):
    L, basis, H_op, H, shell, stack, kick = shell_setup_L8
    broken = H + 1e-6j * np.eye(basis.dim)
    with pytest.raises(NumericalConsistencyError):
        work_density(shell.states, shell.energies, broken, L)
    states = shell.states.copy()
    states[0, 0] = np.nan
    with pytest.raises(NumericalConsistencyError):
        work_density(states, shell.energies, H, L)


def test_dw_dt_chain_rule_first_order_convergence(shell_setup_L8):
    """|finite difference - chain rule| must shrink linearly in dt."""
    L, basis, H_op, H, shell, stack, kick = shell_setup_L8
    states = kick_unitary(kick, 0.05, shell.states)
    gamma = np.zeros(stack.n_ops)
    gamma[1] = 1.1
    gamma[4] = -0.7
    H_t = stack.assemble(gamma)

    # chain rule, per state: dw/dt = -(2/L) Im <psi|H (H_t psi)> restructured
    H_psi = H @ states
    Ht_psi = H_t @ states
    predicted = -(2.0 / L) * np.einsum("ia,ia->a", H_psi.conj(), Ht_psi).imag
    w0 = work_density(states, shell.energies, H, L)

    errs = []
    dts = [4e-3, 2e-3, 1e-3]
    for dt in dts:
        stepped = expm_step(H_t, dt, states)
        w1 = work_density(stepped, shell.energies, H, L)
        fd = (w1 - w0) / dt
        errs.append(np.abs(fd - predicted).max())
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.8 < slope < 1.25


def test_optimize_properties_short_run(shell_setup_L8):
    """dr/dt identity, constraint activity, and replayable protocol shape."""
    L, basis, H_op, H, shell, stack, kick = shell_setup_L8
    d = 1 << L
    C = np.sqrt(2 * L * d)
    cfg = optimize_config(L, 2, dt=0.002, duration=0.1, sample_every=5)
    protocol, traj, final = optimize(cfg, H, shell, stack, kick)

    assert protocol.n_steps == 50
    assert protocol.kick_duration == 0.001
    active = np.abs(protocol.gamma).sum(axis=1) > 0
    assert active.any()
    sums = (protocol.gamma[active] ** 2).sum(axis=1)
    assert np.abs(sums - 2.0).max() < 1e-9
    for row in protocol.gamma[active]:
        norm = np.sqrt(frobenius_norm_sq(stack, row))
        assert abs(norm - C) / C < 1e-10

    # recorded y_norm gives dr/dt = C ||Y|| / sqrt(Ld) >= 0
    rate = C * np.asarray(traj.y_norm) / np.sqrt(L * d)
    assert np.all(rate >= 0)


def test_replay_of_optimized_protocol_is_bit_identical(shell_setup_L8):
    """evolve of the protocol optimize returns reproduces its states and w exactly."""
    L, basis, H_op, H, shell, stack, kick = shell_setup_L8
    cfg = optimize_config(L, 2, dt=0.002, duration=0.1, sample_every=5)
    protocol, traj, final = optimize(cfg, H, shell, stack, kick)
    replayed_w = []

    def observer(step, t, states):
        replayed_w.append(work_density(states, shell.energies, H, L))

    replayed = evolve(shell.states, protocol, stack, observer=observer,
                      sample_steps=cfg.sample_steps, kick_matrix=kick)
    assert_array_equal(replayed, final)
    assert len(replayed_w) == len(traj.w_samples) == len(cfg.sample_steps)
    for w_replay, w_opt in zip(replayed_w, traj.w_samples):
        assert_array_equal(w_replay, w_opt)


def test_optimize_requires_kick(shell_setup_L8):
    L, basis, H_op, H, shell, stack, kick = shell_setup_L8
    with pytest.raises(ConfigError, match="kick_duration"):
        optimize_config(L, 2, dt=0.002, duration=0.01, kick_duration=0.0)
    cfg = optimize_config(L, 2, dt=0.002, duration=0.01)
    cfg.kick_duration = 0.0  # past the config's refusal, optimize finds every gradient zero
    with pytest.raises(NumericalConsistencyError):
        optimize(cfg, H, shell, stack, kick)


def test_optimize_rejects_empty_shell(shell_setup_L8):
    L, basis, H_op, H, shell, stack, kick = shell_setup_L8
    empty = EnergyShell(np.arange(0), np.zeros(0), np.zeros((basis.dim, 0)))
    cfg = optimize_config(L, 2, dt=0.002, duration=0.01)
    with pytest.raises(ValueError):
        optimize(cfg, H, empty, stack, kick)


def test_reward_approximately_monotone_L10():
    """Run-trace oracle for approximate monotonicity of the greedy reward.

    The controller keeps the control norm pinned at C even where the gradient
    is nearly stationary, so single steps can dent the reward by
    O(dt^2 * curvature); the observed dent at L=10, k=4, dt=0.002 is ~6e-5.
    The dent must stay within the frozen envelope and shrink when dt halves.
    """
    L = 10
    basis = build_sector_basis(L)
    H_op = build_ising(*PRESETS["integrable"], L)
    H = H_op.sector_matrix(basis)
    energies, states = diagonalize(H, basis)
    shell = select_shell(energies, states, -0.25, -0.1, L)
    stack = OperatorStack(build_basis(L, 4), basis)
    kick = sum_x(L).sector_matrix(basis)

    dents = {}
    for dt in (0.002, 0.001):
        cfg = optimize_config(L, 4, dt=dt, duration=1.0, sample_every=1)
        protocol, traj, final = optimize(cfg, H, shell, stack, kick)
        diffs = np.diff(traj.reward)
        dents[dt] = max(0.0, -float(diffs.min()))
        assert traj.reward[-1] > traj.reward[0] + 1.0
    assert dents[0.002] < 2e-4
    assert dents[0.001] <= dents[0.002] / 2 + 1e-12
