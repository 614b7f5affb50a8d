"""Discretized evolution: exactness, drift accounting, protocol persistence."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from numpy.testing import assert_allclose, assert_array_equal

from eigenwork import observables, operators, optimizer, propagate, runner, sector
from eigenwork.config import ExperimentConfig
from eigenwork.model import PRESETS, IsingParams, build_ising, diagonalize
from eigenwork.operators import OperatorStack, build_basis, discrete_action_set, sum_x
from eigenwork.propagate import (ControlProtocol, _taylor_plan, evolve, expm_step,
                                 norm_drift, spectral_propagator)
from eigenwork.sector import NumericalConsistencyError, build_sector_basis, embed_state, matmul


@pytest.fixture(scope="module")
def setup_L6():
    basis = build_sector_basis(6)
    ops = build_basis(6, 2)
    stack = OperatorStack(ops, basis)
    H = build_ising(IsingParams(*PRESETS["integrable"], 6)).sector_matrix(basis)
    eig = diagonalize(H, basis)
    return basis, ops, stack, eig


def random_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2


def spectral_unitary(H, t):
    """exp(-i t H) from the held-row eigenpairs, V e^{-i t E} V^dag."""
    E, V = spectral_propagator(H)
    return (V * np.exp(-1j * t * E)) @ V.conj().T


def count_eigh(monkeypatch):
    """Record the matrix size of every np.linalg.eigh call."""
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda H, *args: calls.append(len(H)) or eigh(H, *args))
    return calls


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
    assert_allclose(spectral_unitary(H, 0.3), scipy.linalg.expm(-0.3j * H), atol=1e-12)


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


@pytest.fixture(scope="module")
def held_rows_L8():
    """The real L=8 quench H and the imaginary discrete actions y and xy + yx,
    each as an assembled held row and as its CSR sector matrix."""
    basis = build_sector_basis(8)
    quench = runner.prepare(ExperimentConfig.from_dict(
        {"L": 8, "preset": "nonintegrable", "mode": "quench"}))
    actions = OperatorStack(discrete_action_set(8), basis)
    labels = [op.label for op in actions.ops]
    rows = {"quench": (quench.stack.assemble(np.ones(1)),
                       quench.stack.ops[0].sector_matrix(basis))}
    for label in ("y", "xy + yx"):
        i = labels.index(label)
        rows[label] = (actions.assemble(np.eye(actions.n_ops)[i]),
                       actions.ops[i].sector_matrix(basis))
    return rows


@pytest.mark.parametrize("label", ["quench", "y", "xy + yx"])
def test_step_unitary_of_held_rows_matches_scipy(held_rows_L8, label):
    """A held row's eigenvectors are real exactly when H is, and give its step unitary."""
    H = held_rows_L8[label][0]
    real = label == "quench"
    assert (np.abs(H.imag).max() == 0) == real and (np.abs(H.real).max() == 0) != real
    E, V = spectral_propagator(H)
    assert np.iscomplexobj(V) != real and E.dtype == np.float64
    for t in (0.002, -0.3, 23 * 0.002):
        assert_allclose(spectral_unitary(H, t), scipy.linalg.expm(-1j * t * H),
                        rtol=0, atol=1e-12)


@pytest.mark.parametrize("label", ["quench", "y"])
def test_expm_step_csr_matches_dense(held_rows_L8, rng, label):
    H, H_csr = held_rows_L8[label]
    assert_array_equal(H_csr.toarray(), H)
    B = rng.normal(size=(len(H), 5)) + 1j * rng.normal(size=(len(H), 5))
    B /= np.linalg.norm(B, axis=0)
    for dt in (0.002, -0.3):
        assert_allclose(expm_step(H_csr, dt, B), expm_step(H, dt, B),
                        rtol=0, atol=1e-13)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expm_step_csr_rejects_non_finite_data(held_rows_L8, bad):
    H = held_rows_L8["quench"][1].copy()
    H.data[7] = bad
    with pytest.raises(NumericalConsistencyError):
        expm_step(H, 0.002, np.eye(H.shape[0]))


def test_real_view_product_matches_complex(held_rows_L8, rng):
    """A real H multiplies a read-only or non-contiguous batch through its float view."""
    H, H_csr = held_rows_L8["quench"]
    assert H_csr.dtype == np.float64
    X = rng.normal(size=(len(H), 6)) + 1j * rng.normal(size=(len(H), 6))
    read_only = X.copy()
    read_only.setflags(write=False)
    for batch in (X, read_only, X[:, ::2], np.asfortranarray(X), X[:, 1:2]):
        for real_H in (H_csr, H.real):
            assert_allclose(matmul(real_H, batch), H @ batch, rtol=0, atol=1e-14)
    assert not read_only.flags.writeable


def test_optimize_applies_the_one_csr_target_and_kick(tmp_path, monkeypatch):
    """The controller's H psi and w, the final sample, the kick and the replay
    observer all apply the real CSR target and kick generator of ``prepare``."""
    contexts, targets, kicks = [], [], []
    prepare, kick, matmul = runner.prepare, propagate.kick_unitary, sector.matmul
    monkeypatch.setattr(runner, "prepare",
                        lambda config: contexts.append(prepare(config)) or contexts[-1])
    monkeypatch.setattr(propagate, "kick_unitary",
                        lambda K, duration, states: kicks.append(K) or kick(K, duration, states))
    monkeypatch.setattr(optimizer, "matmul", lambda H, X: targets.append(H) or matmul(H, X))
    for module in (optimizer, runner):
        monkeypatch.setattr(module, "work_density", lambda states, E, H, L, H_psi=None: (
            targets.append(H) or observables.work_density(states, E, H, L, H_psi=H_psi)))
    config = ExperimentConfig.from_dict({"L": 8, "preset": "integrable", "mode": "optimize",
                                         "k": 2, "duration": 0.1,
                                         "outdir": str(tmp_path / "run")})
    assert runner.replay(runner.run(config))["within_tolerance"]

    run, replay = contexts
    for ctx in contexts:
        for matrix in (ctx.H_target, ctx.kick_matrix):
            assert isinstance(matrix, scipy.sparse.csr_array) and matrix.dtype == np.float64
    assert len(kicks) == 2 and all(K is ctx.kick_matrix for K, ctx in zip(kicks, contexts))
    n_run = 2 * config.n_steps + 1  # H psi and w per controller step, then the final w
    assert len(targets) == n_run + len(config.sample_steps)
    assert all(H is run.H_target for H in targets[:n_run])
    assert all(H is replay.H_target for H in targets[n_run:])


def test_fixed_protocol_observer_uses_the_sparse_target(monkeypatch):
    """A quench's observer applies the target's CSR form, within 1e-14 of the dense w."""
    config = ExperimentConfig.from_dict({"L": 8, "preset": "nonintegrable", "mode": "quench",
                                         "duration": 0.1})
    ctx = runner.prepare(config)
    seen = []
    monkeypatch.setattr(runner, "work_density", lambda states, E, H, L: seen.append(
        (H, states.copy())) or observables.work_density(states, E, H, L))
    runner._replay_trajectory(ctx, runner._constant_gamma_protocol(ctx))
    assert len(seen) == len(config.sample_steps)
    for H, states in seen:
        assert H is ctx.H_target and H.dtype == np.float64
        assert_allclose(observables.work_density(states, ctx.shell.energies, H, 8),
                        observables.work_density(states, ctx.shell.energies,
                                                 H.toarray(), 8), rtol=0, atol=1e-14)


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


def test_expm_rejects_nonhermitian(monkeypatch):
    """A non-Hermitian H never reaches expm_step or eigh, which reads one
    triangle of a held row: the constructors that build every H reject it."""
    basis = build_sector_basis(2)
    monkeypatch.setattr(operators, "sector_entries",
                        lambda terms, basis: (np.array([1]), np.array([1.0 + 0j])))
    with pytest.raises(NumericalConsistencyError):
        OperatorStack([sum_x(2)], basis)
    with pytest.raises(NumericalConsistencyError):
        sum_x(2).sector_matrix(basis)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_rejects_non_finite_input(bad):
    H = np.diag([1.0, bad]).astype(complex)
    with pytest.raises(NumericalConsistencyError):
        expm_step(H, 0.1, np.eye(2))
    with pytest.raises(NumericalConsistencyError, match="non-finite"):
        spectral_propagator(H)
    with pytest.raises(NumericalConsistencyError):
        expm_step(np.eye(2, dtype=complex), bad, np.eye(2))


def test_spectral_propagator_checks_orthonormality(monkeypatch):
    """Eigenvectors off orthonormality by more than 1e-11 stop the run (exit 3)."""
    H = np.diag([1.0, -2.0, 0.5])
    E, V = np.linalg.eigh(H)
    monkeypatch.setattr(np.linalg, "eigh", lambda H: (E, (1 + 1e-12) * V))
    spectral_propagator(H)
    monkeypatch.setattr(np.linalg, "eigh", lambda H: (E, (1 + 1e-9) * V))
    with pytest.raises(NumericalConsistencyError, match="orthonormality"):
        spectral_propagator(H)


def test_taylor_step_term_cap():
    H = np.diag([1e200, -1e200]).astype(complex)
    with pytest.raises(NumericalConsistencyError):
        expm_step(H, 1.0, np.eye(2))
    with pytest.raises(NumericalConsistencyError):
        expm_step(H, 1e200, np.eye(2))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_check_norms_rejects_non_finite_states(setup_L6):
    """The norm check after a product rejects a NaN or inf column."""
    basis, ops, stack, eig = setup_L6
    protocol = ControlProtocol(dt=0.01, gamma=np.zeros((1, stack.n_ops)))
    for bad in (np.nan, np.inf):
        psi0 = eig.states[:, :2].copy()
        psi0[0, 1] = bad
        assert not norm_drift(psi0) <= 1e-8
        with pytest.raises(NumericalConsistencyError):
            evolve(psi0, protocol, stack)


def test_empty_protocol_is_identity(setup_L6):
    basis, ops, stack, eig = setup_L6
    psi0 = eig.states[:, :3]
    protocol = ControlProtocol(dt=0.01, gamma=np.zeros((0, stack.n_ops)))
    out = evolve(psi0, protocol, stack)
    assert_array_equal(out, psi0)
    assert out.flags.c_contiguous and not np.shares_memory(out, psi0)


def test_measured_hamiltonian_protocol_preserves_energy(setup_L6):
    """Driving with H(0) itself leaves every eigenstate expectation fixed."""
    basis, ops, stack, eig = setup_L6
    H_op = build_ising(IsingParams(*PRESETS["integrable"], 6))
    H_sec = H_op.sector_matrix(basis).toarray()
    # H(0) expanded over the basis: coefficients on sum ZZ, sum Z, sum X.
    gamma0 = np.zeros(stack.n_ops)
    for i, op in enumerate(ops):
        keys = {(p.x_mask, p.z_mask) for _, p in op.terms}
        coeffs = {(p.x_mask, p.z_mask): c for c, p in H_op.terms}
        if keys <= coeffs.keys():
            gamma0[i] = coeffs[next(iter(keys))]
    assert abs(stack.frobenius_norm_sq(gamma0) - H_op.norm_sq) < 1e-9

    psi0 = eig.states[:, 2:6]
    protocol = ControlProtocol(dt=0.02, gamma=np.tile(gamma0, (100, 1)))
    out = evolve(psi0, protocol, stack)
    energy = np.einsum("ia,ia->a", out.conj(), H_sec @ out).real
    assert np.abs(energy - eig.energies[2:6]).max() < 1e-10


def test_unitarity_accumulation(setup_L6, rng):
    basis, ops, stack, eig = setup_L6
    psi0 = eig.states[:, :2]
    gamma = rng.normal(size=(1000, stack.n_ops)) * 0.3
    protocol = ControlProtocol(dt=0.002, gamma=gamma)
    out = evolve(psi0, protocol, stack, sample_steps=[1000])
    assert norm_drift(out) < 1e-8


def test_time_reversal(setup_L6, rng):
    basis, ops, stack, eig = setup_L6
    psi0 = eig.states[:, :3]
    gamma = rng.normal(size=(500, stack.n_ops)) * 0.5
    forward = evolve(psi0, ControlProtocol(dt=0.002, gamma=gamma), stack)
    back = evolve(forward, ControlProtocol(dt=-0.002, gamma=gamma[::-1]), stack)
    assert np.abs(back - psi0).max() < 1e-7


def test_sector_step_commutes_with_full_space(rng):
    L = 4
    basis = build_sector_basis(L)
    op = build_ising(IsingParams(*PRESETS["nonintegrable"], L))
    U_full = scipy.linalg.expm(-0.2j * op.dense_matrix())
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    v /= np.linalg.norm(v)
    stepped = expm_step(op.sector_matrix(basis), 0.2, v[:, None])[:, 0]
    assert np.abs(embed_state(stepped / np.linalg.norm(stepped), basis)
                  - U_full @ embed_state(v, basis)).max() < 1e-9


def test_evolve_mixes_held_eigenbases_and_taylor_steps(setup_L6, rng, monkeypatch):
    """A held row is one eigh, also when its run recurs after a single row, and
    takes fresh coefficients at each run; the other rows are Taylor steps."""
    basis, ops, stack, eig = setup_L6
    a, b, c, d = (rng.normal(size=stack.n_ops) * 0.4 for _ in range(4))
    gamma = np.array([a, a, a, b, a, a, c, c, d, a])
    dt = 0.01
    psi0 = eig.states[:, :4]
    calls = count_eigh(monkeypatch)
    out = evolve(psi0, ControlProtocol(dt=dt, gamma=gamma), stack)
    assert calls == [basis.dim] * 2

    taylor = exact = psi0
    for row in gamma:
        H = stack.assemble(row)
        taylor = expm_step(H, dt, taylor)
        exact = scipy.linalg.expm(-1j * dt * H) @ exact
    assert_allclose(out, taylor, rtol=0, atol=1e-12)
    assert_allclose(out, exact, rtol=0, atol=1e-12)


def test_held_row_is_one_power_per_sample_interval(setup_L6, rng, monkeypatch):
    """A row held for 23 steps sampled at 0, 10, 20, 23: one eigh, and each
    sample is e^{-i n dt H} psi0 from the coefficients taken at step 0."""
    basis, ops, stack, eig = setup_L6
    row = rng.normal(size=stack.n_ops) * 0.4
    dt, sample_steps = 0.01, [0, 10, 20, 23]
    psi0 = eig.states[:, :4]
    calls = count_eigh(monkeypatch)
    seen = []

    def observer(step, t, states):
        assert not states.flags.writeable
        seen.append((step, t, states.copy()))

    evolve(psi0, ControlProtocol(dt=dt, gamma=np.tile(row, (23, 1))), stack,
           observer=observer, sample_steps=sample_steps)
    assert calls == [basis.dim]
    assert [(n, t) for n, t, _ in seen] == [(n, n * dt) for n in sample_steps]
    H = stack.assemble(row)
    for n, _, states in seen:
        assert_allclose(states, scipy.linalg.expm(-1j * n * dt * H) @ psi0,
                        rtol=0, atol=1e-12)


def test_held_row_runs_keep_the_norm_check(setup_L6, monkeypatch):
    """A held row whose eigenvectors are slightly too long still fails the norm check."""
    basis, ops, stack, eig = setup_L6
    psi0 = eig.states[:, :2]
    monkeypatch.setattr(propagate, "spectral_propagator",
                        lambda H: (lambda E, V: (E, 1.0001 * V))(*spectral_propagator(H)))
    gamma = np.ones((20, stack.n_ops)) * 0.3
    with pytest.raises(NumericalConsistencyError, match="norm drift"):
        evolve(psi0, ControlProtocol(dt=0.01, gamma=gamma), stack,
               observer=lambda *args: None, sample_steps=[0, 10, 20])


def test_quench_calls_the_eigensolver_once(monkeypatch):
    """A quench's one held row is diagonalized once, by a real eigh."""
    config = ExperimentConfig.from_dict({"L": 8, "preset": "nonintegrable", "mode": "quench"})
    ctx = runner.prepare(config)
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda H: calls.append(H.dtype) or eigh(H))
    protocol = ControlProtocol(dt=config.dt, gamma=np.ones((20, 1)))
    out = evolve(ctx.shell.states, protocol, ctx.stack)
    assert calls == [np.float64]
    U = scipy.linalg.expm(-1j * config.dt * ctx.stack.assemble(np.ones(1)))
    exact = np.linalg.matrix_power(U, 20) @ ctx.shell.states
    assert_allclose(out, exact, rtol=0, atol=1e-12)


def test_complex_and_degenerate_held_rows_match_taylor_steps(tmp_path, monkeypatch):
    """An L=8 discrete run holding y, xy + yx and the degenerate gI x over
    several steps each matches per-step Taylor steps, and replays within 1e-9."""
    config = ExperimentConfig.from_dict({"L": 8, "preset": "integrable", "mode": "discrete",
                                         "actions": [6, 6, 6, 2, 2, 4, 4, 4, 4, 0, 6, 6],
                                         "outdir": str(tmp_path / "run")})
    ctx = runner.prepare(config)
    protocol = runner._constant_gamma_protocol(ctx)
    E, V = spectral_propagator(ctx.stack.assemble(protocol.gamma[5]))
    assert np.diff(E).min() < 1e-9 and not np.iscomplexobj(V)  # gI x is degenerate
    assert np.iscomplexobj(spectral_propagator(ctx.stack.assemble(protocol.gamma[0]))[1])
    calls = count_eigh(monkeypatch)
    seen = []
    out = evolve(ctx.shell.states, protocol, ctx.stack,
                 observer=lambda n, t, states: seen.append((n, states.copy())),
                 sample_steps=config.sample_steps)
    assert calls == [ctx.basis.dim] * 4  # the runs of y, xy + yx, gI x and y again
    taylor, steps = ctx.shell.states, {}
    for n, row in enumerate(protocol.gamma):
        steps[n] = taylor
        taylor = expm_step(ctx.stack.assemble(row), config.dt, taylor)
    steps[protocol.n_steps] = taylor
    assert_allclose(out, taylor, rtol=0, atol=1e-12)
    assert [n for n, _ in seen] == list(config.sample_steps)
    for n, states in seen:
        assert_allclose(states, steps[n], rtol=0, atol=1e-12)

    result = runner.replay(runner.run(config))
    assert result["within_tolerance"] and result["max_w_deviation"] <= 1e-9


def test_controller_rows_are_never_cached(setup_L6, rng, monkeypatch):
    """A controller's rows are Taylor steps even when they repeat, and are recorded."""
    basis, ops, stack, eig = setup_L6
    row = rng.normal(size=stack.n_ops) * 0.4
    dt, n_steps = 0.01, 6
    psi0 = eig.states[:, :4]
    asked = []
    calls = count_eigh(monkeypatch)

    def controller(step, states):
        asked.append(step)
        assert not states.flags.writeable
        return row

    protocol = ControlProtocol(dt=dt, gamma=np.zeros((n_steps, stack.n_ops)))
    out = evolve(psi0, protocol, stack, controller=controller)
    assert calls == []
    assert asked == list(range(n_steps))
    assert_array_equal(protocol.gamma, np.tile(row, (n_steps, 1)))

    taylor = psi0
    H = stack.assemble(row)
    for _ in range(n_steps):
        taylor = expm_step(H, dt, taylor)
    assert_allclose(out, taylor, rtol=0, atol=1e-12)


def test_evolve_rejects_non_finite_protocol(setup_L6):
    basis, ops, stack, eig = setup_L6
    psi0 = eig.states[:, :1]
    for n_bad in (1, 3):
        gamma = np.zeros((4, stack.n_ops))
        gamma[1:1 + n_bad, 0] = np.nan
        with pytest.raises(NumericalConsistencyError):
            evolve(psi0, ControlProtocol(dt=0.1, gamma=gamma), stack)


def test_observer_sampling_and_snapshots(setup_L6):
    basis, ops, stack, eig = setup_L6
    psi0 = eig.states[:, :1]
    gamma = np.zeros((10, stack.n_ops))
    gamma[:, 0] = 1.0
    seen = []

    def observer(step, t, states):
        seen.append((step, t))
        assert not states.flags.writeable

    evolve(psi0, ControlProtocol(dt=0.1, gamma=gamma), stack,
           observer=observer, sample_steps=[0, 5, 10])
    assert seen == [(0, 0.0), (5, 0.5), (10, 1.0)]


def test_manifest_mismatch_rejected(setup_L6):
    basis, ops, stack, eig = setup_L6
    psi0 = eig.states[:, :1]
    protocol = ControlProtocol(dt=0.1, gamma=np.zeros((2, stack.n_ops)),
                               basis_checksum="deadbeef")
    with pytest.raises(ValueError):
        evolve(psi0, protocol, stack)
    wrong_width = ControlProtocol(dt=0.1, gamma=np.zeros((2, stack.n_ops + 1)))
    with pytest.raises(ValueError):
        evolve(psi0, wrong_width, stack)


def test_kick_requires_generator(setup_L6):
    basis, ops, stack, eig = setup_L6
    psi0 = eig.states[:, :1]
    protocol = ControlProtocol(dt=0.1, gamma=np.zeros((1, stack.n_ops)),
                               kick_duration=0.001)
    with pytest.raises(ValueError):
        evolve(psi0, protocol, stack)
    kick = sum_x(6).sector_matrix(basis)
    out = evolve(psi0, protocol, stack, kick_matrix=kick)
    assert norm_drift(out) < 1e-10


@pytest.mark.parametrize("kick", [np.nan, np.inf, -0.001])
def test_protocol_rejects_a_non_finite_or_negative_kick(kick):
    """evolve applies a kick only when its duration is > 0, so a NaN would pass
    silently as no kick: the protocol refuses it where it is made or read."""
    with pytest.raises(ValueError, match="kick duration"):
        ControlProtocol(dt=0.002, gamma=np.zeros((1, 3)), kick_duration=kick)


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
