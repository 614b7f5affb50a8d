"""Discretized evolution: exactness, drift accounting, protocol persistence."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from numpy.testing import assert_allclose, assert_array_equal

from eigenwork import observables, operators, optimizer, propagate, runner, sector
from eigenwork.config import ExperimentConfig
from eigenwork.model import PRESETS, build_ising, diagonalize
from eigenwork.operators import OperatorStack, build_basis, sum_x
from eigenwork.propagate import (ControlProtocol, _taylor_plan, evolve, expm_step, flip_blocks,
                                 kick_unitary, norm_drift, spectral_propagator)
from eigenwork.sector import NumericalConsistencyError, build_sector_basis, matmul, spin_flip
from oracles import embed_state, frobenius_norm_sq, operator_dense_matrix


@pytest.fixture(scope="module")
def setup_L6():
    basis = build_sector_basis(6)
    ops = build_basis(6, 2)
    stack = OperatorStack(ops, basis)
    H = build_ising(*PRESETS["integrable"], 6).sector_matrix(basis)
    energies, vectors = diagonalize(H, basis)
    return basis, ops, stack, energies, vectors


@pytest.fixture(scope="module")
def real_stack_L6(setup_L6):
    """B_2's real elements at L=6, those with no Y string: a stack with no
    imaginary column, over which a protocol's constant row is held."""
    basis, ops = setup_L6[:2]
    stack = OperatorStack([op for op in ops if op.sector_matrix(basis).dtype == np.float64],
                          basis)
    assert not stack.imag.nnz and 1 < stack.n_ops < len(ops)
    return stack


def random_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2


def spectral_unitary(H, t):
    """exp(-i t H) from the held-row eigenpairs, V e^{-i t E} V^T."""
    E, V = spectral_propagator(H)
    return (V * np.exp(-1j * t * E)) @ V.T


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
    assert_allclose(spectral_unitary(H.real, 0.3), scipy.linalg.expm(-0.3j * H.real),
                    atol=1e-12)


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
    """The L=8 quench H and sum X, each the row of a real one-column stack, and
    B_2's imaginary sum Y, each as an assembled row and as its CSR sector matrix."""
    basis = build_sector_basis(8)
    quench = build_ising(*PRESETS["quench-target"], 8)
    b2 = OperatorStack(build_basis(8, 2), basis)
    rows = {word: (OperatorStack([op], basis).assemble(np.ones(1)), op.sector_matrix(basis))
            for word, op in (("quench", quench), ("x", sum_x(8)))}
    i = [op.label for op in b2.ops].index("Y0")
    rows["y"] = (b2.assemble(np.eye(b2.n_ops)[i]), b2.ops[i].sector_matrix(basis))
    return rows


@pytest.mark.parametrize("label", ["quench", "x"])
def test_step_unitary_of_held_rows_matches_scipy(held_rows_L8, label):
    """A held row is real, and its real eigenvectors give its step unitary."""
    H = held_rows_L8[label][0]
    assert H.dtype == np.float64
    E, V = spectral_propagator(H)
    assert E.dtype == V.dtype == np.float64
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


def test_matmul_rejects_a_vector(rng):
    """matmul takes a (dim x M) batch; a 1-D state is refused by name, not by
    the core-dimension error of the real target's float-view product."""
    basis = build_sector_basis(6)
    H = build_ising(*PRESETS["nonintegrable"], 6).sector_matrix(basis)
    assert H.dtype == np.float64
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    with pytest.raises(ValueError, match=r"\(dim x M\) batch"):
        matmul(H, v)
    assert_array_equal(matmul(H, v[:, None])[:, 0], H @ v)


def test_optimize_applies_the_one_csr_target_and_kick(tmp_path, monkeypatch):
    """The controller's H psi and w, the final sample and the replay observer
    all apply the real CSR target of ``prepare``; the run's and the replay's
    kick each apply the real CSR sum X over the sector basis."""
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
    sum_x_csr = sum_x(8).sector_matrix(run.basis)
    for matrix in (run.H_target, replay.H_target, *kicks):
        assert isinstance(matrix, scipy.sparse.csr_array) and matrix.dtype == np.float64
    assert len(kicks) == 2
    for K in kicks:
        assert_array_equal(K.indptr, sum_x_csr.indptr)
        assert_array_equal(K.indices, sum_x_csr.indices)
        assert_array_equal(K.data, sum_x_csr.data)
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
        spectral_propagator(H.real)
    with pytest.raises(NumericalConsistencyError):
        expm_step(np.eye(2, dtype=complex), bad, np.eye(2))


def test_spectral_propagator_takes_only_a_real_row(held_rows_L8):
    """A complex H is refused, also one whose imaginary part is exactly zero:
    only a quench's real row is held."""
    quench = held_rows_L8["quench"][0]
    for H in (held_rows_L8["y"][0], quench.astype(complex)):
        with pytest.raises(ValueError, match="must be real"):
            spectral_propagator(H)


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
    basis, ops, stack, energies, vectors = setup_L6
    protocol = ControlProtocol(dt=0.01, gamma=np.zeros((1, stack.n_ops)),
                               basis_checksum=stack.checksum)
    for bad in (np.nan, np.inf):
        psi0 = vectors[:, :2].copy()
        psi0[0, 1] = bad
        assert not norm_drift(psi0) <= 1e-8
        with pytest.raises(NumericalConsistencyError):
            evolve(psi0, protocol, stack)


def test_empty_protocol_is_identity(setup_L6):
    basis, ops, stack, energies, vectors = setup_L6
    psi0 = vectors[:, :3]
    protocol = ControlProtocol(dt=0.01, gamma=np.zeros((0, stack.n_ops)),
                               basis_checksum=stack.checksum)
    out = evolve(psi0, protocol, stack)
    assert_array_equal(out, psi0)
    assert out.flags.c_contiguous and not np.shares_memory(out, psi0)


def test_measured_hamiltonian_protocol_preserves_energy(setup_L6):
    """Driving with H(0) itself leaves every eigenstate expectation fixed."""
    basis, ops, stack, energies, vectors = setup_L6
    H_op = build_ising(*PRESETS["integrable"], 6)
    H_sec = H_op.sector_matrix(basis).toarray()
    # H(0) expanded over the basis: coefficients on sum ZZ, sum Z, sum X.
    gamma0 = np.zeros(stack.n_ops)
    for i, op in enumerate(ops):
        keys = {(x, z) for _, x, z in op.terms}
        coeffs = {(x, z): c for c, x, z in H_op.terms}
        if keys <= coeffs.keys():
            gamma0[i] = coeffs[next(iter(keys))]
    assert abs(frobenius_norm_sq(stack, gamma0) - H_op.norm_sq) < 1e-9

    psi0 = vectors[:, 2:6]
    protocol = ControlProtocol(dt=0.02, gamma=np.tile(gamma0, (100, 1)),
                               basis_checksum=stack.checksum)
    out = evolve(psi0, protocol, stack)
    energy = np.einsum("ia,ia->a", out.conj(), H_sec @ out).real
    assert np.abs(energy - energies[2:6]).max() < 1e-10


def test_unitarity_accumulation(setup_L6, rng):
    basis, ops, stack, energies, vectors = setup_L6
    psi0 = vectors[:, :2]
    gamma = rng.normal(size=(1000, stack.n_ops)) * 0.3
    protocol = ControlProtocol(dt=0.002, gamma=gamma, basis_checksum=stack.checksum)
    out = evolve(psi0, protocol, stack, sample_steps=[1000])
    assert norm_drift(out) < 1e-8


def test_time_reversal(setup_L6, rng):
    basis, ops, stack, energies, vectors = setup_L6
    psi0 = vectors[:, :3]
    gamma = rng.normal(size=(500, stack.n_ops)) * 0.5
    forward = evolve(psi0, ControlProtocol(dt=0.002, gamma=gamma,
                                           basis_checksum=stack.checksum), stack)
    back = evolve(forward, ControlProtocol(dt=-0.002, gamma=gamma[::-1],
                                           basis_checksum=stack.checksum), stack)
    assert np.abs(back - psi0).max() < 1e-7


def test_sector_step_commutes_with_full_space(rng):
    L = 4
    basis = build_sector_basis(L)
    op = build_ising(*PRESETS["nonintegrable"], L)
    U_full = scipy.linalg.expm(-0.2j * operator_dense_matrix(op))
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    v /= np.linalg.norm(v)
    stepped = expm_step(op.sector_matrix(basis), 0.2, v[:, None])[:, 0]
    assert np.abs(embed_state(stepped / np.linalg.norm(stepped), basis)
                  - U_full @ embed_state(v, basis)).max() < 1e-9


def test_evolve_mixes_held_eigenbases_and_taylor_steps(setup_L6, rng, monkeypatch):
    """A fixed protocol with more than one distinct row takes no eigh, also when
    a row repeats over a run of steps or differs only at the end: every row is
    a Taylor step, which matches Taylor steps and expm row by row."""
    basis, ops, stack, energies, vectors = setup_L6
    a, b, c, d = (rng.normal(size=stack.n_ops) * 0.4 for _ in range(4))
    dt = 0.01
    psi0 = vectors[:, :4]
    calls = count_eigh(monkeypatch)
    for gamma in (np.array([a, a, a, b, a, a, c, c, d, a]), np.array([a] * 9 + [b])):
        out = evolve(psi0, ControlProtocol(dt=dt, gamma=gamma, basis_checksum=stack.checksum),
                     stack)
        assert calls == []

        taylor = exact = psi0
        for row in gamma:
            H = stack.assemble(row)
            taylor = expm_step(H, dt, taylor)
            exact = scipy.linalg.expm(-1j * dt * H) @ exact
        assert_allclose(out, taylor, rtol=0, atol=1e-12)
        assert_allclose(out, exact, rtol=0, atol=1e-12)


def test_held_row_is_one_power_per_sample_interval(setup_L6, real_stack_L6, rng, monkeypatch):
    """A row held for 23 steps sampled at 0, 10, 20, 23: one eigh, and each
    sample is e^{-i n dt H} psi0 from the coefficients taken at step 0."""
    basis, ops, _, energies, vectors = setup_L6
    stack = real_stack_L6
    row = rng.normal(size=stack.n_ops) * 0.4
    dt, sample_steps = 0.01, [0, 10, 20, 23]
    psi0 = vectors[:, :4]
    calls = count_eigh(monkeypatch)
    seen = []

    def observer(step, t, states):
        assert not states.flags.writeable
        seen.append((step, t, states.copy()))

    evolve(psi0, ControlProtocol(dt=dt, gamma=np.tile(row, (23, 1)),
                                 basis_checksum=stack.checksum), stack,
           observer=observer, sample_steps=sample_steps)
    assert calls == [basis.dim]
    assert [(n, t) for n, t, _ in seen] == [(n, n * dt) for n in sample_steps]
    H = stack.assemble(row)
    for n, _, states in seen:
        assert_allclose(states, scipy.linalg.expm(-1j * n * dt * H) @ psi0,
                        rtol=0, atol=1e-12)


def test_held_row_runs_keep_the_norm_check(setup_L6, real_stack_L6, monkeypatch):
    """A held row whose eigenvectors are slightly too long still fails the norm check."""
    basis, ops, _, energies, vectors = setup_L6
    stack = real_stack_L6
    psi0 = vectors[:, :2]
    monkeypatch.setattr(propagate, "spectral_propagator",
                        lambda H: (lambda E, V: (E, 1.0001 * V))(*spectral_propagator(H)))
    gamma = np.ones((20, stack.n_ops)) * 0.3
    with pytest.raises(NumericalConsistencyError, match="norm drift"):
        evolve(psi0, ControlProtocol(dt=0.01, gamma=gamma, basis_checksum=stack.checksum), stack,
               observer=lambda *args: None, sample_steps=[0, 10, 20])


def test_held_evolve_allocates_three_dim_squared_arrays():
    """tracemalloc, which sees numpy's buffers, bounds a nonintegrable L=12
    quench's held evolve by 2.75 x 8 dim^2 bytes, measured 2.56 plus a margin
    of 0.19: the real H with its flipped copy, then H with the parity blocks
    built from it (with one eigh of the whole H, and V and V^T V - I of its
    size, it took 3.24; with a complex H and copies of V and I, 5.2)."""
    config = ExperimentConfig.from_dict({"L": 12, "preset": "nonintegrable", "mode": "quench"})
    ctx = runner.prepare(config)
    assert ctx.stack.flip_even
    protocol = ControlProtocol(dt=config.dt, gamma=np.ones((config.n_steps, 1)),
                               kick_duration=config.kick_duration,
                               basis_checksum=ctx.stack.checksum)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        evolve(ctx.shell.states, protocol, ctx.stack, observer=lambda *args: None,
               sample_steps=config.sample_steps)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * 8 * ctx.basis.dim ** 2


def quench_context(L, quench_h=0.0):
    config = ExperimentConfig.from_dict({"L": L, "preset": "nonintegrable", "mode": "quench",
                                         "quench_h": quench_h})
    return config, runner.prepare(config)


def test_quench_calls_the_eigensolver_once(monkeypatch):
    """A quench's one held row is diagonalized once per block, by real eighs:
    the flip-even default target in its two parity blocks, whose sizes sum to
    dim, and a target with a field, quench_h = 0.3, whole."""
    for quench_h, flip_even in ((0.0, True), (0.3, False)):
        config, ctx = quench_context(8, quench_h)
        assert ctx.stack.flip_even is flip_even
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda H: calls.append((H.dtype, len(H))) or eigh(H))
        protocol = ControlProtocol(dt=config.dt, gamma=np.ones((20, 1)),
                                   basis_checksum=ctx.stack.checksum)
        out = evolve(ctx.shell.states, protocol, ctx.stack)
        monkeypatch.undo()
        flip = spin_flip(ctx.basis)
        n_odd = np.count_nonzero(np.arange(ctx.basis.dim) < flip)
        sizes = [ctx.basis.dim - n_odd, n_odd] if flip_even else [ctx.basis.dim]
        assert calls == [(np.float64, size) for size in sizes]
        assert sum(sizes) == ctx.basis.dim
        U = scipy.linalg.expm(-1j * config.dt * ctx.stack.assemble(np.ones(1)))
        exact = np.linalg.matrix_power(U, 20) @ ctx.shell.states
        assert_allclose(out, exact, rtol=0, atol=1e-12)


@pytest.mark.parametrize("quench_h", [0.0, 0.3])
@pytest.mark.parametrize("L", [8, 10])
def test_held_evolve_matches_expm(L, quench_h):
    """At every sample, a quench's held row, after a kick, is expm(-i t H) of
    the row applied to the kicked shell: in two parity blocks for the default
    target, and in one block for a target with a field."""
    config, ctx = quench_context(L, quench_h)
    assert ctx.stack.flip_even is (quench_h == 0.0)
    kicked = evolve(ctx.shell.states, ControlProtocol(
        dt=config.dt, gamma=np.ones((0, 1)), kick_duration=0.05,
        basis_checksum=ctx.stack.checksum), ctx.stack)
    seen = []
    evolve(ctx.shell.states, ControlProtocol(
        dt=config.dt, gamma=np.ones((60, 1)), kick_duration=0.05,
        basis_checksum=ctx.stack.checksum), ctx.stack,
        observer=lambda n, t, states: seen.append((t, states.copy())),
        sample_steps=[0, 1, 17, 60])
    H = ctx.stack.assemble(np.ones(1))
    assert len(seen) == 4
    for t, states in seen:
        assert_allclose(states, scipy.linalg.expm(-1j * t * H) @ kicked, rtol=0, atol=1e-12)


@pytest.mark.parametrize("L", [8, 10])
def test_flip_blocks_are_the_parity_blocks(L):
    """Q is orthogonal and Q^T H Q is the block diagonal of the even and odd
    blocks, for a flip-even held row; a row with a field is refused."""
    basis = build_sector_basis(L)
    flip = spin_flip(basis)
    H = OperatorStack([build_ising(*PRESETS["quench-target"], L)], basis).assemble(np.ones(1))
    Q, blocks = flip_blocks(H, flip)
    assert [len(M) for M in blocks] == [basis.dim - np.count_nonzero(np.arange(basis.dim) < flip),
                                        np.count_nonzero(np.arange(basis.dim) < flip)]
    assert_allclose((Q.T @ Q).toarray(), np.eye(basis.dim), rtol=0, atol=1e-15)
    assert_allclose(Q.T @ (Q.T @ H).T, scipy.linalg.block_diag(*blocks), rtol=0, atol=1e-13)
    field = OperatorStack([build_ising(0.3, 1.5, L)], basis).assemble(np.ones(1))
    with pytest.raises(NumericalConsistencyError, match="spin-flip check"):
        flip_blocks(field, flip)


def test_degenerate_held_row_matches_taylor_steps(monkeypatch):
    """A constant protocol of the real, degenerate sum X over its one-column
    stack is one eigh per parity block and matches per-step Taylor steps at
    every sample."""
    config = ExperimentConfig.from_dict({"L": 8, "preset": "integrable", "mode": "optimize",
                                         "k": 2, "duration": 0.024, "sample_every": 5})
    ctx = runner.prepare(config)
    stack = OperatorStack([sum_x(8)], ctx.basis)
    H = stack.assemble(np.ones(1))
    E, V = spectral_propagator(H)
    assert np.diff(E).min() < 1e-9  # sum X is degenerate
    calls = count_eigh(monkeypatch)
    seen = []
    out = evolve(ctx.shell.states, ControlProtocol(
        dt=config.dt, gamma=np.ones((config.n_steps, 1)), basis_checksum=stack.checksum),
        stack, observer=lambda n, t, states: seen.append((n, states.copy())),
        sample_steps=config.sample_steps)
    n_odd = np.count_nonzero(np.arange(ctx.basis.dim) < spin_flip(ctx.basis))
    assert calls == [ctx.basis.dim - n_odd, n_odd]  # sum X is flip-even
    taylor, steps = ctx.shell.states, {}
    for n in range(config.n_steps):
        steps[n] = taylor
        taylor = expm_step(H, config.dt, taylor)
    steps[config.n_steps] = taylor
    assert_allclose(out, taylor, rtol=0, atol=1e-12)
    assert [n for n, _ in seen] == config.sample_steps
    for n, states in seen:
        assert_allclose(states, steps[n], rtol=0, atol=1e-12)


def test_one_step_optimize_run_replays_exactly(tmp_path, monkeypatch):
    """A one-step optimize run's protocol has one row, all its rows equal the
    first, yet its replay is Taylor-stepped as its run was: no eigh, and the
    replayed w equals the archived w exactly."""
    held = []
    monkeypatch.setattr(propagate, "spectral_propagator",
                        lambda H: held.append(len(H)) or spectral_propagator(H))
    config = ExperimentConfig.from_dict({"L": 8, "preset": "integrable", "mode": "optimize",
                                         "k": 2, "duration": 0.002,
                                         "outdir": str(tmp_path / "run")})
    assert config.n_steps == 1
    result = runner.replay(runner.run(config))
    assert held == []
    assert result["max_w_deviation"] == 0.0 and result["within_tolerance"]


def test_controller_rows_are_never_cached(setup_L6, rng, monkeypatch):
    """A controller's rows are Taylor steps even when they repeat, and are recorded."""
    basis, ops, stack, energies, vectors = setup_L6
    row = rng.normal(size=stack.n_ops) * 0.4
    dt, n_steps = 0.01, 6
    psi0 = vectors[:, :4]
    asked = []
    calls = count_eigh(monkeypatch)

    def controller(step, states):
        asked.append(step)
        assert not states.flags.writeable
        return row

    protocol = ControlProtocol(dt=dt, gamma=np.zeros((n_steps, stack.n_ops)),
                               basis_checksum=stack.checksum)
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
    basis, ops, stack, energies, vectors = setup_L6
    psi0 = vectors[:, :1]
    for n_bad in (1, 3):
        gamma = np.zeros((4, stack.n_ops))
        gamma[1:1 + n_bad, 0] = np.nan
        with pytest.raises(NumericalConsistencyError):
            evolve(psi0, ControlProtocol(dt=0.1, gamma=gamma,
                                         basis_checksum=stack.checksum), stack)


def test_observer_sampling_and_snapshots(setup_L6):
    basis, ops, stack, energies, vectors = setup_L6
    psi0 = vectors[:, :1]
    gamma = np.zeros((10, stack.n_ops))
    gamma[:, 0] = 1.0
    seen = []

    def observer(step, t, states):
        seen.append((step, t))
        assert not states.flags.writeable

    evolve(psi0, ControlProtocol(dt=0.1, gamma=gamma, basis_checksum=stack.checksum), stack,
           observer=observer, sample_steps=[0, 5, 10])
    assert seen == [(0, 0.0), (5, 0.5), (10, 1.0)]


def test_manifest_mismatch_rejected(setup_L6):
    basis, ops, stack, energies, vectors = setup_L6
    psi0 = vectors[:, :1]
    for checksum in ("deadbeef", ""):  # an empty checksum is no exemption
        protocol = ControlProtocol(dt=0.1, gamma=np.zeros((2, stack.n_ops)),
                                   basis_checksum=checksum)
        with pytest.raises(ValueError, match="different basis manifest"):
            evolve(psi0, protocol, stack)
    wrong_width = ControlProtocol(dt=0.1, gamma=np.zeros((2, stack.n_ops + 1)),
                                  basis_checksum=stack.checksum)
    with pytest.raises(ValueError):
        evolve(psi0, wrong_width, stack)


def test_kick_is_sum_x_over_the_stack_basis(setup_L6, real_stack_L6, rng):
    """A kicked protocol needs no generator argument: evolve kicks by the CSR
    sum X of the stack's basis, bit for bit as kick_unitary of
    sum_x(L).sector_matrix(basis), before Taylor steps or a held row."""
    basis, ops, b2, energies, vectors = setup_L6
    psi0 = np.array(vectors[:, :3], dtype=complex, order="C")
    kicked = kick_unitary(sum_x(6).sector_matrix(basis), 0.001, psi0)
    for stack, gamma in ((b2, rng.normal(size=(3, b2.n_ops)) * 0.4),
                         (real_stack_L6, np.tile(rng.normal(size=real_stack_L6.n_ops), (3, 1)))):
        protocol = ControlProtocol(dt=0.01, gamma=gamma, basis_checksum=stack.checksum,
                                   kick_duration=0.001)
        out = evolve(psi0, protocol, stack)
        expected = evolve(kicked, ControlProtocol(dt=0.01, gamma=gamma,
                                                  basis_checksum=stack.checksum), stack)
        assert_array_equal(out, expected)
        assert norm_drift(out) < 1e-10


@pytest.mark.parametrize("kick", [np.nan, np.inf, -0.001])
def test_protocol_rejects_a_non_finite_or_negative_kick(kick):
    """evolve applies a kick only when its duration is > 0, so a NaN would pass
    silently as no kick: the protocol refuses it where it is made or read."""
    with pytest.raises(ValueError, match="kick duration"):
        ControlProtocol(dt=0.002, gamma=np.zeros((1, 3)), basis_checksum="abc123",
                        kick_duration=kick)


def test_protocol_file_roundtrip_exact(tmp_path, rng):
    """Also for no rows, which must read without loadtxt's no-data warning
    (warnings are errors), one row and one column."""
    gamma = rng.normal(size=(7, 5)) * np.pi
    gamma[0, 0] = 1.0 / 3.0
    awkward = np.array([[-0.0, 5e-324, 1e300, -1e300],
                        [1e-300, -1e-300, 0.1 + 0.2, -5e-324]])
    for values in (gamma, awkward, np.zeros((0, 0)), gamma[:1], gamma[:, :1]):
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


def test_protocol_without_basis_checksum_does_not_load(tmp_path):
    """The checksum line is required, as n_steps is; replay turns the KeyError
    into a config error."""
    path = tmp_path / "protocol.txt"
    ControlProtocol(dt=0.002, gamma=np.zeros((1, 2)), basis_checksum="abc123").save(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if not ln.startswith("basis_checksum")))
    with pytest.raises(KeyError, match="basis_checksum"):
        ControlProtocol.load(path)


def test_archived_protocol_reads_as_its_tokens():
    """The committed optimize protocol's gamma reads exactly as float() of each token."""
    path = Path(__file__).parent / "data" / "optimize_integrable_L8" / "protocol.txt"
    lines = path.read_text().splitlines()
    tokens = [[float(tok) for tok in line.split()] for line in lines[lines.index("gamma") + 1:]]
    assert ControlProtocol.load(path).gamma.tobytes() == np.array(tokens).tobytes()
