"""Acceptance suite: one test per criterion, one printed PASS line each.

The optimizer runs behind criteria 2, 3, 4, and 8 are shared through a
session-scoped cache. Archived D_pos values live in tests/baselines.json and
act as exact regression pins for this machine; regenerate them with
EIGENWORK_REGEN_BASELINES=1 after a deliberate change (another BLAS can
legitimately shift rounding, which the greedy feedback amplifies; the basis
inside degenerate levels is fixed by the gauge of ``model.diagonalize``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigenwork
from eigenwork import runner
from eigenwork.config import ExperimentConfig, RewardParams
from eigenwork.model import PRESETS, IsingParams, build_ising, diagonalize, select_shell
from eigenwork.observables import fig4_csv, work_density
from eigenwork.operators import (OperatorStack, build_basis,
                                 enumerate_window_paulis, sum_x)
from eigenwork.optimizer import compute_Y, reward, reward_grad, solve_gamma
from eigenwork.propagate import expm_step, kick_unitary
from eigenwork.sector import build_sector_basis, embed_state

BASELINE_PATH = Path(__file__).parent / "baselines.json"

SCALING_KEYS = [(preset, L, k)
                for preset in ("nonintegrable", "integrable")
                for L in (8, 10, 12)
                for k in (4, L // 2)]


def _report(criterion, ok):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {criterion}"


@pytest.fixture(scope="session")
def run_cache(tmp_path_factory):
    """Lazy per-configuration run archive shared by the heavy criteria."""
    root = os.environ.get("EIGENWORK_ACCEPTANCE_CACHE")
    root = Path(root) if root else tmp_path_factory.mktemp("acceptance")
    cache = {}

    def get(preset, L, k=None, mode="optimize"):
        key = (preset, L, k, mode)
        if key not in cache:
            name = f"{mode}_{preset}_L{L}" + (f"_k{k}" if k else "")
            outdir = root / name
            if not (outdir / "run.json").exists():
                data = {"preset": preset, "L": L, "mode": mode,
                        "outdir": str(outdir)}
                if mode == "optimize":
                    data["k"] = k
                runner.run(ExperimentConfig.from_dict(data))
            cache[key] = outdir
        return cache[key]

    return get


def _dpos_final(run_dir):
    return json.loads((run_dir / "run.json").read_text())["dpos_final"]


def test_criterion_1_quench_null_result(run_cache):
    """Nonintegrable quench to (0, 1.5) extracts no work at any sample."""
    _, traj = runner.load_run(run_cache("nonintegrable", 12, mode="quench"))
    dpos = traj.dpos
    assert len(dpos) >= 50
    _report("1 quench-null (nonintegrable L=12, eps=0.15, t<=10)",
            all(d == 0 for d in dpos))


def test_criterion_2_local_control_contrast(run_cache):
    dpos = {(p, L): _dpos_final(run_cache(p, L, 4))
            for p in ("nonintegrable", "integrable") for L in (8, 10, 12)}
    ordered = all(dpos[("integrable", L)] >= dpos[("nonintegrable", L)]
                  for L in (8, 10, 12))
    positive = dpos[("integrable", 12)] > 0
    _check_baselines(run_cache)
    _report("2 local-control contrast (k=4, t=1, L in {8,10,12})",
            ordered and positive)


def _check_baselines(run_cache):
    observed = {f"{p}_L{L}_k{k}": _dpos_final(run_cache(p, L, k))
                for p, L, k in SCALING_KEYS}
    if BASELINE_PATH.exists() and not os.environ.get("EIGENWORK_REGEN_BASELINES"):
        frozen = json.loads(BASELINE_PATH.read_text())
        assert observed == frozen, "archived D_pos regression baselines moved"
    else:
        BASELINE_PATH.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n")


def test_criterion_3_global_control_growth(run_cache):
    grows = True
    for preset in ("nonintegrable", "integrable"):
        series = [_dpos_final(run_cache(preset, L, L // 2)) for L in (8, 10, 12)]
        grows &= series[0] < series[1] < series[2]
    _report("3 global-control growth (k=L/2, strictly increasing in L)", grows)


def test_criterion_4_ee_mechanism(run_cache):
    """Work-extractable states under local control gain entanglement."""
    summary, traj = runner.load_run(run_cache("integrable", 12, 4))
    rows = fig4_csv(traj, summary["dpos_epsilon"]).splitlines()[1:]
    counted = [row.split(",") for row in rows if row.endswith(",1")]
    assert counted, "no D_pos states to examine"
    increased = sum(float(row[5]) > 0 for row in counted)  # St - S0
    _report("4 EE mechanism (>=95% of D_pos states gain EE)",
            increased >= 0.95 * len(counted))


def test_ee_fluctuation_contrast(run_cache):
    """Initial shell EEs scatter far less in the chaotic model (archived)."""
    stds = {p: json.loads((run_cache(p, 12, 4) / "run.json").read_text())
            ["initial_ee_std"] for p in ("nonintegrable", "integrable")}
    assert stds["nonintegrable"] < stds["integrable"]


def test_replay_independent_of_blas_threads(run_cache):
    """The integrable L=12, k=4 archive, written with the default BLAS threads,
    replays within 1e-9 under one OpenBLAS thread: the gauge, not the solver,
    picks the shell states inside degenerate blocks."""
    run_dir = run_cache("integrable", 12, 4)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(eigenwork.__file__).resolve().parents[1]), env.get("PYTHONPATH"))
        if p)
    proc = subprocess.run([sys.executable, "-m", "eigenwork.cli", "replay", "--run", str(run_dir)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["max_w_deviation"] <= 1e-9


@pytest.fixture(scope="module")
def kkt_setup():
    L = 8
    basis = build_sector_basis(L)
    H_op = build_ising(IsingParams(*PRESETS["integrable"], L))
    H = H_op.sector_matrix(basis)
    eig = diagonalize(H, basis)
    shell = select_shell(eig, -0.25, -0.1, L)
    stack = OperatorStack(build_basis(L, 2), basis)
    kick = sum_x(L).sector_matrix(basis)
    return L, H, shell, stack, kick


def test_criterion_5_kkt_gradient_suite(kkt_setup):
    L, H, shell, stack, kick = kkt_setup
    d = 1 << L
    C = np.sqrt(2 * L * d)
    params = RewardParams()
    ok = True

    # (ii) unkicked eigenstates: Y identically zero
    w0 = work_density(shell.states, shell.energies, H, L)
    Y0 = compute_Y(shell.states, H @ shell.states, stack,
                   reward_grad(w0, params), L)
    ok &= np.abs(Y0).max() < 1e-12

    # (iv) reward gradient against central differences
    w_grid = np.linspace(-0.4, 0.9, 97)
    w_grid = w_grid[np.abs(w_grid - params.delta) > 1e-3]
    h = 1e-6
    fd = np.array([(reward(np.array([wi + h]), params)
                    - reward(np.array([wi - h]), params)) / (2 * h)
                   for wi in w_grid])
    ok &= np.abs(reward_grad(w_grid, params) - fd).max() < 1e-6

    # (i) + (v): drive 100 steps manually, checking the closed form each step
    states = kick_unitary(kick, 0.001, shell.states)
    dt = 0.002
    for _ in range(100):
        w = work_density(states, shell.energies, H, L)
        grad = reward_grad(w, params)
        Y = compute_Y(states, H @ states, stack, grad, L)
        gamma, vanished = solve_gamma(Y, C, L, d, tol=1e-12 * np.sqrt(stack.n_ops))
        if vanished:
            continue
        ok &= abs(np.sum(gamma ** 2) - 2.0) < 1e-9
        rate_closed = C * np.linalg.norm(Y) / np.sqrt(L * d)
        ok &= abs(np.dot(gamma, Y) - rate_closed) < 1e-9 * max(1.0, rate_closed)
        ok &= rate_closed >= 0
        states = expm_step(stack.assemble(gamma), dt, states)

    # (iii) chain-rule dw/dt converges first order in dt
    gamma = np.zeros(stack.n_ops)
    gamma[2] = 0.9
    gamma[5] = -0.8
    H_t = stack.assemble(gamma)
    predicted = -(2.0 / L) * np.einsum(
        "ia,ia->a", (H @ states).conj(), H_t @ states).imag
    w_now = work_density(states, shell.energies, H, L)
    dts = [4e-3, 2e-3, 1e-3]
    errs = []
    for step in dts:
        w_next = work_density(expm_step(H_t, step, states),
                              shell.energies, H, L)
        errs.append(np.abs((w_next - w_now) / step - predicted).max())
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    ok &= 0.8 < slope < 1.25

    _report("5 KKT/gradient property suite (L=8)", ok)


def test_criterion_6_operator_set_suite():
    ok = len(build_basis(8, 2)) == 9
    for L in (4, 6, 8):
        for k in (2, 3, 4):
            ops = build_basis(L, k)
            flat = np.stack([op.dense_matrix().ravel() for op in ops])
            gram = flat.conj() @ flat.T
            target = float(L * (1 << L))
            ok &= np.abs(gram - target * np.eye(len(ops))).max() < 1e-9 * target
            ok &= all(op.is_symmetric() for op in ops)
    _report("6 operator-set suite (Gram = Ld*I, symmetry closure, |B_2| = 9)", ok)


def test_criterion_7_spectral_sector_suite():
    ok = True
    for L in (4, 6):
        basis = build_sector_basis(L)
        op = build_ising(IsingParams(*PRESETS["nonintegrable"], L))
        sector_eigs = np.linalg.eigvalsh(op.sector_matrix(basis).toarray())
        full = list(np.linalg.eigvalsh(op.dense_matrix()))
        for ev in sector_eigs:
            j = int(np.argmin(np.abs(np.array(full) - ev)))
            ok &= abs(full[j] - ev) < 1e-9
            full.pop(j)
        E = embed_state(np.eye(basis.dim), basis)
        ok &= np.abs(E.conj().T @ E - np.eye(basis.dim)).max() < 1e-12

    basis4 = build_sector_basis(4)
    H4 = build_ising(IsingParams(0.0, 0.0, 4)).sector_matrix(basis4).toarray()
    ok &= np.allclose(np.sort(np.linalg.eigvalsh(H4)),
                      [-4.0, 0.0, 0.0, 0.0, 4.0, 4.0], atol=1e-12)
    _report("7 spectral/sector suite", ok)


def test_criterion_8_threshold_robustness(run_cache):
    """The integrable-vs-nonintegrable gap keeps its sign across thresholds."""
    dirs = {p: run_cache(p, 12, 4) for p in ("nonintegrable", "integrable")}
    rows = runner.run_threshold_sweep(list(dirs.values()), [0.10, 0.125, 0.15])
    gaps = {}
    for row in rows:
        gaps.setdefault(row["epsilon"], {})[row["preset"]] = row["d_pos_final"]
    ok = all(gaps[e]["integrable"] - gaps[e]["nonintegrable"] > 0
             for e in (0.10, 0.125, 0.15))
    _report("8 threshold robustness (eps in {0.10, 0.125, 0.15})", ok)
