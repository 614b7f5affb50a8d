"""Greedy norm-constrained control: per-step closed-form KKT coefficients.

Each step maximizes the instantaneous reward rate dr/dt over coefficient
vectors gamma of the control Hamiltonian sum_i gamma_i Q_i subject to the
Frobenius bound ||H(t)||_2 <= C. With the orthogonal basis normalization
Tr[Q_i^dag Q_j] = L d delta_ij the active-constraint solution is

    gamma_i = C Y_i / (sqrt(L d) ||Y||),

where Y_i = i L^-1 sum_alpha (dr/dw_alpha) Tr[[H(0), Q_i] rho_alpha]. Exact
energy eigenstates commute with H(0) and give Y = 0 identically, so runs are
preceded by a brief kick generated by sum_l sigma^x_l.
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig, RewardParams
from .model import EnergyShell
from .observables import Trajectory, d_pos, work_density
from .operators import OperatorStack
from .propagate import ControlProtocol, evolve
from .propagate import expm_step, kick_unitary  # noqa: F401  wrapped by bench/worker.py
from .sector import NumericalConsistencyError, matmul


def _sigmoid(w: np.ndarray, p: RewardParams) -> np.ndarray:
    """1 / (1 + exp(-a (w - epsilon))); far below epsilon exp overflows to
    inf, which gives the exact limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-p.a * (w - p.epsilon)))


def reward(w: np.ndarray, p: RewardParams) -> float:
    """Shell sum of sigmoid(w - epsilon) plus sub-knee linear penalty."""
    w = np.asarray(w, dtype=float)
    # theta(0) = 0: the penalty is inactive exactly at the knee.
    penalty = p.c * (w - p.delta) * (w < p.delta)
    return float(np.sum(_sigmoid(w, p) + penalty))


def reward_grad(w: np.ndarray, p: RewardParams) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    sig = _sigmoid(w, p)
    return p.a * sig * (1.0 - sig) + p.c * (w < p.delta)


def compute_Y(states: np.ndarray, H_psi: np.ndarray, stack: OperatorStack,
              grad: np.ndarray, L: int, out: np.ndarray | None = None) -> np.ndarray:
    """Y_i = i L^-1 sum_alpha grad_alpha <psi_alpha|[H, Q_i]|psi_alpha>.

    The commutator expectation of Hermitian operators in a pure state is
    purely imaginary, so Y is assembled directly from the imaginary part of
    the weighted quadratic form q_i = sum_alpha grad_alpha <psi|H Q_i|psi>,
    which is what the stack's gather returns. Its (dim x dim) kernel K is
    written into ``out`` when given.
    """
    K = np.matmul(H_psi.conj() * grad, states.T, out=out)
    return -(2.0 / L) * stack.gather_quadratic(K)


def solve_gamma(Y: np.ndarray, C: float, L: int, d: int, tol: float) -> np.ndarray:
    """Closed-form KKT solution; the zero row when the gradient vanished, |Y| <= tol."""
    norm = float(np.linalg.norm(Y))
    if norm <= tol:
        return np.zeros_like(Y)
    return (C / (np.sqrt(L * d) * norm)) * Y


def record(traj: Trajectory, config: ExperimentConfig, step: int, t: float,
           w: np.ndarray, y_norm: float = 0.0):
    """Append one sample of a run: shell reward, |Y|, D_pos and w."""
    traj.add_sample(step, t, reward(w, config.reward), y_norm,
                    d_pos(w, config.dpos_epsilon), w)


def optimize(config: ExperimentConfig, H_target, shell: EnergyShell,
             stack: OperatorStack) -> tuple[ControlProtocol, Trajectory, np.ndarray]:
    """Run the greedy controller on the shell's states through :func:`evolve`.

    ``H_target`` is the target's CSR sector matrix. The controller records
    each sample step with its w and |Y|, and the final states give the last
    sample. Returns the replayable protocol, the trajectory and the final
    states. The kick of ``config.kick_duration`` is a protocol prelude, which
    :func:`evolve` applies from the protocol and the stack alone, so replays
    are self-contained; the clock (t = 0) starts after it. Raises if every
    step saw a vanished gradient, which is the unkicked-eigenstate degeneracy.
    """
    if shell.size == 0:
        raise ValueError("empty shell: nothing to optimize")
    L, d = config.L, 1 << config.L
    C = float(np.sqrt(2.0 * L * (1 << L)))
    tol = 1e-12 * np.sqrt(stack.n_ops)

    traj = Trajectory(shell.indices, shell.energies)
    protocol = ControlProtocol(dt=config.dt, gamma=np.zeros((config.n_steps, stack.n_ops)),
                               kick_duration=config.kick_duration,
                               basis_checksum=stack.checksum)
    samples = set(config.sample_steps)
    # compute_Y's (dim x dim) kernel, one buffer for every step: a fresh one per
    # step can land on newly mapped pages (a quarter of the step time at L=12).
    kernel = np.empty((stack.dim, stack.dim), dtype=complex)

    def controller(step, states):
        H_psi = matmul(H_target, states)
        w = work_density(states, shell.energies, H_target, L, H_psi=H_psi)
        Y = compute_Y(states, H_psi, stack, reward_grad(w, config.reward), L, kernel)
        if step in samples:
            record(traj, config, step, step * config.dt, w, float(np.linalg.norm(Y)))
        return solve_gamma(Y, C, L, d, tol)

    final = evolve(shell.states, protocol, stack, controller=controller)
    # sample_steps ends with n_steps: the final state, which no step follows
    record(traj, config, config.n_steps, config.n_steps * config.dt,
           work_density(final, shell.energies, H_target, L))
    if not protocol.gamma.any():  # every vanished gradient gave a zero row
        raise NumericalConsistencyError(
            "gradient vanished at every step; the run is degenerate "
            "(did the kick get disabled on eigenstate initial conditions?)")
    return protocol, traj, final
