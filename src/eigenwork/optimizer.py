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

from dataclasses import dataclass

import numpy as np

from .observables import Trajectory, d_pos, work_density
from .operators import OperatorStack
from .propagate import ControlProtocol, StateBatch, expm_step, kick_unitary
from .sector import NumericalConsistencyError


@dataclass(frozen=True)
class RewardParams:
    a: float = 30.0
    c: float = 0.1
    epsilon: float = 0.15
    delta: float = 0.3

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("sigmoid sharpness must be positive")
        if self.c < 0:
            raise ValueError("penalty slope must be nonnegative")
        if not self.epsilon < self.delta:
            raise ValueError("threshold epsilon must sit below the penalty knee delta")


@dataclass
class OptimizerConfig:
    L: int
    dt: float = 0.002
    duration: float = 1.0
    C: float | None = None
    kick_duration: float = 0.001
    grad_tol: float | None = None
    sample_every: int = 10

    def __post_init__(self):
        if self.C is None:
            self.C = float(np.sqrt(2.0 * self.L * (1 << self.L)))
        if self.C <= 0:
            raise ValueError("norm bound must be positive")
        if self.kick_duration < 0:
            raise ValueError("kick duration must be nonnegative")

    @property
    def n_steps(self) -> int:
        n = round(self.duration / self.dt)
        if abs(n * self.dt - self.duration) > 1e-12:
            raise ValueError("duration must be an integer number of steps")
        return int(n)

    def gradient_tolerance(self, n_ops: int) -> float:
        if self.grad_tol is not None:
            return self.grad_tol
        return 1e-12 * np.sqrt(n_ops)


def reward(w: np.ndarray, p: RewardParams) -> float:
    """Shell sum of sigmoid(w - epsilon) plus sub-knee linear penalty."""
    w = np.asarray(w, dtype=float)
    sig = 1.0 / (1.0 + np.exp(-p.a * (w - p.epsilon)))
    # theta(0) = 0: the penalty is inactive exactly at the knee.
    penalty = p.c * (w - p.delta) * (w < p.delta)
    return float(np.sum(sig + penalty))


def reward_grad(w: np.ndarray, p: RewardParams) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    sig = 1.0 / (1.0 + np.exp(-p.a * (w - p.epsilon)))
    return p.a * sig * (1.0 - sig) + p.c * (w < p.delta)


def compute_Y(states: np.ndarray, H_psi: np.ndarray, stack: OperatorStack,
              grad: np.ndarray, L: int) -> np.ndarray:
    """Y_i = i L^-1 sum_alpha grad_alpha <psi_alpha|[H, Q_i]|psi_alpha>.

    The commutator expectation of Hermitian operators in a pure state is
    purely imaginary, so Y is assembled directly from the imaginary part of
    the weighted quadratic form q_i = sum_alpha grad_alpha <psi|H Q_i|psi>.
    """
    K = (H_psi.conj() * grad) @ states.T
    q = stack.gather_quadratic(K)
    return -(2.0 / L) * q.imag


def solve_gamma(Y: np.ndarray, C: float, L: int, d: int,
                tol: float) -> tuple[np.ndarray, bool]:
    """Closed-form KKT solution; returns (gamma, gradient_vanished)."""
    norm = float(np.linalg.norm(Y))
    if norm <= tol:
        return np.zeros_like(Y), True
    return (C / (np.sqrt(L * d) * norm)) * Y, False


def optimize(config: OptimizerConfig, reward_params: RewardParams,
             H_target: np.ndarray, batch: StateBatch, stack: OperatorStack,
             kick_matrix: np.ndarray, dpos_epsilon: float | None = None,
             alphas=None) -> tuple[ControlProtocol, Trajectory, StateBatch]:
    """Run the greedy controller and emit a replayable protocol.

    The kick is recorded as a protocol prelude so replays are self-contained;
    the protocol clock (t = 0) starts after it. Raises if every step saw a
    vanished gradient, which is the unkicked-eigenstate degeneracy.
    """
    if batch.n_states == 0:
        raise ValueError("empty shell: nothing to optimize")
    L, d = config.L, 1 << config.L
    eps = reward_params.epsilon if dpos_epsilon is None else dpos_epsilon
    if alphas is None:
        alphas = np.arange(batch.n_states)
    tol = config.gradient_tolerance(stack.n_ops)
    n_steps = config.n_steps

    traj = Trajectory(np.asarray(alphas), batch.origin_energies.copy())
    out = batch.copy()
    if config.kick_duration > 0.0:
        out.states = kick_unitary(kick_matrix, config.kick_duration, out.states)

    gamma_rows = np.zeros((n_steps, stack.n_ops))
    sample = {0, n_steps} | set(range(0, n_steps + 1, max(1, config.sample_every)))
    any_active = False

    def record(step, w, y_norm, vanished):
        traj.add_sample(step, step * config.dt, reward(w, reward_params),
                        y_norm, d_pos(w, eps), w, vanished)

    for step in range(n_steps + 1):
        w = work_density(out.states, out.origin_energies, H_target, L)
        if step == n_steps:
            if step in sample:
                record(step, w, 0.0, False)
            break
        grad = reward_grad(w, reward_params)
        H_psi = H_target @ out.states
        Y = compute_Y(out.states, H_psi, stack, grad, L)
        gamma, vanished = solve_gamma(Y, config.C, L, d, tol)
        any_active |= not vanished
        if step in sample:
            record(step, w, float(np.linalg.norm(Y)), vanished)
        gamma_rows[step] = gamma
        if not vanished:
            out.states = expm_step(stack.assemble(gamma), config.dt, out.states)
        out.t = (step + 1) * config.dt
        out.check_norms()

    if not any_active:
        raise NumericalConsistencyError(
            "gradient vanished at every step; the run is degenerate "
            "(did the kick get disabled on eigenstate initial conditions?)")
    protocol = ControlProtocol(dt=config.dt, gamma=gamma_rows,
                               kick_duration=config.kick_duration,
                               basis_checksum=stack.checksum)
    return protocol, traj, out
