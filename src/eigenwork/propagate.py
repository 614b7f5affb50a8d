"""Discretized unitary evolution of sector-state batches.

Each protocol step applies exp(-i dt H), with H = sum_i gamma_i Q_i assembled
from an OperatorStack, to the batch of states. A step is a truncated Taylor
series applied to the batch columns, with an a priori truncation bound and
no unitary formed; only a row held over consecutive steps is turned once into
a dense unitary by Hermitian eigendecomposition and reused. Batches are never
renormalized: column-norm drift is a monitored health signal, not something
to hide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import OperatorStack
from .sector import NumericalConsistencyError, require_hermitian

NORM_DRIFT_TOL = 1e-8
# Taylor step: substep bound on |dt| ||H||_1, truncation tolerance (the unit
# roundoff of double precision), and the most terms one step may take over
# all of its substeps.
TAYLOR_THETA = 1.0
TAYLOR_TOL = 2.0 ** -53
TAYLOR_MAX_TERMS = 100_000

KICK_GENERATOR = "sum_sigma_x"


@dataclass
class StateBatch:
    """Columns are evolved shell eigenstates in sector coordinates."""

    states: np.ndarray
    t: float
    origin_energies: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=complex)
        self.origin_energies = np.asarray(self.origin_energies, dtype=float)
        if self.states.ndim != 2:
            raise ValueError("states must be a (dim x M) matrix")
        if self.states.shape[1] != len(self.origin_energies):
            raise ValueError("one origin energy required per column")

    @property
    def n_states(self) -> int:
        return self.states.shape[1]

    def copy(self) -> "StateBatch":
        return StateBatch(self.states.copy(), self.t, self.origin_energies.copy())

    def norm_drift(self) -> float:
        return float(np.abs(np.linalg.norm(self.states, axis=0) - 1.0).max())

    def check_norms(self, tol: float = NORM_DRIFT_TOL):
        drift = self.norm_drift()
        if not drift <= tol:
            raise NumericalConsistencyError(
                f"column norm drift {drift:.3e} exceeds {tol:.0e}")


@dataclass
class ControlProtocol:
    """Time grid plus per-step coefficient vectors over a basis manifest."""

    dt: float
    gamma: np.ndarray
    kick_duration: float = 0.0
    basis_checksum: str = ""

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.size == 0:
            gamma = gamma.reshape(0, gamma.shape[1] if gamma.ndim == 2 else 0)
        self.gamma = np.atleast_2d(gamma)
        if self.kick_duration < 0:
            raise ValueError("kick duration must be nonnegative")

    @property
    def n_steps(self) -> int:
        return self.gamma.shape[0] if self.gamma.size else 0

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(f"# eigenwork protocol v1\n")
            fh.write(f"basis_checksum {self.basis_checksum}\n")
            fh.write(f"dt {self.dt:.17g}\n")
            fh.write(f"n_steps {self.n_steps}\n")
            fh.write(f"n_ops {self.gamma.shape[1] if self.gamma.size else 0}\n")
            fh.write(f"kick_duration {self.kick_duration:.17g}\n")
            fh.write(f"kick_generator {KICK_GENERATOR}\n")
            fh.write("gamma\n")
            np.savetxt(fh, self.gamma, fmt="%.17g")

    @classmethod
    def load(cls, path) -> "ControlProtocol":
        header = {}
        rows = []
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        it = iter(lines)
        for line in it:
            if line.startswith("#"):
                continue
            if line == "gamma":
                break
            key, _, value = line.partition(" ")
            header[key] = value
        for line in it:
            rows.append([float(tok) for tok in line.split()])
        n_steps = int(header["n_steps"])
        n_ops = int(header["n_ops"])
        gamma = np.array(rows, dtype=float).reshape(n_steps, n_ops)
        return cls(dt=float(header["dt"]), gamma=gamma,
                   kick_duration=float(header["kick_duration"]),
                   basis_checksum=header.get("basis_checksum", ""))


def _step_norm(H: np.ndarray) -> float:
    """||H||_1, the largest column sum of |H|, once H is checked finite and Hermitian."""
    abs_H = np.abs(H)
    norm = float(abs_H.sum(axis=0).max(initial=0.0))
    scale = float(abs_H.max(initial=1.0))
    del abs_H  # freed before require_hermitian allocates: twice as fast at dim 224
    if not np.isfinite(norm):
        raise NumericalConsistencyError("step Hamiltonian has non-finite entries")
    require_hermitian(H, tol=1e-12 * scale)
    return norm


def _taylor_plan(norm: float) -> tuple[int, int]:
    """(substeps, terms per substep) for a step of |dt| ||H||_1 = norm.

    Each substep has x = norm / substeps <= TAYLOR_THETA and keeps the fewest
    terms m with x^(m+1)/(m+1)! e^x <= TAYLOR_TOL, which bounds the remainder
    of the series of exp(x) and so of exp(-i dt H / substeps).
    """
    if norm <= TAYLOR_THETA * TAYLOR_MAX_TERMS:  # False for NaN and inf too
        n_sub = max(1, math.ceil(norm / TAYLOR_THETA))
        x = norm / n_sub
        n_terms, remainder, growth = 0, x, math.exp(x)
        while remainder * growth > TAYLOR_TOL:
            n_terms += 1
            remainder *= x / (n_terms + 1)
        if n_sub * n_terms <= TAYLOR_MAX_TERMS:
            return n_sub, n_terms
    raise NumericalConsistencyError(
        f"step norm |dt| ||H||_1 = {norm:.3e} needs more than "
        f"{TAYLOR_MAX_TERMS} Taylor terms")


def expm_step(H: np.ndarray, dt: float, states: np.ndarray) -> np.ndarray:
    """exp(-i dt H) @ states for Hermitian H, by a truncated Taylor series.

    The term count is fixed a priori (Al-Mohy & Higham, SIAM J. Sci. Comput.
    33, 488 (2011)); see :func:`_taylor_plan`. No unitary is formed, so the
    cost is a few (dim x dim) @ (dim x M) products.
    """
    n_sub, n_terms = _taylor_plan(abs(dt) * _step_norm(H))
    h = -1j * dt / n_sub
    out = np.array(states, dtype=complex)
    for _ in range(n_sub):
        term = out
        for j in range(1, n_terms + 1):
            term = H @ term
            term *= h / j
            out += term
    return out


def step_unitary(H: np.ndarray, dt: float) -> np.ndarray:
    """Dense exp(-i dt H) for Hermitian H, exact via eigendecomposition.

    Pays only for a Hamiltonian held over many consecutive steps.
    """
    _step_norm(H)
    energies, V = np.linalg.eigh(H)
    U = (V * np.exp(-1j * dt * energies)) @ V.conj().T
    dev = np.abs(U.conj().T @ U - np.eye(len(U))).max()
    if not dev <= 1e-11:
        raise NumericalConsistencyError(f"step unitary deviates from unitarity by {dev:.3e}")
    return U


def kick_unitary(kick_op_matrix: np.ndarray, duration: float,
                 states: np.ndarray) -> np.ndarray:
    """The kick exp(-i duration K) applied to states, named apart from the steps."""
    return expm_step(kick_op_matrix, duration, states)


def evolve(batch: StateBatch, protocol: ControlProtocol, stack: OperatorStack,
           observers=(), sample_steps=None, kick_matrix: np.ndarray | None = None) -> StateBatch:
    """Replay a protocol on a batch, notifying observers at sample steps.

    Observers are callables (step, t, states) receiving read-only snapshots;
    step 0 fires after the kick, which is where the protocol clock starts.
    A row that differs from the next one is one :func:`expm_step`, the same
    kernel the optimizer steps with. A run of identical consecutive rows
    builds one :func:`step_unitary` and reuses it, so constant-Hamiltonian
    protocols cost a single eigendecomposition.
    """
    if protocol.basis_checksum and protocol.basis_checksum != stack.checksum:
        raise ValueError("protocol was recorded against a different basis manifest")
    if protocol.n_steps and protocol.gamma.shape[1] != stack.n_ops:
        raise ValueError("protocol coefficient width does not match basis size")
    if protocol.kick_duration > 0.0 and kick_matrix is None:
        raise ValueError("protocol carries a kick but no kick generator was given")

    out = batch.copy()
    if protocol.kick_duration > 0.0:
        out.states = kick_unitary(kick_matrix, protocol.kick_duration, out.states)

    samples = set(range(protocol.n_steps + 1)) if sample_steps is None else set(sample_steps)

    def notify(step):
        snap = out.states.copy()
        snap.setflags(write=False)
        for obs in observers:
            obs(step, step * protocol.dt, snap)

    if 0 in samples:
        notify(0)
    keys = [row.tobytes() for row in protocol.gamma] + [None]
    cached_key = U = None
    for n in range(protocol.n_steps):
        key = keys[n]
        if key != cached_key:
            H = stack.assemble(protocol.gamma[n])
            if key == keys[n + 1]:
                U, cached_key = step_unitary(H, protocol.dt), key
        if key == cached_key:
            out.states = U @ out.states
        else:
            out.states = expm_step(H, protocol.dt, out.states)
        if (n + 1) in samples:
            out.t = batch.t + (n + 1) * protocol.dt
            out.check_norms()
            notify(n + 1)
    out.t = batch.t + protocol.duration
    out.check_norms()
    return out
