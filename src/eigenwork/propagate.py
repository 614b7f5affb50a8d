"""Discretized unitary evolution of sector-state batches.

Each protocol step applies exp(-i dt H) with H = sum_i gamma_i Q_i assembled
from an OperatorStack; the exponential is exact via Hermitian
eigendecomposition. Batches are never renormalized: column-norm drift is a
monitored health signal, not something to hide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import OperatorStack
from .sector import NumericalConsistencyError, require_hermitian

NORM_DRIFT_TOL = 1e-8

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
        if drift > tol:
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


def expm_step(H: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) for Hermitian H, exact via eigendecomposition."""
    scale = max(1.0, float(np.abs(H).max())) if H.size else 1.0
    require_hermitian(H, tol=1e-12 * scale)
    energies, V = np.linalg.eigh(H)
    U = (V * np.exp(-1j * dt * energies)) @ V.conj().T
    dev = np.abs(U.conj().T @ U - np.eye(len(U))).max()
    if dev > 1e-11:
        raise NumericalConsistencyError(f"step unitary deviates from unitarity by {dev:.3e}")
    return U


def kick_unitary(kick_op_matrix: np.ndarray, duration: float) -> np.ndarray:
    return expm_step(kick_op_matrix, duration)


def evolve(batch: StateBatch, protocol: ControlProtocol, stack: OperatorStack,
           observers=(), sample_steps=None, kick_matrix: np.ndarray | None = None) -> StateBatch:
    """Replay a protocol on a batch, notifying observers at sample steps.

    Observers are callables (step, t, states) receiving read-only snapshots;
    step 0 fires after the kick, which is where the protocol clock starts.
    Identical consecutive coefficient rows reuse the cached step unitary, so
    constant-Hamiltonian protocols cost a single eigendecomposition.
    """
    if protocol.basis_checksum and protocol.basis_checksum != stack.checksum:
        raise ValueError("protocol was recorded against a different basis manifest")
    if protocol.n_steps and protocol.gamma.shape[1] != stack.n_ops:
        raise ValueError("protocol coefficient width does not match basis size")
    if protocol.kick_duration > 0.0 and kick_matrix is None:
        raise ValueError("protocol carries a kick but no kick generator was given")

    out = batch.copy()
    if protocol.kick_duration > 0.0:
        out.states = kick_unitary(kick_matrix, protocol.kick_duration) @ out.states

    samples = set(range(protocol.n_steps + 1)) if sample_steps is None else set(sample_steps)

    def notify(step):
        snap = out.states.copy()
        snap.setflags(write=False)
        for obs in observers:
            obs(step, step * protocol.dt, snap)

    if 0 in samples:
        notify(0)
    cached_row = None
    U = None
    for n in range(protocol.n_steps):
        row = protocol.gamma[n]
        key = row.tobytes()
        if key != cached_row:
            U = expm_step(stack.assemble(row), protocol.dt)
            cached_row = key
        out.states = U @ out.states
        if (n + 1) in samples:
            out.t = batch.t + (n + 1) * protocol.dt
            out.check_norms()
            notify(n + 1)
    out.t = batch.t + protocol.duration
    out.check_norms()
    return out
