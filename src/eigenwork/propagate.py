"""Discretized unitary evolution of sector-state batches.

Each protocol step applies exp(-i dt H), with H = sum_i gamma_i Q_i assembled
from an OperatorStack, to the batch of states. Every exponential is one
truncated Taylor series with an a priori truncation bound, applied to the
batch columns with no unitary formed; only a row held over consecutive steps
is turned once into a dense unitary U, by the same series applied to the
identity, and each run of that row up to the next sample is one product with
a cached power of U. Norms are checked after every product applied. Batches
are never renormalized: column-norm drift is a monitored health signal, not
something to hide.

Every H exponentiated here must be Hermitian; the step does not re-check it.
Every sector matrix, a stack column or a fixed matrix such as the kick
generator, comes from :func:`operators.certified_entries`, which checks it
once when it is formed. The OperatorStack certifies each assembled row by the
bound max |H - H^dag| <= sum_i |gamma_i| dev_i (up to the rounding of the
assembly's sums), which :func:`sector.check_hermiticity` checks at H's
scale. Each step still checks that H is finite, and
:func:`step_unitary` checks the unitarity of U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import OperatorStack
from .sector import NumericalConsistencyError

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
        return StateBatch(self.states.copy(), self.origin_energies.copy())

    def norm_drift(self) -> float:
        return float(np.abs(np.linalg.norm(self.states, axis=0) - 1.0).max())

    def check_norms(self):
        drift = self.norm_drift()
        if not drift <= NORM_DRIFT_TOL:
            raise NumericalConsistencyError(
                f"column norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL:.0e}")


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

    Hermiticity is a precondition, not checked here: it is certified where H
    is built, by :meth:`SymmetrizedOperator.sector_matrix` for fixed
    matrices and by :class:`OperatorStack` (each column once, then the bound
    sum_i |gamma_i| dev_i per assembled row) for step Hamiltonians. H must be
    finite, which is checked. The term count is fixed a priori from ||H||_1,
    the largest column sum of |H| (Al-Mohy & Higham, SIAM J. Sci. Comput.
    33, 488 (2011)); see :func:`_taylor_plan`. No unitary is formed, so the
    cost is a few (dim x dim) @ (dim x M) products.
    """
    norm = float(np.abs(H).sum(axis=0).max(initial=0.0))
    if not np.isfinite(norm):
        raise NumericalConsistencyError("step Hamiltonian has non-finite entries")
    n_sub, n_terms = _taylor_plan(abs(dt) * norm)
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
    """Dense exp(-i dt H): :func:`expm_step` applied to the identity.

    Pays only for a Hamiltonian held over many consecutive steps.
    """
    U = expm_step(H, dt, np.eye(len(H)))
    dev = np.abs(U.conj().T @ U - np.eye(len(U))).max()
    if not dev <= 1e-11:
        raise NumericalConsistencyError(f"step unitary deviates from unitarity by {dev:.3e}")
    return U


def kick_unitary(kick_op_matrix: np.ndarray, duration: float,
                 states: np.ndarray) -> np.ndarray:
    """The kick exp(-i duration K) applied to states, named apart from the steps."""
    return expm_step(kick_op_matrix, duration, states)


def evolve(batch: StateBatch, protocol: ControlProtocol, stack: OperatorStack,
           observer=None, sample_steps=None, kick_matrix: np.ndarray | None = None,
           controller=None) -> StateBatch:
    """Step a batch through a protocol: the one stepping loop of every run.

    A ``controller(step, states) -> gamma`` computes each row from the states
    before its step, into the preallocated ``protocol.gamma``. The
    ``observer(step, t, states)`` then sees the same read-only states at each
    sample step; step 0 follows the kick, where the protocol clock starts.
    A row is one :func:`expm_step` on the states. A row of a fixed protocol
    held over consecutive steps builds one :func:`step_unitary` U, the same
    series on the identity, and each of its runs up to the next sample step
    (or to the row's end) is one product with U^r, cached by the run length r;
    controller rows are never merged. Norms are checked after every product.
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

    n_steps, gamma, dt = protocol.n_steps, protocol.gamma, protocol.dt
    samples = (set() if observer is None else
               set(range(n_steps + 1) if sample_steps is None else sample_steps))
    # Distinct keys for controller rows, whose successors are not known yet.
    keys = [*range(n_steps)] if controller else [row.tobytes() for row in gamma]
    keys.append(None)
    held = powers = None  # the held row's key and its unitary's powers by exponent
    n = 0
    while True:
        states = out.states.view()  # products replace out.states, never write it
        states.setflags(write=False)
        if controller and n < n_steps:
            gamma[n] = controller(n, states)
        if n in samples:
            observer(n, n * dt, states)
        if n == n_steps:
            return out
        key, run = keys[n], 1
        if key == held or key == keys[n + 1]:
            if key != held:
                held, powers = key, None  # the last row's powers go before U is built
                powers = {1: step_unitary(stack.assemble(gamma[n]), dt)}
            while keys[n + run] == key and n + run not in samples:
                run += 1
            if run not in powers:
                powers[run] = np.linalg.matrix_power(powers[1], run)
            out.states = powers[run] @ out.states
        else:
            out.states = expm_step(stack.assemble(gamma[n]), dt, out.states)
        out.check_norms()
        n += run
