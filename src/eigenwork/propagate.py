"""Discretized unitary evolution of sector-state batches, (dim x M) arrays.

Each protocol step applies exp(-i dt H), with H = sum_i gamma_i Q_i assembled
from an OperatorStack, to the batch of states. Controller rows, single rows
and the kick are each one truncated Taylor series with an a priori truncation
bound, applied to the batch columns with no unitary formed. A fixed protocol's
row held over consecutive steps is diagonalized once instead, H = V diag(E)
V^dag by one eigh (real when H has no Y strings), and each later sample is
V exp(-i dt (n - n0) E) c from the coefficients c = V^dag psi at the first
step n0 of the row's run. Norms are checked after every product applied. Batches are
never renormalized: column-norm drift is a monitored health signal, not
something to hide.

Every H exponentiated here must be Hermitian; the step does not re-check it.
Every sector matrix, a stack column or the CSR kick generator, comes from
:func:`operators.certified_entries`, which checks it once when it is formed.
The OperatorStack certifies each assembled row by the bound max |H - H^dag|
<= sum_i |gamma_i| dev_i (up to the rounding of the assembly's sums), which
:func:`sector.check_hermiticity` checks at H's scale (eigh reads one triangle
of H). Each step still checks that H is finite, and
:func:`spectral_propagator` checks the orthonormality of V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import OperatorStack
from .sector import NumericalConsistencyError, matmul

NORM_DRIFT_TOL = 1e-8
# Taylor step: substep bound on |dt| ||H||_1, truncation tolerance (the unit
# roundoff of double precision), and the most terms one step may take over
# all of its substeps.
TAYLOR_THETA = 1.0
TAYLOR_TOL = 2.0 ** -53
TAYLOR_MAX_TERMS = 100_000

KICK_GENERATOR = "sum_sigma_x"


def norm_drift(states: np.ndarray) -> float:
    """Largest deviation of a (dim x M) batch's column norms from 1; NaN if any is NaN."""
    return float(np.abs(np.linalg.norm(states, axis=0) - 1.0).max(initial=0.0))


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
        if not (math.isfinite(self.kick_duration) and self.kick_duration >= 0):
            raise ValueError(f"kick duration must be finite and nonnegative, "
                             f"got {self.kick_duration!r}")

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
        if header.get("kick_generator") != KICK_GENERATOR:
            raise ValueError(f"kick generator {header.get('kick_generator')!r} "
                             f"is not {KICK_GENERATOR!r}")
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


def expm_step(H, dt: float, states: np.ndarray) -> np.ndarray:
    """exp(-i dt H) @ states for Hermitian H by a truncated Taylor series.

    Hermiticity is a precondition, not checked here: it is certified where H
    is built, by :meth:`SymmetrizedOperator.sector_matrix` for a CSR fixed
    matrix such as the kick generator and by :class:`OperatorStack` (each
    column once, then the bound sum_i |gamma_i| dev_i per assembled row) for
    a dense step Hamiltonian. H must be finite, which is checked. The term
    count is fixed a priori from ||H||_1, the largest column sum of |H|
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)); see
    :func:`_taylor_plan`. No unitary is formed: each term is one
    :func:`sector.matmul` of H with the (dim x M) batch.
    """
    norm = float(np.asarray(abs(H).sum(axis=0)).max(initial=0.0))
    if not np.isfinite(norm):
        raise NumericalConsistencyError("step Hamiltonian has non-finite entries")
    n_sub, n_terms = _taylor_plan(abs(dt) * norm)
    h = -1j * dt / n_sub
    out = np.array(states, dtype=complex)
    for _ in range(n_sub):
        term = out
        for j in range(1, n_terms + 1):
            term = matmul(H, term)
            term *= h / j
            out += term
    return out


def spectral_propagator(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (E, V) of a held row's Hermitian H: exp(-i t H) = V e^{-i t E} V^dag.

    A real eigh when H's imaginary part is exactly zero. H must be finite and
    V orthonormal to 1e-11; both are checked.
    """
    if not np.isfinite(H).all():
        raise NumericalConsistencyError("held Hamiltonian has non-finite entries")
    E, V = np.linalg.eigh(H if H.imag.any() else H.real)
    dev = np.abs(V.conj().T @ V - np.eye(len(V))).max()
    if not dev <= 1e-11:
        raise NumericalConsistencyError(f"held eigenvectors off orthonormality by {dev:.3e}")
    return E, V


def kick_unitary(kick_op_matrix, duration: float, states: np.ndarray) -> np.ndarray:
    """The kick exp(-i duration K) of the CSR generator K, named apart from the steps."""
    return expm_step(kick_op_matrix, duration, states)


def evolve(states: np.ndarray, protocol: ControlProtocol, stack: OperatorStack,
           observer=None, sample_steps=None, kick_matrix=None,
           controller=None) -> np.ndarray:
    """Step a (dim x M) batch through a protocol: the one stepping loop of every run.

    Returns the evolved batch; ``states`` is not modified.

    A ``controller(step, states) -> gamma`` computes each row from the states
    before its step, into the preallocated ``protocol.gamma``. The
    ``observer(step, t, states)`` then sees the same read-only states at each
    sample step; step 0 follows the kick, where the protocol clock starts.
    A row is one :func:`expm_step` on the states. A fixed protocol's row held
    over consecutive steps is one :func:`spectral_propagator`; each run of it
    takes c = V^dag psi at its first step n0, and each stretch up to step n, the
    next sample step or the run's end, is one product V (exp(-i dt (n - n0) E) c).
    Controller rows are never merged. :func:`norm_drift` is checked after every product.
    """
    if protocol.basis_checksum and protocol.basis_checksum != stack.checksum:
        raise ValueError("protocol was recorded against a different basis manifest")
    if protocol.n_steps and protocol.gamma.shape[1] != stack.n_ops:
        raise ValueError("protocol coefficient width does not match basis size")
    if protocol.kick_duration > 0.0 and kick_matrix is None:
        raise ValueError("protocol carries a kick but no kick generator was given")

    out = np.array(states, dtype=complex, order="C")
    if protocol.kick_duration > 0.0:
        out = kick_unitary(kick_matrix, protocol.kick_duration, out)

    n_steps, gamma, dt = protocol.n_steps, protocol.gamma, protocol.dt
    samples = (set() if observer is None else
               set(range(n_steps + 1) if sample_steps is None else sample_steps))
    # Distinct keys for controller rows, whose successors are not known yet.
    keys = [*range(n_steps)] if controller else [row.tobytes() for row in gamma]
    keys.append(None)
    held = V = None  # the held row's key and eigenvectors
    n = 0
    while True:
        view = out.view()  # products replace out, never write it
        view.setflags(write=False)
        if controller and n < n_steps:
            gamma[n] = controller(n, view)
        if n in samples:
            observer(n, n * dt, view)
        if n == n_steps:
            return out
        key, run = keys[n], 1
        if key == held or key == keys[n + 1]:
            if key != held:
                held, V = key, None  # the last row's V goes before the next eigh
                E, V = spectral_propagator(stack.assemble(gamma[n]))
            if keys[n - 1] != key:  # a run of the row starts (keys[-1] is None)
                n0, c = n, matmul(V.conj().T, out)
            while keys[n + run] == key and n + run not in samples:
                run += 1
            out = matmul(V, np.exp(-1j * dt * (n + run - n0) * E)[:, None] * c)
        else:
            out = expm_step(stack.assemble(gamma[n]), dt, out)
        drift = norm_drift(out)
        if not drift <= NORM_DRIFT_TOL:
            raise NumericalConsistencyError(
                f"column norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL:.0e}")
        n += run
