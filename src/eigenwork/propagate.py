"""Discretized unitary evolution of sector-state batches, (dim x M) arrays.

Each protocol step applies exp(-i dt H), with H = sum_i gamma_i Q_i assembled
from an OperatorStack, to the batch of states. Each row and the kick are one
truncated Taylor series with an a priori truncation bound, applied to the
batch columns with no unitary formed; :func:`evolve` builds the kick's sum X.
A quench's protocol, rows all equal to the first over a real stack, is
diagonalized once instead, by one real eigh per spin-flip parity block of the
row (see :func:`evolve`). A Taylor step's H, |H| and terms are fresh numpy
arrays; each held block forms V^T V - I in one buffer and takes V^T as a
view. Norms are checked after every product applied. Batches are never
renormalized: column-norm drift is a monitored health signal, not something
to hide.

Every H exponentiated here must be Hermitian; the step does not re-check it.
Every sector matrix, a stack column or the CSR kick generator, comes from
:func:`operators.certified_entries`, which checks it once when it is formed.
The OperatorStack certifies each assembled row by the bound max |H - H^dag|
<= sum_i |gamma_i| dev_i (up to the rounding of the assembly's sums), which
:func:`sector.check_hermiticity` checks at H's scale (eigh reads one triangle
of H). Each step still checks that H is finite, a held row that it commutes
with the spin flip by the same rule, and :func:`spectral_propagator` checks
the orthonormality of each block's V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .operators import OperatorStack, sum_x
from .sector import NumericalConsistencyError, check_hermiticity, matmul, spin_flip

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
    basis_checksum: str
    kick_duration: float = 0.0

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
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line == "gamma":
                    break
                if line and not line.startswith("#"):
                    key, _, value = line.partition(" ")
                    header[key] = value
            block = fh.read()
        if header.get("kick_generator") != KICK_GENERATOR:
            raise ValueError(f"kick generator {header.get('kick_generator')!r} "
                             f"is not {KICK_GENERATOR!r}")
        # loadtxt warns on a block with no rows, which a zero-step protocol has
        gamma = np.loadtxt(block.splitlines(), ndmin=2) if block.strip() else np.empty((0, 0))
        gamma = gamma.reshape(int(header["n_steps"]), int(header["n_ops"]))
        return cls(dt=float(header["dt"]), gamma=gamma,
                   kick_duration=float(header["kick_duration"]),
                   basis_checksum=header["basis_checksum"])


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
    """Eigenpairs (E, V) of a held block's real symmetric H: exp(-i t H) = V e^{-i t E} V^T.

    One real eigh per block. H must be real, finite and V orthonormal to
    1e-11; all are checked, the last on V^T V - I formed in one buffer.
    """
    if np.iscomplexobj(H):
        raise ValueError("a held row must be real")
    if not np.isfinite(H).all():
        raise NumericalConsistencyError("held Hamiltonian has non-finite entries")
    E, V = np.linalg.eigh(H)
    residual = V.T @ V
    residual.reshape(-1)[::len(V) + 1] -= 1.0
    dev = np.abs(residual, out=residual).max()
    if not dev <= 1e-11:
        raise NumericalConsistencyError(f"held eigenvectors off orthonormality by {dev:.3e}")
    return E, V


def flip_blocks(H: np.ndarray, flip: np.ndarray) -> tuple[scipy.sparse.csr_array, list]:
    """(Q, blocks): a real H that commutes with the involution ``flip``, split by it.

    With pairs a < flip[a] = b and fixed points f, the columns of the (dim x
    dim) orthogonal CSR Q are the even states (e_a + e_b)/sqrt2 and e_f, then
    the odd states (e_a - e_b)/sqrt2, and Q^T H Q is block diagonal. With A =
    H[a, a], B = H[a, b], C = H[a, f] and D = H[f, f], ``blocks`` holds the
    even block [[A + B, sqrt2 C], [sqrt2 C^T, D]] and the odd block A - B,
    each only when it is not empty. max |H - H[flip][:, flip]| is checked by
    :func:`sector.check_hermiticity` at H's scale.
    """
    residual = H[np.ix_(flip, flip)]
    residual -= H
    check_hermiticity(float(np.abs(residual, out=residual).max()), lambda: np.abs(H).max(),
                      "held row fails the spin-flip check: max |H - H[P][:, P]|")
    del residual
    index = np.arange(len(flip))
    a, f = np.flatnonzero(index < flip), np.flatnonzero(index == flip)
    b, r, p, n_even = flip[a], math.sqrt(0.5), len(a), len(a) + len(f)
    A, B = H[np.ix_(a, a)], H[np.ix_(a, b)]
    C = math.sqrt(2.0) * H[np.ix_(a, f)]
    even = np.block([[A + B, C], [C.T, H[np.ix_(f, f)]]])
    odd = np.subtract(A, B, out=A)
    cols = np.concatenate([index[:p], index[:n_even], index[n_even:], index[n_even:]])
    Q = scipy.sparse.csr_array((np.repeat([r, r, 1.0, r, -r], [p, p, len(f), p, p]),
                                (np.concatenate([a, b, f, a, b]), cols)), shape=H.shape)
    return Q, [M for M in (even, odd) if len(M)]


def kick_unitary(kick_op_matrix, duration: float, states: np.ndarray) -> np.ndarray:
    """The kick exp(-i duration K) of the CSR generator K, named apart from the steps."""
    return expm_step(kick_op_matrix, duration, states)


def evolve(states: np.ndarray, protocol: ControlProtocol, stack: OperatorStack,
           observer=None, sample_steps=None, controller=None) -> np.ndarray:
    """Step a (dim x M) batch through a protocol: the one stepping loop of every run.

    Returns the evolved batch; ``states`` is not modified. A kick comes first,
    :func:`kick_unitary` of the CSR sum X over ``stack.basis``, built here.
    A ``controller(step, states) -> gamma`` computes each row from the states
    before its step, into the preallocated ``protocol.gamma``. The
    ``observer(step, t, states)`` then sees the same read-only states at each
    sample step; step 0 follows the kick, where the protocol clock starts.
    A row is one :func:`expm_step` on the states. A protocol with no controller
    whose rows all equal the first over a stack with no imaginary column, a
    quench's, is held instead: one :func:`spectral_propagator`, H_b = V diag(E)
    V^T, per block, the two of :func:`flip_blocks` over a ``flip_even`` stack,
    else H itself with Q = I. c = V^T (Q^T psi)_b is taken once per block,
    after the kick, and each stretch up to step n, the next sample step or the
    end, is Q times the stacked V (exp(-i dt n E) c) of the blocks. Every other
    protocol, an optimize replay too, steps row by row. :func:`norm_drift` is
    checked after every product.
    """
    if protocol.basis_checksum != stack.checksum:
        raise ValueError("protocol was recorded against a different basis manifest")
    if protocol.n_steps and protocol.gamma.shape[1] != stack.n_ops:
        raise ValueError("protocol coefficient width does not match basis size")

    out = np.array(states, dtype=complex, order="C")
    if protocol.kick_duration > 0.0:
        out = kick_unitary(sum_x(stack.L).sector_matrix(stack.basis), protocol.kick_duration, out)

    n_steps, gamma, dt = protocol.n_steps, protocol.gamma, protocol.dt
    samples = (set() if observer is None else
               set(range(n_steps + 1) if sample_steps is None else sample_steps))
    held = []  # (E, V, c) per block of a held row
    if controller is None and n_steps > 0 and not stack.imag.nnz and (gamma == gamma[0]).all():
        H = stack.assemble(gamma[0])
        Q, blocks = (flip_blocks(H, spin_flip(stack.basis)) if stack.flip_even else
                     (scipy.sparse.eye_array(stack.dim, format="csr"), [H]))
        del H  # a block of its own, or freed before the blocks' eighs
        u = matmul(Q.T, out)
        for M in blocks:
            E, V = spectral_propagator(M)
            held.append((E, V, matmul(V.T, u[:len(V)])))
            u = u[len(V):]
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
        if held:
            n = min([n_steps, *(s for s in samples if s > n)])
            out = matmul(Q, np.concatenate([matmul(V, np.exp(-1j * dt * n * E)[:, None] * c)
                                            for E, V, c in held]))
        else:
            out = expm_step(stack.assemble(gamma[n]), dt, out)
            n += 1
        drift = norm_drift(out)
        if not drift <= NORM_DRIFT_TOL:
            raise NumericalConsistencyError(
                f"column norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL:.0e}")
