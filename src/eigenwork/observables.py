"""Work-extraction metrics and half-chain entanglement diagnostics.

Work is measured against the fixed initial Hamiltonian: W_alpha(t) =
E_alpha - <psi_alpha(t)|H|psi_alpha(t)>, with density w = W / L. D_pos counts
shell states with w >= epsilon (inclusive). Entanglement entropies are von
Neumann entropies in nats of the reduced state on sites 0..L/2-1;
:func:`half_chain_entropies` computes them for a whole batch from the
sector's two symmetric Schmidt blocks, without forming a 2^L vector, and
:func:`half_chain_ee` of :func:`sector.embed_state` is its full-space test
oracle. The thermal reference reported alongside is the in-shell mean of
the initial entropies, a deliberate stand-in for an ensemble calculation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError
from .sector import NumericalConsistencyError, SectorBasis, matmul, schmidt_maps

SCHMIDT_FLOOR = 1e-14
SCHMIDT_CHUNK_BYTES = 8_000_000  # one chunk's largest complex block plus its Gram matrix

TIMESERIES_HEADER = "step,t,r,y_norm,d_pos"
PER_STATE_HEADER = "alpha,E,t,w,S"
FIG4_HEADER = "alpha,E,w,S0,St,dS_final_minus_initial,dS_initial_minus_final,in_dpos"


def work_density(states: np.ndarray, origin_energies: np.ndarray,
                 H_target, L: int, H_psi: np.ndarray | None = None) -> np.ndarray:
    """w_alpha = (E_alpha - <psi_alpha|H|psi_alpha>) / L per batch column.

    ``H_target`` is the CSR array of
    :meth:`operators.SymmetrizedOperator.sector_matrix`, applied by
    :func:`sector.matmul`; a caller that already holds the product ``H_psi``
    passes it. The imaginary parts, rounding of order eps |H psi|, must stay
    within 1e-10 * max(1, max_alpha |H psi_alpha|), which a NaN fails.
    """
    if states.shape[0] != H_target.shape[0]:
        raise ValueError("state and Hamiltonian dimensions differ")
    if H_psi is None:
        H_psi = matmul(H_target, states)
    expect = np.einsum("ia,ia->a", states.conj(), H_psi)
    residue = float(np.abs(expect.imag).max(initial=0.0))
    scale = float(np.linalg.norm(H_psi, axis=0).max(initial=0.0))
    if not residue <= 1e-10 * np.maximum(1.0, scale):
        raise NumericalConsistencyError(
            f"energy expectation has imaginary part {residue:.3e} at |H psi| {scale:.3e}")
    return (origin_energies - expect.real) / L


def d_pos(w: np.ndarray, epsilon: float) -> int:
    """Count of shell states with work density at least epsilon (inclusive)."""
    return int(np.count_nonzero(np.asarray(w) >= epsilon))


def half_chain_ee(state: np.ndarray, L: int) -> float:
    """Half-chain von Neumann entropy in nats of a unit full-space vector."""
    if L % 2:
        raise ValueError("half-chain cut needs even L")
    state = np.asarray(state)
    if state.shape != (1 << L,):
        raise ValueError("state length does not match 2^L")
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"state not normalized: |psi| = {nrm!r}")
    half = L // 2
    # bit l = site l, so block A = sites 0..L/2-1 lives in the low bits (columns).
    amp = state.reshape(1 << half, 1 << half)
    lam = np.linalg.svd(amp, compute_uv=False) ** 2
    lam = lam[lam > SCHMIDT_FLOOR]
    return float(-np.sum(lam * np.log(lam)))


def half_chain_entropies(states: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """Half-chain entropy in nats of each column of a (dim x M) batch of sector states.

    Unit-normalizes each column at the measurement: evolution never
    renormalizes, but columns may carry harmless drift up to the batch
    tolerance. The Schmidt weights are the squared singular values of the two
    symmetric blocks that :func:`sector.schmidt_maps` gives: the squared
    eigenvalues of each real block when the batch's imaginary part is exactly
    zero, else the eigenvalues of B B^dag. Columns go in chunks of at most
    SCHMIDT_CHUNK_BYTES for the larger block and its Gram matrix.
    """
    maps = schmidt_maps(basis)
    states = states / np.linalg.norm(states, axis=0)
    if np.iscomplexobj(states) and not states.imag.any():
        states = states.real
    sizes = [math.isqrt(m.shape[0]) for m in maps]
    chunk = max(1, SCHMIDT_CHUNK_BYTES // (32 * sizes[0] ** 2))
    S = np.zeros(states.shape[1])
    for lo in range(0, states.shape[1], chunk):
        cols = states[:, lo:lo + chunk]
        for m, d in zip(maps, sizes):
            B = matmul(m, cols).T.reshape(cols.shape[1], d, d)
            # B is symmetric, so B^dag = conj(B).
            lam = np.linalg.eigvalsh(B @ B.conj()) if np.iscomplexobj(B) \
                else np.linalg.eigvalsh(B) ** 2
            lam = np.where(lam > SCHMIDT_FLOOR, lam, 1.0)  # 1 log 1 = 0 drops a weight
            S[lo:lo + chunk] -= np.sum(lam * np.log(lam), axis=1)
    return S


def ee_records(states0: np.ndarray, states_t: np.ndarray, basis: SectorBasis) -> np.ndarray:
    """(M x 2) array of (S0, St), the entropies of each column before and after."""
    return np.stack([half_chain_entropies(states0, basis),
                     half_chain_entropies(states_t, basis)], axis=1)


@dataclass
class Trajectory:
    """Per-run record: shell aggregates on the sample grid plus per-state series."""

    alphas: np.ndarray
    origin_energies: np.ndarray
    steps: list = field(default_factory=list)
    times: list = field(default_factory=list)
    reward: list = field(default_factory=list)
    y_norm: list = field(default_factory=list)
    dpos: list = field(default_factory=list)
    w_samples: list = field(default_factory=list)
    ee: np.ndarray | None = None  # one (S0, St) row per state, from ee_records

    def add_sample(self, step, t, r, y_norm, dpos_count, w):
        self.steps.append(int(step))
        self.times.append(float(t))
        self.reward.append(float(r))
        self.y_norm.append(float(y_norm))
        self.dpos.append(int(dpos_count))
        self.w_samples.append(np.asarray(w, dtype=float).copy())

    @classmethod
    def from_csv(cls, timeseries_text: str, per_state_text: str) -> "Trajectory":
        """Inverse of timeseries_csv/per_state_csv.

        Raises ConfigError unless the per-state rows tile the sample grid,
        one block per sample holding the same states in the same order, with
        S for every state at the first and the last sample.
        """
        tables = []
        for text, header in ((timeseries_text, TIMESERIES_HEADER),
                             (per_state_text, PER_STATE_HEADER)):
            lines = text.splitlines()
            rows = [ln.split(",") for ln in lines[1:] if ln]
            if lines[:1] != [header] or any(len(r) != 5 for r in rows):
                raise ConfigError(f"expected a CSV table with header {header!r}")
            tables.append(rows)
        ts, ps = tables
        n_states = len(ps) // len(ts) if ts else 0
        blocks = [ps[i * n_states:(i + 1) * n_states] for i in range(len(ts))]
        alphas = [r[0] for r in ps[:n_states]]
        if not ts or n_states * len(ts) != len(ps) or any(
                [r[0] for r in block] != alphas or any(r[2] != row[1] for r in block)
                for row, block in zip(ts, blocks)):
            raise ConfigError("per_state.csv rows do not tile the timeseries.csv samples")
        S0, St = [r[4] for r in blocks[0]], [r[4] for r in blocks[-1]]
        if not all(S0 + St):
            raise ConfigError("per_state.csv lacks S at the first or the last sample")
        w = np.array([float(r[3]) for r in ps]).reshape(len(ts), n_states)
        return cls(np.array([int(a) for a in alphas]),
                   np.array([float(r[1]) for r in blocks[0]]),
                   steps=[int(r[0]) for r in ts], times=[float(r[1]) for r in ts],
                   reward=[float(r[2]) for r in ts], y_norm=[float(r[3]) for r in ts],
                   dpos=[int(r[4]) for r in ts], w_samples=list(w),
                   ee=np.array([[float(a), float(b)] for a, b in zip(S0, St)]).reshape(-1, 2))

    def final_w(self) -> np.ndarray:
        return self.w_samples[-1]

    def timeseries_csv(self) -> str:
        lines = [TIMESERIES_HEADER]
        for s, t, r, y, dp in zip(self.steps, self.times, self.reward,
                                  self.y_norm, self.dpos):
            lines.append(f"{s},{t:.17g},{r:.17g},{y:.17g},{dp}")
        return "\n".join(lines) + "\n"

    def per_state_csv(self) -> str:
        """Long-format per-state series; S only at the entropy sample times."""
        last = len(self.times) - 1
        lines = [PER_STATE_HEADER]
        for s_idx, t in enumerate(self.times):
            S = self.ee[:, 0] if s_idx == 0 else self.ee[:, 1] if s_idx == last else None
            for j, alpha in enumerate(self.alphas):
                w = self.w_samples[s_idx][j]
                S_j = "" if S is None else f"{S[j]:.17g}"
                lines.append(f"{alpha},{self.origin_energies[j]:.17g},{t:.17g},{w:.17g},{S_j}")
        return "\n".join(lines) + "\n"


def fig3_csv(rows) -> str:
    """Rows of (L, k, preset, d_pos at t=1, shell_size)."""
    lines = ["L,k,preset,d_pos_t1,shell_size"]
    for L, k, preset, dp, size in rows:
        lines.append(f"{L},{k},{preset},{dp},{size}")
    return "\n".join(lines) + "\n"


def fig4_csv(traj: Trajectory, dpos_epsilon: float) -> str:
    """Per-state work density against both entropy-change conventions."""
    w_final = traj.final_w()
    lines = [FIG4_HEADER]
    for j, alpha in enumerate(traj.alphas):
        w, (S0, St) = w_final[j], traj.ee[j]
        lines.append(
            f"{alpha},{traj.origin_energies[j]:.17g},{w:.17g},{S0:.17g},{St:.17g},"
            f"{St - S0:.17g},{S0 - St:.17g},{int(w >= dpos_epsilon)}")
    return "\n".join(lines) + "\n"
