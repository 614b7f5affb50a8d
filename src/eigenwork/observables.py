"""Work-extraction metrics and half-chain entanglement diagnostics.

Work is measured against the fixed initial Hamiltonian: W_alpha(t) =
E_alpha - <psi_alpha(t)|H|psi_alpha(t)>, with density w = W / L. D_pos counts
shell states with w >= epsilon (inclusive). Entanglement entropies are von
Neumann entropies in nats of the reduced state on sites 0..L/2-1; the
thermal reference reported alongside is the in-shell mean of the initial
entropies, a deliberate stand-in for an ensemble calculation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sector import NumericalConsistencyError, SectorBasis, embed_state

SCHMIDT_FLOOR = 1e-14


def work_density(states: np.ndarray, origin_energies: np.ndarray,
                 H_target: np.ndarray, L: int, residue_tol: float = 1e-10) -> np.ndarray:
    """w_alpha = (E_alpha - <psi_alpha|H|psi_alpha>) / L per batch column."""
    if states.shape[0] != H_target.shape[0]:
        raise ValueError("state and Hamiltonian dimensions differ")
    expect = np.einsum("ia,ia->a", states.conj(), H_target @ states)
    residue = float(np.abs(expect.imag).max()) if expect.size else 0.0
    if not residue <= residue_tol:
        raise NumericalConsistencyError(
            f"energy expectation has imaginary part {residue:.3e}")
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


@dataclass(frozen=True)
class WorkRecord:
    """Extracted work of one eigenstate at one sample time; W = L * w exactly."""

    alpha: int
    E: float
    t: float
    w: float
    W: float

    @classmethod
    def from_density(cls, alpha: int, E: float, t: float, w: float, L: int):
        return cls(alpha, E, t, w, L * w)


def d_pos_from_records(records, epsilon: float, L: int, shell_indices) -> int:
    """D_pos from WorkRecords; every shell member must be covered."""
    by_alpha = {r.alpha for r in records}
    missing = set(shell_indices) - by_alpha
    if missing:
        raise ValueError(f"work records missing shell members {sorted(missing)}")
    return sum(r.W >= epsilon * L for r in records if r.alpha in set(shell_indices))


@dataclass(frozen=True)
class EERecord:
    alpha: int
    S0: float
    St: float

    @property
    def dS(self) -> float:
        """Stored convention: initial minus final."""
        return self.S0 - self.St


def ee_records(states0: np.ndarray, states_t: np.ndarray, basis: SectorBasis,
               alphas) -> list[EERecord]:
    """Per-state entropies before/after; unit-normalizes at the measurement.

    Evolution never renormalizes, but columns may carry harmless drift up to
    the batch tolerance, which the stricter embedding contract would reject.
    """
    def entropy(col):
        col = col / np.linalg.norm(col)
        return half_chain_ee(embed_state(col, basis), basis.L)

    return [EERecord(int(alpha), entropy(states0[:, j]), entropy(states_t[:, j]))
            for j, alpha in enumerate(alphas)]


def shell_mean_initial_ee(records) -> float:
    """In-shell mean of S(rho(0)); stands in for the thermal reference line."""
    return float(np.mean([r.S0 for r in records])) if records else float("nan")


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
    vanished: list = field(default_factory=list)
    w_samples: list = field(default_factory=list)
    ee: list = field(default_factory=list)
    shell_mean_s0: float = float("nan")

    def add_sample(self, step, t, r, y_norm, dpos_count, w, vanished=False):
        self.steps.append(int(step))
        self.times.append(float(t))
        self.reward.append(float(r))
        self.y_norm.append(float(y_norm))
        self.dpos.append(int(dpos_count))
        self.vanished.append(bool(vanished))
        self.w_samples.append(np.asarray(w, dtype=float).copy())

    def final_w(self) -> np.ndarray:
        return self.w_samples[-1]

    def timeseries_csv(self) -> str:
        lines = ["step,t,r,y_norm,d_pos"]
        for s, t, r, y, dp in zip(self.steps, self.times, self.reward,
                                  self.y_norm, self.dpos):
            lines.append(f"{s},{t:.17g},{r:.17g},{y:.17g},{dp}")
        return "\n".join(lines) + "\n"

    def per_state_csv(self) -> str:
        """Long-format per-state series; S only at the entropy sample times."""
        ee_by_alpha = {r.alpha: r for r in self.ee}
        t_final = self.times[-1] if self.times else 0.0
        lines = ["alpha,E,t,w,S"]
        for s_idx, t in enumerate(self.times):
            for j, alpha in enumerate(self.alphas):
                w = self.w_samples[s_idx][j]
                S = ""
                rec = ee_by_alpha.get(int(alpha))
                if rec is not None:
                    if s_idx == 0:
                        S = f"{rec.S0:.17g}"
                    elif t == t_final and s_idx == len(self.times) - 1:
                        S = f"{rec.St:.17g}"
                lines.append(f"{alpha},{self.origin_energies[j]:.17g},{t:.17g},{w:.17g},{S}")
        return "\n".join(lines) + "\n"


def dpos_from_per_state_csv(text: str, epsilon: float) -> dict[float, int]:
    """Recompute D_pos(t) from an archived per_state.csv, no re-simulation."""
    counts: dict[float, int] = {}
    for line in text.splitlines()[1:]:
        if not line:
            continue
        _, _, t, w, _ = line.split(",")
        t = float(t)
        counts.setdefault(t, 0)
        if float(w) >= epsilon:
            counts[t] += 1
    return counts


def fig3_csv(rows) -> str:
    """Rows of (L, k, preset, d_pos at t=1, shell_size)."""
    lines = ["L,k,preset,d_pos_t1,shell_size"]
    for L, k, preset, dp, size in rows:
        lines.append(f"{L},{k},{preset},{dp},{size}")
    return "\n".join(lines) + "\n"


def fig4_csv(traj: Trajectory, dpos_epsilon: float) -> str:
    """Per-state work density against both entropy-change conventions."""
    w_final = traj.final_w()
    lines = ["alpha,E,w,S0,St,dS_final_minus_initial,dS_initial_minus_final,in_dpos"]
    by_alpha = {r.alpha: r for r in traj.ee}
    for j, alpha in enumerate(traj.alphas):
        rec = by_alpha[int(alpha)]
        w = w_final[j]
        lines.append(
            f"{alpha},{traj.origin_energies[j]:.17g},{w:.17g},{rec.S0:.17g},{rec.St:.17g},"
            f"{rec.St - rec.S0:.17g},{rec.S0 - rec.St:.17g},{int(w >= dpos_epsilon)}")
    return "\n".join(lines) + "\n"
