"""Experiment orchestration: prepare, run, archive, replay, sweep.

Every run owns one directory containing a config snapshot, the basis and
sector manifests, the spectrum, the replayable protocol, and the observable
CSVs. Archives replay bit-consistently from the protocol file alone; the
replay entry point checks that without invoking the optimizer.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse

from . import observables, optimizer
from .config import ConfigError, ExperimentConfig, FORMAT_TAG, read_json_object
from .model import PRESETS, EnergyShell, build_ising, diagonalize, select_shell
from .observables import Trajectory, csv_text, d_pos, spectrum_csv, work_density
from .operators import OperatorStack, build_basis
from .propagate import ControlProtocol, evolve, norm_drift
from .sector import SectorBasis, build_sector_basis, manifest_checksum, sector_manifest


@dataclass
class RunContext:
    """What a run needs of its model past ``prepare``.

    Of the eigendecomposition only the energies, the eigenvector checksum and
    the shell's columns are kept. ``H_target`` is the target's real CSR
    sector matrix, which every run applies; the kick's generator is built by
    :func:`evolve` from the protocol and the stack.
    """

    config: ExperimentConfig
    basis: SectorBasis
    H_target: scipy.sparse.csr_array
    energies: np.ndarray
    eigenvector_checksum: str
    shell: EnergyShell
    stack: OperatorStack


def prepare(config: ExperimentConfig) -> RunContext:
    basis = build_sector_basis(config.L)
    H_target = build_ising(config.h, config.g, config.L).sector_matrix(basis)
    energies, states = diagonalize(H_target, basis)
    shell = select_shell(energies, states, config.shell_lo, config.shell_hi, config.L)
    checksum = hashlib.sha256(np.ascontiguousarray(states)).hexdigest()  # the bytes of tobytes()
    del states  # frees the full eigenvector matrix before the stack is built

    if config.mode == "optimize":
        ops = build_basis(config.L, config.k)
    else:
        ops = [build_ising(config.quench_h, config.quench_g, config.L)]
    return RunContext(config, basis, H_target, energies, checksum, shell,
                      OperatorStack(ops, basis))


def _constant_gamma_protocol(ctx: RunContext) -> ControlProtocol:
    """A quench's protocol: its one operator, the quench target, held at 1 over every step."""
    cfg = ctx.config
    return ControlProtocol(dt=cfg.dt, gamma=np.ones((cfg.n_steps, 1)),
                           kick_duration=cfg.kick_duration,
                           basis_checksum=ctx.stack.checksum)


def _replay_trajectory(ctx: RunContext, protocol: ControlProtocol) -> tuple[Trajectory, np.ndarray]:
    """Evolve under a fixed protocol, recording the same aggregates as optimize.

    The observer applies the CSR target of ``prepare``, as the optimizer does.
    """
    cfg = ctx.config
    traj = Trajectory(ctx.shell.indices, ctx.shell.energies)

    def observer(step, t, states):
        optimizer.record(traj, cfg, step, t, work_density(
            states, ctx.shell.energies, ctx.H_target, cfg.L))

    final = evolve(ctx.shell.states, protocol, ctx.stack, observer=observer,
                   sample_steps=cfg.sample_steps)
    return traj, final


def run(config: ExperimentConfig) -> Path:
    """Execute one experiment and archive it; returns the run directory."""
    ctx = prepare(config)
    if ctx.shell.size == 0:
        raise ConfigError("empty energy shell for the requested model and bounds")

    if config.mode == "optimize":
        protocol, traj, final = optimizer.optimize(config, ctx.H_target, ctx.shell, ctx.stack)
    else:
        protocol = _constant_gamma_protocol(ctx)
        traj, final = _replay_trajectory(ctx, protocol)

    traj.ee = observables.ee_records(ctx.shell.states, final, ctx.basis)

    return _archive(ctx, protocol, traj, final)


def _archive(ctx: RunContext, protocol: ControlProtocol, traj: Trajectory,
             final: np.ndarray) -> Path:
    cfg = ctx.config
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg.save(outdir / "config.json")
    (outdir / "basis_manifest.txt").write_text(ctx.stack.manifest)
    sect = sector_manifest(ctx.basis)
    (outdir / "sector_manifest.txt").write_text(sect)
    (outdir / "spectrum.csv").write_text(spectrum_csv(ctx.energies, ctx.shell, cfg.L))
    protocol.save(outdir / "protocol.txt")
    (outdir / "timeseries.csv").write_text(traj.timeseries_csv())
    (outdir / "per_state.csv").write_text(traj.per_state_csv())
    summary = {
        "format": FORMAT_TAG,
        "L": cfg.L,
        "mode": cfg.mode,
        "k": cfg.k,
        "preset": cfg.preset_name(),
        "h": cfg.h,
        "g": cfg.g,
        "shell": {"lo": cfg.shell_lo, "hi": cfg.shell_hi,
                  "size": ctx.shell.size,
                  "indices": ctx.shell.indices.tolist()},
        "dpos_epsilon": cfg.dpos_epsilon,
        "dpos_final": traj.dpos[-1],
        "t_final": traj.times[-1],
        "shell_mean_initial_ee": float(np.mean(traj.ee[:, 0])),
        "initial_ee_std": float(np.std(traj.ee[:, 0])),
        "basis_checksum": ctx.stack.checksum,
        "sector_checksum": manifest_checksum(sect),
        "eigenvector_checksum": ctx.eigenvector_checksum,
        "norm_drift": norm_drift(final),
    }
    with open(outdir / "run.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return outdir


def replay(run_dir, tol: float = 1e-9) -> dict:
    """Re-evolve an archived protocol and compare final work densities."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"replay tolerance must be a finite number >= 0, got {tol!r}")
    run_dir = Path(run_dir)
    config = ExperimentConfig.from_file(run_dir / "config.json")
    ctx = prepare(config)
    # Only run.json is read before the evolve: parsing the CSVs first raises peak RSS.
    shell = ctx.shell.indices.tolist()
    if shell != load_summary(run_dir)["shell"]["indices"]:
        raise ConfigError(f"config.json's shell [{config.shell_lo!r}, {config.shell_hi!r}] "
                          f"holds {len(shell)} eigenstates, not those of run.json's shell")
    path = run_dir / "protocol.txt"
    try:
        protocol = ControlProtocol.load(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"{path} is not a readable protocol: {exc!r}") from exc
    if (protocol.n_steps, protocol.dt, protocol.basis_checksum, protocol.gamma.shape[1],
            protocol.kick_duration) != (config.n_steps, config.dt, ctx.stack.checksum,
                                        ctx.stack.n_ops, config.kick_duration):
        raise ConfigError(f"{path} does not hold the {config.n_steps} steps of dt="
                          f"{config.dt!r} over the {ctx.stack.n_ops} operators of basis "
                          f"{ctx.stack.checksum}, after a kick of {config.kick_duration!r}, "
                          f"that config.json sets")
    traj, _ = _replay_trajectory(ctx, protocol)

    archived = load_run(run_dir)[1].final_w()
    replayed = traj.final_w()
    max_dev = float(np.max(np.abs(archived - replayed), initial=0.0))
    return {"max_w_deviation": max_dev, "within_tolerance": bool(max_dev <= tol),
            "tolerance": tol, "n_states": len(archived)}


def load_summary(run_dir) -> dict:
    """Read an archived run's summary, run.json: a JSON object of format FORMAT_TAG
    that holds every key its readers index."""
    summary = read_json_object(Path(run_dir) / "run.json")
    if summary.get("format") != FORMAT_TAG:
        raise ConfigError(f"{run_dir} is not a run archive of format {FORMAT_TAG}")
    shell = summary.get("shell") if isinstance(summary.get("shell"), dict) else {}
    missing = [key for key in ("L", "mode", "k", "preset", "dpos_epsilon", "dpos_final")
               if key not in summary]
    missing += [f"shell.{key}" for key in ("lo", "hi", "size", "indices") if key not in shell]
    if missing:
        raise ConfigError(f"{run_dir}/run.json lacks {', '.join(missing)}")
    return summary


def load_run(run_dir) -> tuple[dict, Trajectory]:
    """Read an archived run's summary and trajectory; the one reader of its CSVs.

    The per-state table must hold exactly run.json's shell states, in its order.
    """
    run_dir = Path(run_dir)
    summary = load_summary(run_dir)
    try:
        traj = Trajectory.from_csv((run_dir / "timeseries.csv").read_text(),
                                   (run_dir / "per_state.csv").read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{run_dir} is not a readable run archive: {exc}") from exc
    if traj.alphas.tolist() != summary["shell"]["indices"]:
        raise ConfigError(f"{run_dir}: per_state.csv holds the states {traj.alphas.tolist()}, "
                          f"not those of run.json's shell")
    return summary, traj


def _fig3_table(summaries) -> str:
    """D_pos at the final time against L, k and preset, of optimize runs' summaries."""
    return csv_text("L,k,preset,d_pos_final,shell_size", (
        (s["L"], s["k"], s["preset"], s["dpos_final"], s["shell"]["size"]) for s in summaries))


def run_scaling_sweep(template: dict, L_list, k_rule: str,
                      presets=("nonintegrable", "integrable"),
                      outdir="runs/sweep") -> list[dict]:
    """Optimize across sizes and presets, which set h and g; per-run failures isolate.

    Every row's config is built first, so a template that any row refuses is a
    ConfigError before the first run."""
    if k_rule not in ("fixed", "half"):
        raise ConfigError("k rule must be 'fixed' or 'half'")
    unknown = [p for p in presets if p not in PRESETS]
    if unknown:
        raise ConfigError(f"unknown presets {unknown}; expected some of {sorted(PRESETS)}")
    if {"h", "g"} & template.keys():
        raise ConfigError("the template must not set h or g: they would override every "
                          "preset's fields while the rows keep the preset's name")
    outdir = Path(outdir)
    configs = []  # every row's config, built before any run starts
    for preset in presets:
        for L in L_list:
            data = dict(template)
            data.update(preset=preset, L=L, mode="optimize")
            if k_rule == "half":
                data["k"] = L // 2
            elif "k" not in data:
                raise ConfigError("fixed k rule needs k in the template")
            data["outdir"] = str(outdir / f"{preset}_L{L}_k{data['k']}")
            configs.append((preset, ExperimentConfig.from_dict(data)))
    rows, summaries = [], []
    for preset, config in configs:
        row = {"preset": preset, "L": config.L, "k": config.k}
        try:
            run_dir = run(config)
            summary = load_summary(run_dir)
            row.update(status="ok", d_pos=summary["dpos_final"],
                       shell_size=summary["shell"]["size"],
                       run_dir=str(run_dir))
            summaries.append(summary)
        except Exception as exc:  # isolate per-run failures
            row.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "fig3_scaling.csv").write_text(_fig3_table(summaries))
    with open(outdir / "sweep.json", "w") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")
    return rows


def run_threshold_sweep(run_dirs, eps_list, out_path=None) -> list[dict]:
    """Recompute D_pos from archived work records for each threshold.

    No re-simulation happens; reward parameters stay whatever the archive
    used. Thresholds wider than the energy shell are flagged since the
    gradient-based protocol is only meaningful below the shell width.
    """
    bad = [eps for eps in eps_list if not math.isfinite(eps)]
    if bad:
        raise ConfigError(f"thresholds must be finite, got {bad}")
    rows = []
    for run_dir in map(Path, run_dirs):
        summary, traj = load_run(run_dir)
        shell_width = summary["shell"]["hi"] - summary["shell"]["lo"]
        for eps in eps_list:
            rows.append({
                "run": str(run_dir), "preset": summary["preset"],
                "L": summary["L"], "k": summary["k"], "epsilon": eps,
                "d_pos_final": d_pos(traj.final_w(), eps),
                "exceeds_shell_width": eps > shell_width + 1e-12,
            })
            if eps > shell_width + 1e-12:
                print(f"warning: epsilon={eps} exceeds the shell width "
                      f"{shell_width:.6g}; the greedy protocol is not expected "
                      f"to target work beyond the shell")
    if out_path is not None:
        Path(out_path).write_text(csv_text(
            "run,preset,L,k,epsilon,d_pos_final,exceeds_shell_width", (r.values() for r in rows)))
    return rows


def write_report(run_dirs, outdir) -> Path:
    """Collect archived runs into the figure-data CSV exports. A run's label, taken
    already, gains ``_{run directory name}``, then ``_2``, ``_3``, ... until unique.
    Every archive is read before ``outdir`` is created, so a failed report writes nothing."""
    runs = [(run_dir, *load_run(run_dir)) for run_dir in map(Path, run_dirs)]
    fig2, fig3, fig4 = [], [], []
    seen_labels = set()
    for run_dir, summary, traj in runs:
        label = summary["mode"] if summary["mode"] != "optimize" \
            else f"optimize_k{summary['k']}"
        label = f"{summary['preset']}_{label}_L{summary['L']}"
        stem, n = label, 1
        while label in seen_labels:
            label = f"{stem}_{run_dir.name}" + (f"_{n}" if n > 1 else "")
            n += 1
        seen_labels.add(label)
        size = summary["shell"]["size"]
        fig2 += ((label, t, dp, size) for t, dp in zip(traj.times, traj.dpos))
        if summary["mode"] == "optimize":
            fig3.append(summary)
            fig4 += ((label, *row)
                     for row in observables.fig4_rows(traj, summary["dpos_epsilon"]))

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "fig2_dpos_vs_t.csv").write_text(csv_text("label,t,d_pos,shell_size", fig2))
    (outdir / "fig3_scaling.csv").write_text(_fig3_table(fig3))
    (outdir / "fig4_deltaS_vs_w.csv").write_text(
        csv_text(f"label,{observables.FIG4_HEADER}", fig4))
    return outdir
