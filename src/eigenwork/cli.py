"""Command-line surface: basis, diag, optimize, quench, sweeps, replay, report.

Exit codes: 0 success, 1 a sweep-size run failed (its row in sweep.json says
how), 2 configuration error, 3 numerical-consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import MODES, ConfigError, ExperimentConfig, read_json_object
from .model import build_ising, diagonalize, select_shell
from .operators import build_basis, operator_manifest
from .sector import (L_MAX, L_MIN, NumericalConsistencyError, build_sector_basis,
                     sector_manifest)
from . import observables, runner


def _number_list(text: str, kind) -> list:
    """Comma- or space-separated numbers; anything else is a config error."""
    try:
        values = [kind(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"not a list of {kind.__name__} values: {text!r}") from exc
    if not values:
        raise ConfigError(f"empty list of {kind.__name__} values: {text!r}")
    return values


def _load_config(path, overrides=None) -> ExperimentConfig:
    data = read_json_object(path)
    data.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    return ExperimentConfig.from_dict(data)


def _cmd_basis(args):
    if not L_MIN <= args.L <= L_MAX:
        raise ConfigError(f"L={args.L} outside the supported range [{L_MIN}, {L_MAX}]")
    if not 1 <= args.k <= args.L:
        raise ConfigError(f"k={args.k} outside [1, L]")
    ops = build_basis(args.L, args.k)
    text = operator_manifest(ops, args.L)
    Path(args.out).write_text(text)
    print(f"wrote {len(ops)} operators to {args.out}")
    if args.sector:
        basis = build_sector_basis(args.L)
        Path(args.sector).write_text(sector_manifest(basis))
        print(f"wrote sector manifest (dim {basis.dim}) to {args.sector}")


def _cmd_diag(args):
    cfg = _load_config(args.config)
    basis = build_sector_basis(cfg.L)
    H = build_ising(cfg.h, cfg.g, cfg.L).sector_matrix(basis)
    energies, states = diagonalize(H, basis)
    shell = select_shell(energies, states, cfg.shell_lo, cfg.shell_hi, cfg.L)
    Path(args.out).write_text(observables.spectrum_csv(energies, shell, cfg.L))
    print(f"sector dim {basis.dim}, shell size {shell.size}; spectrum at {args.out}")


def _run_mode(args, mode):
    overrides = {"outdir": args.outdir}
    if mode == "optimize" and args.k is not None:
        overrides["k"] = args.k
    cfg = _load_config(args.config, overrides)
    if cfg.mode != mode:
        raise ConfigError(f"config mode {cfg.mode!r} does not match subcommand {mode!r}")
    run_dir = runner.run(cfg)
    summary = runner.load_summary(run_dir)
    print(f"run archived at {run_dir}; D_pos(t={summary['t_final']:g}) = "
          f"{summary['dpos_final']} of shell {summary['shell']['size']}")


def _cmd_sweep_size(args):
    template = read_json_object(args.config)
    template.pop("L", None)
    template.pop("preset", None)
    rows = runner.run_scaling_sweep(
        template, _number_list(args.L_list, int), args.k_rule,
        presets=args.presets.split(","), outdir=args.outdir)
    for row in rows:
        print(row)
    if any(r["status"] != "ok" for r in rows):
        return 1
    return 0


def _cmd_sweep_threshold(args):
    rows = runner.run_threshold_sweep(args.runs, _number_list(args.eps, float),
                                      out_path=args.out)
    for row in rows:
        print(f"{row['run']} eps={row['epsilon']:g} D_pos={row['d_pos_final']}")


def _cmd_replay(args):
    result = runner.replay(args.run, tol=args.tol)
    print(json.dumps(result, indent=2))
    if not result["within_tolerance"]:
        raise NumericalConsistencyError(
            f"replay deviates by {result['max_w_deviation']:.3e}")


def _cmd_report(args):
    outdir = runner.write_report(args.runs, args.out)
    print(f"figure data written under {outdir}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenwork",
        description="Work extraction from Ising-chain eigenstates under "
                    "optimized cyclic control")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="write the control-operator basis manifest")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--out", default="basis_manifest.txt")
    p.add_argument("--sector", default=None,
                   help="also write the sector basis manifest here")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("diag", help="diagonalize the model and export the spectrum")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--out", default="spectrum.csv")
    p.set_defaults(func=_cmd_diag)

    for mode in MODES:
        p = sub.add_parser(mode, help=f"run a {mode} experiment from a config")
        p.add_argument("-c", "--config", required=True)
        p.add_argument("--outdir", default=None)
        if mode == "optimize":
            p.add_argument("--k", type=int, default=None)
        p.set_defaults(func=lambda a, m=mode: _run_mode(a, m))

    p = sub.add_parser("sweep-size", help="system-size scaling sweep")
    p.add_argument("-c", "--config", required=True, help="template config")
    p.add_argument("--L-list", required=True)
    p.add_argument("--k-rule", choices=("fixed", "half"), default="fixed")
    p.add_argument("--presets", default="nonintegrable,integrable")
    p.add_argument("--outdir", default="runs/sweep")
    p.set_defaults(func=_cmd_sweep_size)

    p = sub.add_parser("sweep-threshold",
                       help="recompute D_pos from archives for several thresholds")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--eps", required=True, help="comma-separated thresholds")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_sweep_threshold)

    p = sub.add_parser("replay", help="re-evolve an archived protocol and compare")
    p.add_argument("--run", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("report", help="collect archives into figure-data CSVs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("-o", "--out", default="report")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
        return int(rc) if rc else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
