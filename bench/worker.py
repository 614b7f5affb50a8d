"""One benchmark repetition, in a process of its own.

A repetition runs ``runner.run`` on the workload's config, then
``runner.replay`` on the archive it wrote, checks the outputs and prints one
JSON line. It replays once, and again while ``--budget`` seconds from the
process start leave room for one more: every replay follows a ``prepare``
in the same process, so none pays the cold start. ``--mode replay`` calls
``runner.prepare`` once and then replays the archive a repetition left, the
same way; ``--mode setup`` only calls ``runner.prepare``. The first
``prepare`` of every process is a cold set-up sample.

``--trace 0`` wraps only the three calls the end-to-end metrics need
(``prepare``, ``optimize``, ``evolve``); ``--trace 1`` wraps every layer and
adds the per-layer metrics. The package is imported from ``<root>/src``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from tracing import END, NAME, NOTE, PARENT, START, Tracer

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent

# Physics is fixed. optimize_global stops at t=0.06 so that a run holds two
# repetitions and several replays (t=1 takes about two minutes on 2 cores),
# so its t=1 pin is not checked here.
WORKLOADS = {
    "optimize_local": {"preset": "integrable", "L": 12, "mode": "optimize", "k": 4},
    "optimize_global": {"preset": "nonintegrable", "L": 12, "mode": "optimize",
                        "k": 6, "duration": 0.06},
    "quench_L14": {"preset": "nonintegrable", "L": 14, "mode": "quench"},
}

REPLAY_TOL = 1e-9
NORM_DRIFT_TOL = 1e-8
# Computed-cost model, from array sizes; caches are ignored.
FLOPS_PER_EXPM = 32      # x dim^3: eigh with vectors ~16, two complex GEMMs 8 each
TRIPLET_BYTES = 32       # complex value + int64 position + int64 operator index


def pin_for(data: dict, baselines: dict):
    """D_pos pin the run must reproduce: an int, "all-zero" for quench, or None.

    Optimizer pins hold only for a full t=1 run.
    """
    if data["mode"] == "quench":
        return "all-zero"
    key = f"{data['preset']}_L{data['L']}_k{data['k']}"
    if data.get("duration", 1.0) == 1.0:
        return baselines.get(key)
    return None


def install(tracer: Tracer, level: int):
    from eigenwork import observables, optimizer, propagate, runner
    from eigenwork.operators import OperatorStack, SymmetrizedOperator
    from eigenwork.propagate import ControlProtocol

    w = tracer.wrap
    w(runner, "prepare", "runner.prepare")
    w(optimizer, "optimize", "optimizer.optimize")
    w(runner, "evolve", "propagate.evolve", note=lambda a, r: a[1].n_steps)
    if not level:
        return
    stacks = {}

    def stack_note(a, r):
        stack = a[0]
        triplets = sum(len(op.terms) for op in stack.ops) * stack.dim
        stacks[id(stack)] = (triplets * TRIPLET_BYTES + 16 * stack.dim ** 2
                             + 16 * stack.n_ops)
        return {"n_ops": stack.n_ops, "triplets": triplets}

    def expm_note(a, r):
        return FLOPS_PER_EXPM * a[0].shape[0] ** 3

    def file_size(a, r):
        return os.path.getsize(a[1])

    w(runner, "run", "runner.run")
    w(runner, "replay", "runner.replay")
    w(runner, "_archive", "runner.archive")
    w(runner, "build_sector_basis", "sector.build", note=lambda a, r: r.dim)
    w(runner, "diagonalize", "model.diagonalize")
    w(runner, "build_basis", "operators.build_basis")
    w(OperatorStack, "__init__", "operators.stack_build", note=stack_note)
    w(OperatorStack, "assemble", "operators.assemble")
    w(OperatorStack, "gather_quadratic", "operators.gather",
      note=lambda a, r: stacks[id(a[0])])
    w(SymmetrizedOperator, "sector_matrix", "operators.sector_matrix")
    w(ControlProtocol, "save", "propagate.protocol_save", note=file_size)
    w(ControlProtocol, "load", "propagate.protocol_load")
    w(propagate, "expm_step", "propagate.expm_step", note=expm_note)
    w(optimizer, "expm_step", "propagate.expm_step", note=expm_note)
    w(propagate, "kick_unitary", "propagate.kick")
    w(optimizer, "kick_unitary", "propagate.kick")
    w(optimizer, "compute_Y", "optimizer.compute_Y")
    w(optimizer, "work_density", "observables.work_density")
    w(runner, "work_density", "observables.work_density")
    w(observables, "ee_records", "observables.ee", note=lambda a, r: len(r))


def layer_metrics(tracer: Tracer, archive_bytes: int, shell_size: int) -> dict:
    """Per-layer metrics of one traced repetition: run and replay together."""
    summary = tracer.summary()
    spans = tracer.spans

    def total(name, key="total_s"):
        return summary.get(name, {}).get(key, 0)

    def notes(name):
        return [s[NOTE] for s in spans if s[NAME] == name]

    evolve_idx = {i for i, s in enumerate(spans) if s[NAME] == "propagate.evolve"}
    steps = sum(notes("propagate.evolve"))
    expm_in_evolve = sum(1 for s in spans
                         if s[NAME] == "propagate.expm_step" and s[PARENT] in evolve_idx)
    stack = (notes("operators.stack_build") or [{"n_ops": 0, "triplets": 0}])[0]
    return {
        "propagate.expm_step_s": total("propagate.expm_step"),
        "propagate.expm_step_calls": total("propagate.expm_step", "calls"),
        "propagate.expm_flops_computed": sum(notes("propagate.expm_step")),
        "operators.gather_s": total("operators.gather"),
        "operators.gather_calls": total("operators.gather", "calls"),
        "operators.gather_bytes_computed": sum(notes("operators.gather")),
        "operators.stack_build_s": total("operators.stack_build"),
        "operators.build_basis_s": total("operators.build_basis"),
        "operators.stack_triplets": stack["triplets"],
        "operators.stack_bytes_computed": stack["triplets"] * TRIPLET_BYTES,
        "operators.n_ops": stack["n_ops"],
        "operators.assemble_s": total("operators.assemble"),
        "operators.assemble_calls": total("operators.assemble", "calls"),
        "propagate.evolve_s": total("propagate.evolve"),
        "propagate.unitary_cache_hit_ratio": 1.0 - expm_in_evolve / steps if steps else 0.0,
        "model.diagonalize_s": total("model.diagonalize"),
        "model.shell_size": shell_size,
        "sector.build_s": total("sector.build"),
        "sector.dim": notes("sector.build")[0],
        "operators.sector_matrix_s": total("operators.sector_matrix"),
        "observables.work_density_s": total("observables.work_density"),
        "observables.work_density_calls": total("observables.work_density", "calls"),
        "observables.ee_s": total("observables.ee"),
        "observables.ee_states": sum(notes("observables.ee")),
        "optimizer.optimize_s": total("optimizer.optimize"),
        "optimizer.compute_Y_self_s": total("optimizer.compute_Y", "self_s"),
        "optimizer.self_s": total("optimizer.optimize", "self_s"),
        "propagate.protocol_save_s": total("propagate.protocol_save"),
        "propagate.protocol_load_s": total("propagate.protocol_load"),
        "propagate.protocol_bytes": sum(notes("propagate.protocol_save")),
        "runner.self_s": sum(row["self_s"] for name, row in summary.items()
                             if name.startswith("runner.")),
        "runner.archive_bytes": archive_bytes,
    }


def check(pin, run_dir: Path, summary: dict, deviation: float) -> list[str]:
    """Failed output checks of one archive and its replays; empty when all hold."""
    failures = []
    if not deviation <= REPLAY_TOL:
        failures.append(f"replay deviation {deviation:.3e} > {REPLAY_TOL:.0e}")
    if not summary["norm_drift"] < NORM_DRIFT_TOL:
        failures.append(f"norm drift {summary['norm_drift']:.3e} >= {NORM_DRIFT_TOL:.0e}")
    if pin == "all-zero":
        dpos = [int(line.split(",")[4]) for line in
                (run_dir / "timeseries.csv").read_text().splitlines()[1:]]
        if any(dpos):
            failures.append(f"quench D_pos not zero at every sample: max {max(dpos)}")
    elif pin is not None and summary["dpos_final"] != pin:
        failures.append(f"D_pos {summary['dpos_final']} != pin {pin}")
    return failures


def repetition(args, tracer: Tracer, out: dict):
    from eigenwork import runner
    from eigenwork.config import ExperimentConfig

    archive = Path(args.archive)
    data = dict(WORKLOADS[args.workload], outdir=str(archive))
    if args.L is not None:
        data["L"] = args.L
    config = ExperimentConfig.from_dict(data)
    if args.mode == "repetition":
        shutil.rmtree(archive, ignore_errors=True)
        t0 = time.perf_counter()
        runner.run(config)
        out["run_s"] = time.perf_counter() - t0
        loop = "optimizer.optimize" if data["mode"] == "optimize" else "propagate.evolve"
        out["steps"] = round(config.duration / config.dt)
        out["steps_per_s"] = out["steps"] / _first(tracer, loop)
    else:
        runner.prepare(config)
    out["setup_s"] = _first(tracer, "runner.prepare")
    if args.mode == "setup":
        return
    archive_bytes = sum(f.stat().st_size for f in archive.iterdir())
    out["replay_s"], deviations = [], []
    while True:
        t0 = time.perf_counter()
        deviations.append(runner.replay(archive)["max_w_deviation"])
        out["replay_s"].append(time.perf_counter() - t0)
        if time.perf_counter() - STARTED + out["replay_s"][-1] > args.budget:
            break
    summary = json.loads((archive / "run.json").read_text())
    pin = pin_for(data, json.loads(Path(args.baselines).read_text()))
    out.update(pin=pin, dpos_final=summary["dpos_final"], replay_deviation=max(deviations))
    out["failures"] = check(pin, archive, summary, max(deviations))
    if args.trace:
        out["layers"] = layer_metrics(tracer, archive_bytes, summary["shell"]["size"])
        out["spans"] = tracer.summary()
        out["largest_self_layer"] = max(out["spans"], key=lambda n: out["spans"][n]["self_s"])
        prepare = tracer.first("runner.prepare")
        out["setup_spans"] = [[s[NAME], s[END] - s[START]]
                              for s in tracer.children(prepare)]


def _first(tracer: Tracer, name: str) -> float:
    span = tracer.spans[tracer.first(name)]
    return span[END] - span[START]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", choices=("repetition", "replay", "setup"),
                        default="repetition")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds from the process start that more replays may fill")
    parser.add_argument("--archive", required=True, help="run directory to write or replay")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--L", type=int, default=None)
    parser.add_argument("--baselines", default=str(ROOT / "tests" / "baselines.json"))
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from eigenwork.config import ConfigError
    from eigenwork.sector import NumericalConsistencyError

    tracer = Tracer()
    install(tracer, args.trace)
    out = {"mode": args.mode, "failures": []}
    try:
        repetition(args, tracer, out)
    except (ConfigError, NumericalConsistencyError) as exc:
        out["failures"].append(f"{type(exc).__name__}: {exc}")
    finally:
        tracer.restore()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
