"""eigenwork benchmark: run, set-up and replay timings on fixed workloads.

    python3 bench/run.py --workload optimize_local --seed 1 --seconds 60 --trace 0

Each repetition runs in a fresh process (``worker.py``), one at a time.

``--trace 0`` runs one repetition (run, then one replay), then as many more
as the rest of ``--seconds`` holds, each sharing that rest equally and filling
its share with more replays. If no second repetition fits, one process
replays the archive in the time left instead. Set-up alone, in fresh
processes, fills what is left, and room for three of those is kept. It reports the end-to-end metrics as medians,
and ends within ``--seconds`` unless one repetition alone takes longer.

``--trace 1`` runs one traced and one untraced repetition and reports the
per-layer metrics of the traced one; the ratio of their wall times is the
tracing overhead.

The workloads draw no random input: the seed is recorded, and the same seed
gives the same inputs. The last stdout line is the result object; the line
before it holds the environment and per-repetition details, which are also
written to ``.bench_runs/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import ROOT, WORKLOADS

BENCH = Path(__file__).resolve().parent
HARD_LIMIT_S = 170.0      # a run must end within 180 s, set-up included
MIN_SETUPS = 3            # set-up-only processes a run keeps room for


def with_units(values: dict, section: str) -> dict:
    """Every metric BENCHMARK.json declares in ``section``, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def environment(blas_threads: int, blas_source: str) -> dict:
    import numpy
    import scipy

    def openblas(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]

    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "numpy_openblas": openblas(numpy), "scipy_openblas": openblas(scipy),
           "blas_threads": blas_threads, "blas_threads_source": blas_source,
           "git_commit": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        env["git_commit"] = git("rev-parse", "HEAD")
        env["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return env


def blas_threads() -> tuple[int, str]:
    """OPENBLAS_NUM_THREADS if set, else OpenBLAS's default of nproc; never above nproc."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if requested.isdigit() and int(requested) > 0:
        return min(int(requested), nproc), "OPENBLAS_NUM_THREADS"
    return nproc, "default nproc"


class Runner:
    """Spawns worker processes one at a time against a hard deadline."""

    def __init__(self, args, threads: int, archive: Path):
        self.args = args
        self.archive = archive
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        self.records: list[dict] = []

    def spawn(self, mode: str, trace: int, budget: float = 0.0) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.args.workload,
               "--mode", mode, "--trace", str(trace), "--archive", str(self.archive),
               "--budget", f"{budget:.3f}", "--baselines", self.args.baselines]
        if self.args.L is not None:
            cmd += ["--L", str(self.args.L)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                                  timeout=max(1.0, self.deadline - t0))
            lines = proc.stdout.splitlines()
            record = json.loads(lines[-1]) if proc.returncode == 0 and lines else {
                "mode": mode, "failures": [f"worker exited {proc.returncode}: "
                                           f"{proc.stderr.strip()[-2000:]}"]}
        except subprocess.TimeoutExpired:
            record = {"mode": mode, "failures": ["worker timed out"]}
        record["process_s"] = time.perf_counter() - t0
        self.records.append(record)
        return record

    def fits(self, seconds: float) -> bool:
        return time.perf_counter() + seconds < self.deadline


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics: medians over the run's samples.

    Every replay runs warm, after a ``prepare`` in the same process, and every
    ``setup_s`` sample is the first ``prepare`` of a fresh process, so no
    median mixes the two. Measuring stops at the first failure.
    """
    end = time.perf_counter() + seconds

    def ok() -> bool:
        return not runner.records[-1]["failures"]

    first = runner.spawn("repetition", 0)
    if first.get("replay_s"):
        cost = first["process_s"]
        setup = cost - first["run_s"] - sum(first["replay_s"]) + first["setup_s"]
        until = end - MIN_SETUPS * setup      # kept for set-up-only processes
        more = int((until - time.perf_counter()) // cost) if ok() else 0
        for left in range(more, 0, -1):
            if not (ok() and runner.fits(cost)):
                break
            runner.spawn("repetition", 0, budget=(until - time.perf_counter()) / left)
        replay = setup + first["replay_s"][0]
        if not more and ok() and time.perf_counter() + replay <= until and runner.fits(replay):
            runner.spawn("replay", 0, budget=until - time.perf_counter())
        while ok() and time.perf_counter() + setup <= end and runner.fits(setup):
            setup = runner.spawn("setup", 0)["process_s"]
    reps = [r for r in runner.records if "run_s" in r and r.get("replay_s")]
    if not reps:
        return {}
    metrics = {name: statistics.median(r[name] for r in reps)
               for name in ("run_s", "steps_per_s", "peak_rss_mb")}
    metrics["replay_s"] = statistics.median(x for r in runner.records
                                            for x in r.get("replay_s", ()))
    metrics["setup_s"] = statistics.median(r["setup_s"] for r in runner.records
                                           if "setup_s" in r)
    return with_units(metrics, "end_to_end")


def measure_layers(runner: Runner) -> dict:
    """Per-layer metrics of one traced repetition, plus the tracing overhead."""
    traced = runner.spawn("repetition", 1)
    plain = runner.spawn("repetition", 0)
    if "layers" not in traced or not plain.get("replay_s"):
        return {}
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = ((traced["run_s"] + traced["replay_s"][0])
                                      / (plain["run_s"] + plain["replay_s"][0]))
    return with_units(layers, "per_layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eigenwork benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--L", type=int, default=None,
                        help="override the chain length (smoke tests)")
    parser.add_argument("--baselines", default=str(ROOT / "tests" / "baselines.json"),
                        help="D_pos pins (default: the test suite's baselines)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eigenwork" / "__init__.py").is_file():
        print(f"error: no eigenwork sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    threads, source = blas_threads()
    out_dir = ROOT / ".bench_runs"
    # Relative to the checkout root, so that the archive's bytes do not
    # depend on where the checkout lives.
    archive = Path(".bench_runs") / f"archive-{args.workload}"
    runner = Runner(args, threads, archive)
    try:
        metrics = measure_layers(runner) if args.trace else measure(runner, args.seconds)
    finally:
        shutil.rmtree(ROOT / archive, ignore_errors=True)
    failed = sum(1 for r in runner.records if r["failures"])
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "L": args.L,
              "environment": environment(threads, source), "workers": runner.records}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(detail))
    if not metrics:
        print("error: no repetition completed, so nothing was measured", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(runner.records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
