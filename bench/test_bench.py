"""Smoke test of the benchmark itself, on every workload shape at L=8.

    python3 -m pytest -q bench/test_bench.py

Runs ``run.py`` end to end in subprocesses (about a minute on 2 cores).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402
from worker import WORKLOADS, install  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--L", "8", *extra],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_computed_counts_repeat_exactly():
    computed = [m["name"] for m in SPEC["per_layer"]
                if m["unit"] != "s" and m["name"] != "trace.overhead_ratio"]
    first, second = (bench("optimize_local", 1)["metrics"] for _ in range(2))
    assert {n: first[n] for n in computed} == {n: second[n] for n in computed}


def test_wrong_pin_counts_as_failure(tmp_path):
    pins = json.loads((ROOT / "tests" / "baselines.json").read_text())
    pins["integrable_L8_k4"] += 1
    wrong = tmp_path / "baselines.json"
    wrong.write_text(json.dumps(pins))
    result = bench("optimize_local", 0, "--baselines", str(wrong))
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    assert result["metrics"]["run_s"]["value"] > 0


def test_tracing_restores_the_originals():
    from eigenwork import observables, optimizer, propagate, runner
    from eigenwork.operators import OperatorStack, SymmetrizedOperator
    from eigenwork.propagate import ControlProtocol

    owners = (observables, optimizer, propagate, runner, OperatorStack,
              SymmetrizedOperator, ControlProtocol)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    install(tracer, 1)
    assert runner.prepare is not before[3]["prepare"]
    assert isinstance(vars(ControlProtocol)["load"], classmethod)
    tracer.restore()
    for owner, attrs in zip(owners, before):
        assert all(vars(owner)[name] is value for name, value in attrs.items())


def test_replay_process_reuses_the_archive(tmp_path):
    def worker(mode):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", "quench_L14",
             "--mode", mode, "--L", "8", "--archive", str(tmp_path / "archive")],
            capture_output=True, text=True, timeout=180, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    repetition, replay = worker("repetition"), worker("replay")
    assert not repetition["failures"] and not replay["failures"]
    assert "run_s" not in replay and len(replay["replay_s"]) == 1
    assert replay["setup_s"] > 0 and replay["replay_deviation"] <= 1e-9
