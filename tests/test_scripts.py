"""The experiment and figure scripts run end to end at L=8."""

import csv
import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eigenwork import cli
from eigenwork.observables import FIG4_HEADER

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fig3_dt_check_then_threshold_sweep(tmp_path):
    out = tmp_path / "fig3"
    run_script("run_fig3_scaling.py", "--L-list", "8", "--dt-check",
               "--outdir", str(out))
    report = json.loads((out / "convergence.json").read_text())
    assert report["L"] == 8 and set(report["d_pos"]) == {"0.002", "0.001"}
    assert 0.0 <= report["max_final_w_shift"] < 1.0

    # the README's glob: the trailing slash keeps fig3_scaling.csv and sweep.json out
    runs = sorted(glob.glob(os.path.join(out, "local", "*", "")))
    assert len(runs) == 2
    table = tmp_path / "thresholds.csv"
    assert cli.main(["sweep-threshold", "--runs", *runs, "--eps", "0.10,0.15",
                     "-o", str(table)]) == 0
    with open(table) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    sweep = {r["run_dir"].rstrip("/"): r["d_pos"]
             for r in json.loads((out / "local" / "sweep.json").read_text())}
    recounted = {r["run"].rstrip("/"): int(r["d_pos_final"])
                 for r in rows if float(r["epsilon"]) == 0.15}
    assert recounted == sweep  # the sweep itself counted at eps = 0.15


@pytest.mark.parametrize("script, args, table, header", [
    ("run_fig2_dpos_vs_time.py", ["--L", "8", "--k", "2"],
     "fig2_dpos_vs_t.csv", "label,t,d_pos,shell_size"),
    ("run_fig4_ee_vs_work.py", ["--L", "8", "--k-local", "2"],
     "fig4_deltaS_vs_w.csv", f"label,{FIG4_HEADER}"),
])
def test_figure_script_writes_its_table(tmp_path, script, args, table, header):
    run_script(script, *args, "--outdir", str(tmp_path))
    lines = (tmp_path / table).read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1
    assert all(len(ln.split(",")) == len(header.split(",")) for ln in lines[1:])
