"""Config schema, run archiving, replay, sweeps, and the CLI surface."""

import json
from pathlib import Path

import numpy as np
import pytest

from eigenwork import runner
from eigenwork.cli import main
from eigenwork.config import ConfigError, ExperimentConfig


def cfg_dict(**overrides):
    base = {"preset": "integrable", "L": 8, "mode": "optimize", "k": 2,
            "outdir": "unused"}
    base.update(overrides)
    return base


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg_dict(tempature=1.0))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg_dict(reward={"sharpness": 30}))


def test_mode_requirements():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg_dict(k=None))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg_dict(mode="discrete", actions=[]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg_dict(mode="discrete", actions=[0, 7]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg_dict(mode="sweep"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg_dict(L=9))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg_dict(L=16))  # needs long_run
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg_dict(shell_lo=-0.1, shell_hi=-0.25))


def test_defaults_follow_mode():
    opt = ExperimentConfig.from_dict(cfg_dict())
    assert (opt.dt, opt.duration, opt.kick_duration) == (0.002, 1.0, 0.001)
    assert opt.dpos_epsilon == opt.reward.epsilon == 0.15

    quench = ExperimentConfig.from_dict(
        {"preset": "nonintegrable", "L": 8, "mode": "quench"})
    assert (quench.dt, quench.duration, quench.kick_duration) == (0.02, 10.0, 0.0)
    assert (quench.quench_h, quench.quench_g) == (0.0, 1.5)

    disc = ExperimentConfig.from_dict(
        {"preset": "integrable", "L": 8, "mode": "discrete",
         "actions": [0] * 600})
    assert disc.dt == 0.04
    assert disc.duration == pytest.approx(24.0)  # 600 steps of 0.04


def test_preset_and_explicit_fields():
    cfg = ExperimentConfig.from_dict(cfg_dict())
    assert (cfg.h, cfg.g) == (0.0, 0.5)
    custom = ExperimentConfig.from_dict(cfg_dict(preset=None, h=0.3, g=0.7))
    assert custom.preset_name() == "custom"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"L": 8, "mode": "quench"})


def test_config_snapshot_roundtrip(tmp_path):
    cfg = ExperimentConfig.from_dict(cfg_dict(dpos_epsilon=0.125))
    path = tmp_path / "config.json"
    cfg.save(path)
    again = ExperimentConfig.from_file(path)
    assert again.to_dict() == cfg.to_dict()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("runs") / "opt_int_L8_k2"
    cfg = ExperimentConfig.from_dict(cfg_dict(outdir=str(outdir)))
    return runner.run(cfg)


def test_run_archive_layout(small_run):
    for name in ("config.json", "basis_manifest.txt", "sector_manifest.txt",
                 "spectrum.csv", "protocol.txt", "timeseries.csv",
                 "per_state.csv", "run.json"):
        assert (small_run / name).exists(), name
    summary = json.loads((small_run / "run.json").read_text())
    assert summary["format"] == "eigenwork-run-v1"
    assert summary["shell"]["size"] == len(summary["shell"]["indices"])


def test_archived_dpos_recomputable_exactly(small_run):
    """per_state.csv reproduces every timeseries D_pos after the text roundtrip."""
    from eigenwork.observables import dpos_from_per_state_csv

    summary = json.loads((small_run / "run.json").read_text())
    counts = dpos_from_per_state_csv((small_run / "per_state.csv").read_text(),
                                     summary["dpos_epsilon"])
    for line in (small_run / "timeseries.csv").read_text().splitlines()[1:]:
        _, t, _, _, dp = line.split(",")
        assert counts[float(t)] == int(dp)


def test_replay_matches_archive(small_run):
    result = runner.replay(small_run)
    assert result["within_tolerance"]
    assert result["max_w_deviation"] <= 1e-9


def test_config_to_output_determinism(tmp_path):
    dirs = []
    for name in ("a", "b"):
        cfg = ExperimentConfig.from_dict(cfg_dict(outdir=str(tmp_path / name)))
        dirs.append(runner.run(cfg))
    for fname in ("timeseries.csv", "per_state.csv", "protocol.txt",
                  "spectrum.csv", "basis_manifest.txt"):
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()


def test_quench_under_own_hamiltonian_extracts_nothing(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "preset": "integrable", "L": 8, "mode": "quench",
        "quench_h": 0.0, "quench_g": 0.5, "duration": 2.0,
        "outdir": str(tmp_path / "self_quench")})
    run_dir = runner.run(cfg)
    per_state = (run_dir / "per_state.csv").read_text()
    w_values = [float(ln.split(",")[3]) for ln in per_state.splitlines()[1:]]
    assert max(abs(w) for w in w_values) < 1e-10


def test_discrete_matching_action_zero_work(tmp_path):
    """Action 0 is the bare ZZ chain, which matches H(0) at (h,g) = (0,0)."""
    cfg = ExperimentConfig.from_dict({
        "h": 0.0, "g": 0.0, "L": 8, "mode": "discrete",
        "actions": [0] * 25, "shell_lo": -2.0, "shell_hi": 2.0,
        "outdir": str(tmp_path / "disc_zero")})
    run_dir = runner.run(cfg)
    per_state = (run_dir / "per_state.csv").read_text()
    w_values = [float(ln.split(",")[3]) for ln in per_state.splitlines()[1:]]
    assert max(abs(w) for w in w_values) < 1e-10


def test_discrete_replay_determinism(tmp_path, rng):
    actions = [int(a) for a in rng.integers(0, 7, size=50)]
    texts = []
    for name in ("x", "y"):
        cfg = ExperimentConfig.from_dict({
            "preset": "integrable", "L": 8, "mode": "discrete",
            "actions": actions, "outdir": str(tmp_path / name)})
        run_dir = runner.run(cfg)
        texts.append((run_dir / "timeseries.csv").read_text())
    assert texts[0] == texts[1]


def test_threshold_sweep_recomputes_without_simulation(small_run, tmp_path):
    out = tmp_path / "thresholds.csv"
    rows = runner.run_threshold_sweep([small_run], [0.0, 0.10, 0.125, 0.15, 0.175],
                                      out_path=out)
    counts = [r["d_pos_final"] for r in rows]
    assert counts == sorted(counts, reverse=True)
    flagged = [r for r in rows if r["exceeds_shell_width"]]
    assert [r["epsilon"] for r in flagged] == [0.175]
    assert out.exists()


def test_scaling_sweep_isolates_failures(tmp_path):
    """L=4 has an empty shell for these presets; the sweep must continue."""
    template = {"mode": "optimize", "k": 2, "reward": {"epsilon": 0.15}}
    rows = runner.run_scaling_sweep(template, [4, 8], "fixed",
                                    presets=("integrable",),
                                    outdir=str(tmp_path / "sweep"))
    by_L = {r["L"]: r for r in rows}
    assert by_L[4]["status"] == "failed"
    assert by_L[8]["status"] == "ok"
    table = (tmp_path / "sweep" / "fig3_scaling.csv").read_text()
    assert len(table.strip().splitlines()) == 2  # header + the one good row


def test_cli_basis_and_diag(tmp_path):
    manifest = tmp_path / "ops.txt"
    sector = tmp_path / "sector.txt"
    assert main(["basis", "--L", "6", "--k", "2", "-o", str(manifest),
                 "--sector", str(sector)]) == 0
    assert "count 9" in manifest.read_text()
    assert "dim 13" in sector.read_text()

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict(outdir=str(tmp_path / "run"))))
    spectrum = tmp_path / "spectrum.csv"
    assert main(["diag", "-c", str(cfg_path), "-o", str(spectrum)]) == 0
    assert spectrum.read_text().startswith("alpha,E,E_over_L,in_shell")


def test_cli_run_replay_report(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    outdir = tmp_path / "run"
    cfg_path.write_text(json.dumps(cfg_dict(outdir=str(outdir))))
    assert main(["optimize", "-c", str(cfg_path)]) == 0
    assert main(["replay", "--run", str(outdir)]) == 0
    assert main(["sweep-threshold", "--runs", str(outdir),
                 "--eps", "0.10,0.15", "-o", str(tmp_path / "t.csv")]) == 0
    assert main(["report", "--runs", str(outdir),
                 "-o", str(tmp_path / "report")]) == 0
    report = (tmp_path / "report" / "fig4_deltaS_vs_w.csv").read_text()
    assert report.splitlines()[0].startswith("label,alpha,E,w,S0,St")
    fig2 = (tmp_path / "report" / "fig2_dpos_vs_t.csv").read_text()
    assert "integrable_optimize_k2_L8" in fig2
    # the saturation reference column is the shell cardinality on every row
    summary = json.loads((outdir / "run.json").read_text())
    sizes = {int(ln.split(",")[3]) for ln in fig2.splitlines()[1:]}
    assert sizes == {summary["shell"]["size"]}


def test_cli_quench_and_discrete(tmp_path):
    quench_cfg = tmp_path / "quench.json"
    quench_cfg.write_text(json.dumps({
        "preset": "nonintegrable", "L": 8, "mode": "quench", "duration": 2.0,
        "outdir": str(tmp_path / "quench_run")}))
    assert main(["quench", "-c", str(quench_cfg)]) == 0

    disc_cfg = tmp_path / "disc.json"
    disc_cfg.write_text(json.dumps({
        "preset": "integrable", "L": 8, "mode": "discrete", "actions": [1],
        "outdir": str(tmp_path / "disc_run")}))
    assert main(["discrete", "-c", str(disc_cfg), "--actions", "2,4,2,0"]) == 0
    saved = json.loads((tmp_path / "disc_run" / "config.json").read_text())
    assert saved["actions"] == [2, 4, 2, 0]


def test_cli_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"L": 8, "mode": "optimize"}))
    assert main(["optimize", "-c", str(bad_cfg)]) == 2

    # mode mismatch between config and subcommand is a config error
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict(outdir=str(tmp_path / "r"))))
    assert main(["quench", "-c", str(cfg_path)]) == 2


def test_cli_replay_detects_tampering(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    outdir = tmp_path / "run"
    cfg_path.write_text(json.dumps(cfg_dict(outdir=str(outdir))))
    assert main(["optimize", "-c", str(cfg_path)]) == 0
    per_state = outdir / "per_state.csv"
    lines = per_state.read_text().splitlines()
    alpha, E, t, w, S = lines[-1].split(",")
    lines[-1] = f"{alpha},{E},{t},{float(w) + 0.5},{S}"
    per_state.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--run", str(outdir)]) == 3


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_replay_rejects_non_finite_protocol(tmp_path, bad):
    """A non-finite coefficient in an archived protocol is a numerical failure."""
    cfg_path = tmp_path / "cfg.json"
    outdir = tmp_path / "run"
    cfg_path.write_text(json.dumps(cfg_dict(outdir=str(outdir), duration=0.02)))
    assert main(["optimize", "-c", str(cfg_path)]) == 0
    protocol = outdir / "protocol.txt"
    lines = protocol.read_text().splitlines()
    row = lines[-3].split()
    row[0] = bad
    lines[-3] = " ".join(row)
    protocol.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--run", str(outdir)]) == 3
