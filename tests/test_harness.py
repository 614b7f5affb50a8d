"""Config schema, run archiving, replay, sweeps, and the CLI surface."""

import argparse
import csv
import dataclasses
import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from eigenwork import model, optimizer, propagate, runner
from eigenwork.cli import build_parser, main
from eigenwork.config import ConfigError, ExperimentConfig
from eigenwork.model import EnergyShell
from eigenwork.observables import d_pos, work_density
from eigenwork.operators import sum_x
from eigenwork.propagate import ControlProtocol, evolve, kick_unitary


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
    assert opt.n_steps == 500

    quench = ExperimentConfig.from_dict(
        {"preset": "nonintegrable", "L": 8, "mode": "quench"})
    assert (quench.dt, quench.duration, quench.kick_duration) == (0.02, 10.0, 0.0)
    assert (quench.quench_h, quench.quench_g) == (0.0, 1.5)
    assert quench.n_steps == 500

    for cfg in (opt, quench):
        grid = cfg.sample_steps
        assert grid[0] == 0 and grid[-1] == cfg.n_steps
        assert np.all(np.diff(grid[:-1]) == cfg.sample_every)
        assert 0 < grid[-1] - grid[-2] <= cfg.sample_every


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
    summary, traj = runner.load_run(small_run)
    assert len(traj.dpos) == len(traj.w_samples) > 1
    for w, dp in zip(traj.w_samples, traj.dpos):
        assert d_pos(w, summary["dpos_epsilon"]) == dp


ROUNDTRIP_CONFIGS = {
    "optimize": cfg_dict(),
    "quench": {"preset": "nonintegrable", "L": 8, "mode": "quench", "duration": 2.0},
}


@pytest.fixture(scope="module", params=sorted(ROUNDTRIP_CONFIGS))
def roundtrip_run(request, tmp_path_factory):
    """One archive per ROUNDTRIP_CONFIGS mode."""
    data = dict(ROUNDTRIP_CONFIGS[request.param],
                outdir=str(tmp_path_factory.mktemp("roundtrip") / request.param))
    return request.param, runner.run(ExperimentConfig.from_dict(data))


def test_load_run_reserializes_archive_bytes(roundtrip_run):
    """The one archive reader loses nothing the writers put in the CSVs."""
    _, run_dir = roundtrip_run
    summary, traj = runner.load_run(run_dir)
    assert traj.timeseries_csv().encode() == (run_dir / "timeseries.csv").read_bytes()
    assert traj.per_state_csv().encode() == (run_dir / "per_state.csv").read_bytes()
    assert traj.ee.shape == (summary["shell"]["size"], 2) and len(traj.ee) > 0
    assert float(np.mean(traj.ee[:, 0])) == summary["shell_mean_initial_ee"]
    assert float(np.std(traj.ee[:, 0])) == summary["initial_ee_std"]


FROZEN_ARCHIVES = {
    "optimize": {
        "basis_manifest.txt":
            "b62cf95327b315fd4b54ec700c48b7e7842d0f51abfd1d4f964aac4c9a9a648e",
        "per_state.csv":
            "55d0170f920a93285985cd2c6dd8008831570a7cf42be7f55a525d9616c319cd",
        "protocol.txt":
            "7f6a1e87b2841f851c7ce60f8008d97c04d913e311b2b0f08a6a5246e988ad45",
        "run.json":
            "984a5bd15b3d7f5cf90e8f8d1b54e7f19d5d6bb5a8394c2a07003a8ba294b488",
        "sector_manifest.txt":
            "03847f28023d523f4c017f44fe1305616d605ad3473679f2269d749f5c137a0d",
        "spectrum.csv":
            "8aa8a5fe2f7e3922dcb9af42cad60d3bee4a25c370229c2f22e522ef697fe000",
        "timeseries.csv":
            "8c8db4d11714d07cf01e39464e4bf6d3dde8db9730b5991a62976c530607a7e4",
    },
    "quench": {
        "basis_manifest.txt":
            "5ea44b0e6416ade37810f750a363a728b578533a8340b51f2a1a54e3918d7d72",
        "per_state.csv":
            "3e4af12937d2ec4c16de97eb9c284d2822c410a6e71f1f14077221e8142e5759",
        "protocol.txt":
            "19e328cbb3c4fc81ac29c813053dfa9832599db9d91dfcd76bf6b11ee00ae693",
        "run.json":
            "f6e75d98cc4c181468143eb17f0bccf7bb0bd92aa8e761e2d6abb07221d5b920",
        "sector_manifest.txt":
            "03847f28023d523f4c017f44fe1305616d605ad3473679f2269d749f5c137a0d",
        "spectrum.csv":
            "33b9cb25dcdf5ec062568eb5c6d6fa2fc8c2e0b1d2084be231d69d0b0cc7660c",
        "timeseries.csv":
            "726d8ccf1ce05934f10b323fd6a54b3a33291f0f75f530be0f816a7b31b5c3fa",
    },
}


def test_archive_bytes_frozen(roundtrip_run):
    """sha256 of every archive file but config.json, which holds the outdir.

    Taken with numpy 2.4.6 on scipy-openblas 0.3.31; at L=8 these bytes are
    the same under 1 and 2 OpenBLAS threads. A refactor must leave them
    alone. A deliberate change of the arithmetic (as the Schmidt-block
    entropies and the real, gauge-fixed eigensolve made, and the optimizer's
    move to the one sparse real target and kick generator made for the
    optimize digests, and the held row's spin-flip parity blocks for the
    quench digests; ROADMAP item 6's Chebyshev step will too) updates the
    digests, with the evidence for it in CHANGES.md.
    """
    mode, run_dir = roundtrip_run
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in run_dir.iterdir() if path.name != "config.json"}
    assert digests == FROZEN_ARCHIVES[mode]


def test_load_run_rejects_non_archives(tmp_path, small_run):
    not_a_dir = tmp_path / "fig3_scaling.csv"
    not_a_dir.write_text("L,k,preset,d_pos_final,shell_size\n")
    no_csv = tmp_path / "partial"
    no_csv.mkdir()
    (no_csv / "run.json").write_bytes((small_run / "run.json").read_bytes())
    for path in (not_a_dir, tmp_path / "missing", no_csv):
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            runner.load_run(path)


def test_replay_matches_archive(small_run):
    result = runner.replay(small_run)
    assert result["within_tolerance"]
    assert result["max_w_deviation"] <= 1e-9


ARCHIVED_QUENCH = Path(__file__).parent / "data" / "quench_nonintegrable_L8"
ARCHIVED_OPTIMIZE = Path(__file__).parent / "data" / "optimize_integrable_L8"


@pytest.fixture(scope="module")
def report_set(tmp_path_factory):
    """A sweep's two L=8, k=4 archives and copies of both committed archives:
    four distinct report labels and no special character in any path."""
    root = tmp_path_factory.mktemp("report_set")
    rows = runner.run_scaling_sweep({"mode": "optimize", "duration": 0.1}, [8], "half",
                                    outdir=str(root / "sweep"))
    runs = [Path(r["run_dir"]) for r in rows]
    runs += [Path(shutil.copytree(a, root / a.name)) for a in (ARCHIVED_QUENCH, ARCHIVED_OPTIMIZE)]
    return root, runs


FROZEN_REPORTS = {
    "fig2_dpos_vs_t.csv": "b996ac86add62280bbe544f83eda64290bd774e1ee784229af8e2eb377cc8a1b",
    "fig3_scaling.csv": "eef51389d497051ee94f59e4302be96927d0bf70c5a4809631f1c9ec75467217",
    "fig4_deltaS_vs_w.csv": "989a37d1dbc729c35daebc5b02390bb5a158883727f0b9b2f3eea4132a662389",
    "sweep/fig3_scaling.csv": "440054f9861a953344b697f6001ea296ad66ca74b4c0a8da32bc7888d609f585",
    "thresholds.csv": "d7c106efedd8b245f84569bf6c2f6aaf7ad17346d3f8bd3e2ec2f8445fceb5eb",
}


def test_report_tables_frozen(report_set):
    """sha256 of the report's three tables, the sweep's fig3 and the threshold
    table over ``report_set``, the last with its tmp root replaced. A change of
    how tables are written must leave these bytes alone."""
    root, runs = report_set
    report = runner.write_report(runs, root / "report")
    runner.run_threshold_sweep(runs, [0.1, 0.15, 0.2], out_path=root / "thresholds.csv")
    tables = {name: (report / name).read_bytes() for name in
              ("fig2_dpos_vs_t.csv", "fig3_scaling.csv", "fig4_deltaS_vs_w.csv")}
    tables["sweep/fig3_scaling.csv"] = (root / "sweep" / "fig3_scaling.csv").read_bytes()
    tables["thresholds.csv"] = (root / "thresholds.csv").read_bytes().replace(
        str(root).encode(), b"<root>")
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in tables.items()}
    assert digests == FROZEN_REPORTS


def _read_table(path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(None not in row for row in rows), f"{path} has a row longer than its header"
    return rows


def test_fig3_column_is_the_final_dpos(report_set):
    """fig3's D_pos column, in the report and in the sweep, is run.json's
    dpos_final, D_pos at the run's final time (t=0.1 for the sweep's runs),
    and its header names it so."""
    root, runs = report_set
    report = runner.write_report(runs, root / "report_fig3")
    summaries = [runner.load_summary(run) for run in runs]
    for table, expected in (
            (report / "fig3_scaling.csv", [s for s in summaries if s["mode"] == "optimize"]),
            (root / "sweep" / "fig3_scaling.csv", summaries[:2])):
        rows = _read_table(table)
        assert list(rows[0]) == ["L", "k", "preset", "d_pos_final", "shell_size"], table
        assert [float(row["d_pos_final"]) for row in rows] == \
            [s["dpos_final"] for s in expected], table


def test_report_labels_unique(tmp_path):
    """Four copies of one archive, three in directories named run, get four
    labels, the first collision's the same as when it was the only one."""
    runs = [Path(shutil.copytree(ARCHIVED_OPTIMIZE, tmp_path / n))
            for n in ("first", "a/run", "b/run", "c/run")]
    report = runner.write_report(runs, tmp_path / "report")
    stem = "integrable_optimize_k2_L8"
    labels = [stem, f"{stem}_run", f"{stem}_run_2", f"{stem}_run_3"]
    summary, traj = runner.load_run(ARCHIVED_OPTIMIZE)
    for table, per_run in (("fig2_dpos_vs_t.csv", len(traj.times)),
                           ("fig4_deltaS_vs_w.csv", summary["shell"]["size"])):
        assert [row["label"] for row in _read_table(report / table)] == \
            [label for label in labels for _ in range(per_run)], table


def test_text_cells_quoted(tmp_path):
    """A run directory named a,b reads back as one cell of the threshold table
    and of a report label taken from it."""
    runs = [Path(shutil.copytree(ARCHIVED_OPTIMIZE, tmp_path / n)) for n in ("x", "a,b")]
    report = runner.write_report(runs, tmp_path / "report")
    labels = {row["label"] for row in _read_table(report / "fig4_deltaS_vs_w.csv")}
    assert labels == {"integrable_optimize_k2_L8", "integrable_optimize_k2_L8_a,b"}

    runner.run_threshold_sweep(runs[1:], [0.15], out_path=tmp_path / "thresholds.csv")
    (row,) = _read_table(tmp_path / "thresholds.csv")
    assert (row["run"], row["preset"], row["L"]) == (str(runs[1]), "integrable", "8")


def test_kick_matrix_built_only_for_a_kick(monkeypatch):
    """evolve builds the sum X kick generator, at the stack's L, only for a
    kicked protocol: a quench never calls sum_x, and each kicked evolve, an
    optimize run's and its replay's, builds it once."""
    built = []
    monkeypatch.setattr(propagate, "sum_x", lambda L: built.append(L) or sum_x(L))
    quench = runner.prepare(ExperimentConfig.from_dict(ROUNDTRIP_CONFIGS["quench"]))
    assert quench.config.kick_duration == 0.0
    runner._replay_trajectory(quench, runner._constant_gamma_protocol(quench))
    assert built == []

    cfg = ExperimentConfig.from_dict(cfg_dict(duration=0.02))
    ctx = runner.prepare(cfg)
    protocol, traj, final = optimizer.optimize(cfg, ctx.H_target, ctx.shell, ctx.stack)
    assert protocol.kick_duration == cfg.kick_duration > 0 and built == [cfg.L]
    assert np.array_equal(evolve(ctx.shell.states, protocol, ctx.stack), final)
    assert built == [cfg.L, cfg.L]

    # An unkicked optimize config is refused when it is built, before any run.
    with pytest.raises(ConfigError, match="kick_duration"):
        ExperimentConfig.from_dict(cfg_dict(kick_duration=0.0))
    cfg.kick_duration = 0.0

    # From states already off the eigenbasis, an unkicked optimize runs with no
    # generator built, and its protocol replays through evolve within 1e-9.
    kicked = kick_unitary(sum_x(cfg.L).sector_matrix(ctx.basis), 0.001, ctx.shell.states)
    shell = EnergyShell(ctx.shell.indices, ctx.shell.energies, kicked)
    protocol, traj, _ = optimizer.optimize(cfg, ctx.H_target, shell, ctx.stack)
    assert protocol.kick_duration == 0.0 and protocol.gamma.any()
    final = evolve(shell.states, protocol, ctx.stack)
    assert built == [cfg.L, cfg.L]
    w = work_density(final, shell.energies, ctx.H_target, cfg.L)
    assert np.abs(w - traj.final_w()).max() <= 1e-9


def test_archived_quench_still_replays():
    """A nonintegrable L=8 quench archived by the stepping loop that applied a
    held row's unitary once per step still reads, and replays within 1e-9."""
    summary, traj = runner.load_run(ARCHIVED_QUENCH)
    assert (summary["format"], summary["mode"], summary["L"]) == ("eigenwork-run-v1", "quench", 8)
    assert traj.steps == list(range(0, 501, 10))
    assert traj.dpos == [0] * 51
    result = runner.replay(ARCHIVED_QUENCH)
    assert result["within_tolerance"] and result["max_w_deviation"] <= 1e-9
    assert result["n_states"] == summary["shell"]["size"] == 2


def test_archived_optimize_still_replays():
    """An integrable L=8, k=2 optimize run archived while the controller applied
    a dense complex target and kick generator still reads, and replays within 1e-9."""
    summary, traj = runner.load_run(ARCHIVED_OPTIMIZE)
    assert (summary["format"], summary["mode"], summary["L"], summary["k"]) == (
        "eigenwork-run-v1", "optimize", 8, 2)
    assert traj.steps == list(range(0, 501, 10)) and traj.dpos[-1] == 1
    result = runner.replay(ARCHIVED_OPTIMIZE)
    assert result["within_tolerance"] and result["max_w_deviation"] <= 1e-9
    assert result["n_states"] == summary["shell"]["size"] == 3


@pytest.mark.parametrize("archive", [ARCHIVED_QUENCH, ARCHIVED_OPTIMIZE], ids=lambda p: p.name)
def test_committed_archives_keep_the_legacy_key(archive):
    """Each committed v1 config.json holds the removed discrete mode's
    "actions": [], which config reading drops; the archive replays from the
    CLI and keeps every byte."""
    files = {path.name: path.read_bytes() for path in archive.iterdir()}
    assert json.loads(files["config.json"])["actions"] == []
    assert main(["replay", "--run", str(archive)]) == 0
    assert {path.name: path.read_bytes() for path in archive.iterdir()} == files


SHELL_READERS = {
    "replay": lambda run, tmp: ["replay", "--run", run],
    "report": lambda run, tmp: ["report", "--runs", run, "-o", str(tmp / "report")],
    "sweep-threshold": lambda run, tmp: ["sweep-threshold", "--runs", run, "--eps", "0.15",
                                         "-o", str(tmp / "thresholds.csv")],
}


@pytest.mark.parametrize("command", sorted(SHELL_READERS))
def test_cli_rejects_a_run_json_without_its_readers_keys(tmp_path, command):
    """A tagged run.json holding only format and shell is a config error for
    each reader (exit 2), not a KeyError (exit 1) or a replay that passes, and
    the report writes nothing."""
    run = Path(shutil.copytree(ARCHIVED_OPTIMIZE, tmp_path / "bare"))
    summary = json.loads((run / "run.json").read_text())
    (run / "run.json").write_text(json.dumps({key: summary[key] for key in ("format", "shell")}))
    with pytest.raises(ConfigError, match="lacks L, mode, k, preset, dpos_epsilon, dpos_final$"):
        runner.load_summary(run)
    assert main(SHELL_READERS[command](str(run), tmp_path)) == 2
    assert not (tmp_path / "thresholds.csv").exists() and not (tmp_path / "report").exists()

    del summary["shell"]["size"]
    (run / "run.json").write_text(json.dumps(summary))
    with pytest.raises(ConfigError, match="lacks shell.size$"):
        runner.load_summary(run)


@pytest.mark.parametrize("command", sorted(SHELL_READERS))
def test_cli_rejects_a_per_state_table_of_another_shell(tmp_path, command):
    """The optimize archive (shell [8, 9, 10]) holding the quench archive's CSVs
    (states [11, 12]) is a config error for each reader, not a D_pos or a fig4
    of the wrong states."""
    run = Path(shutil.copytree(ARCHIVED_OPTIMIZE, tmp_path / "mixed"))
    for name in ("per_state.csv", "timeseries.csv"):
        shutil.copy(ARCHIVED_QUENCH / name, run / name)
    assert runner.load_summary(run)["shell"]["indices"] == [8, 9, 10]
    with pytest.raises(ConfigError, match=r"states \[11, 12\]"):
        runner.load_run(run)
    assert main(SHELL_READERS[command](str(run), tmp_path)) == 2
    assert not (tmp_path / "thresholds.csv").exists() and not (tmp_path / "report").exists()


DAMAGED_SUMMARIES = {"a_list": lambda summary: [],
                     "shell_only": lambda summary: {"shell": summary["shell"]}}


@pytest.mark.parametrize("command", sorted(SHELL_READERS))
@pytest.mark.parametrize("damage", sorted(DAMAGED_SUMMARIES))
def test_cli_rejects_a_run_json_that_is_no_summary(tmp_path, command, damage):
    """A run.json that is no JSON object, or one without the format tag, is a
    config error for each reader, which writes nothing."""
    run = Path(shutil.copytree(ARCHIVED_OPTIMIZE, tmp_path / "damaged"))
    summary = json.loads((run / "run.json").read_text())
    (run / "run.json").write_text(json.dumps(DAMAGED_SUMMARIES[damage](summary)))
    assert main(SHELL_READERS[command](str(run), tmp_path)) == 2
    assert not (tmp_path / "thresholds.csv").exists() and not (tmp_path / "report").exists()


def test_cli_report_reads_every_archive_before_writing(tmp_path):
    """A readable archive, then a path that is none: exit 2, and no report directory."""
    assert main(["report", "--runs", str(ARCHIVED_OPTIMIZE), str(tmp_path / "missing"),
                 "-o", str(tmp_path / "report")]) == 2
    assert not (tmp_path / "report").exists()


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
    _, traj = runner.load_run(runner.run(cfg))
    assert np.abs(traj.w_samples).max() < 1e-10


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


def test_cli_sweep_size_exits_1_when_a_run_fails(tmp_path):
    """L=4 has an empty shell for the integrable preset: its row is marked
    failed, L=8 still runs, and the command exits 1."""
    cfg = tmp_path / "template.json"
    cfg.write_text(json.dumps({"mode": "optimize", "k": 2, "duration": 0.01}))
    outdir = tmp_path / "sweep"
    assert main(["sweep-size", "-c", str(cfg), "--L-list", "4,8", "--presets", "integrable",
                 "--outdir", str(outdir)]) == 1
    rows = {row["L"]: row for row in json.loads((outdir / "sweep.json").read_text())}
    assert rows[4]["status"] == "failed" and "empty energy shell" in rows[4]["error"]
    assert rows[8]["status"] == "ok"


@pytest.mark.parametrize("field", ["h", "g"])
def test_cli_sweep_size_rejects_template_fields(tmp_path, field):
    """A template's h or g would override every preset while the rows keep the
    preset's name, so sweep-size exits 2 before any run."""
    cfg = tmp_path / "template.json"
    cfg.write_text(json.dumps({"mode": "optimize", "k": 2, field: 0.3}))
    outdir = tmp_path / "sweep"
    assert main(["sweep-size", "-c", str(cfg), "--L-list", "6", "--outdir", str(outdir)]) == 2
    assert not outdir.exists()


def test_cli_sweep_size_builds_every_config_before_any_run(tmp_path):
    """quench_h belongs to mode quench, so every optimize row refuses this
    template: sweep-size exits 2 before any run, not 1 after failing each row."""
    cfg = tmp_path / "template.json"
    cfg.write_text(json.dumps({"mode": "optimize", "k": 2, "duration": 0.01, "quench_h": 0.7}))
    outdir = tmp_path / "sweep"
    assert main(["sweep-size", "-c", str(cfg), "--L-list", "8", "--presets", "integrable",
                 "--outdir", str(outdir)]) == 2
    assert not outdir.exists()


def test_cli_sweep_size_rejects_an_unkicked_optimize_template(tmp_path):
    """Mode optimize needs a kick, so a template with kick_duration 0 exits 2
    before any run and writes nothing."""
    cfg = tmp_path / "template.json"
    cfg.write_text(json.dumps({"mode": "optimize", "k": 2, "duration": 0.01,
                               "kick_duration": 0}))
    outdir = tmp_path / "sweep"
    assert main(["sweep-size", "-c", str(cfg), "--L-list", "4,8", "--presets", "integrable",
                 "--outdir", str(outdir)]) == 2
    assert not outdir.exists()


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


def test_cli_gauge_leaving_a_block_degenerate_exits_3(tmp_path, monkeypatch):
    """A gauge operator that leaves a degenerate block unsplit is a numerical
    failure, never a silent fallback to the solver's basis for the block."""
    # K = the h=0 target itself, constant on each of its blocks (one pair at L=8)
    monkeypatch.setattr(model, "GAUGE_WORDS", ((1.0, "ZZ"), (0.5, "X")))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict(outdir=str(tmp_path / "run"))))
    spectrum = tmp_path / "spectrum.csv"
    assert main(["diag", "-c", str(cfg_path), "-o", str(spectrum)]) == 3
    assert not spectrum.exists()
    assert main(["optimize", "-c", str(cfg_path)]) == 3
    assert not (tmp_path / "run").exists()


LARGE_FIELDS = {
    "diag_L10_1e6": ("diag", {"L": 10, "h": 1e6, "g": 1e6, "mode": "quench"}),
    "diag_L12_1e4": ("diag", {"L": 12, "h": 1e4, "g": 1e4, "mode": "quench"}),
    "quench_L10_1e6": ("quench", {"L": 10, "h": 1e6, "g": 1e6, "mode": "quench",
                                  "duration": 0.2}),
    "optimize_L12_1e4": ("optimize", {"L": 12, "h": 1e4, "g": 1e4, "mode": "optimize",
                                      "k": 4, "duration": 0.02}),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(LARGE_FIELDS))
def test_cli_large_fields_pass_hermiticity_on_rounding(tmp_path, case):
    """Fields of 1e4-1e6 leave rounding asymmetries and expectation residues
    far above 1e-12 and 1e-10 in absolute terms but at a relative 1e-16;
    every check is relative to the matrix's scale, so each run succeeds and
    replays, with no overflow warning from the reward's sigmoid."""
    command, data = LARGE_FIELDS[case]
    outdir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**data, "shell_lo": -1e9, "shell_hi": 1e9,
                                    "outdir": str(outdir)}))
    if command == "diag":
        assert main(["diag", "-c", str(cfg_path), "-o", str(tmp_path / "spectrum.csv")]) == 0
        return
    assert main([command, "-c", str(cfg_path)]) == 0
    result = runner.replay(outdir)
    assert result["within_tolerance"] and result["max_w_deviation"] <= 1e-9


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


def test_cli_quench_and_discrete(tmp_path, capsys):
    """A quench runs from the CLI; the discrete mode is gone. A v1 discrete
    archive (here the committed quench archive with config.json's mode discrete
    and actions [2, 4]) still reads for report and sweep-threshold, which read
    only run.json and the CSVs, but its replay exits 2 and names the removed
    mode, as an optimize config with a non-empty actions list does."""
    quench_cfg = tmp_path / "quench.json"
    quench_cfg.write_text(json.dumps({
        "preset": "nonintegrable", "L": 8, "mode": "quench", "duration": 2.0,
        "outdir": str(tmp_path / "quench_run")}))
    assert main(["quench", "-c", str(quench_cfg)]) == 0
    assert "actions" not in json.loads((tmp_path / "quench_run" / "config.json").read_text())

    disc = Path(shutil.copytree(ARCHIVED_QUENCH, tmp_path / "disc_run"))
    for name, fields in (("config.json", {"mode": "discrete", "actions": [2, 4], "dt": 0.04,
                                          "duration": 0.08, "quench_h": None,
                                          "quench_g": None, "outdir": str(disc)}),
                         ("run.json", {"mode": "discrete"})):
        data = json.loads((disc / name).read_text())
        data.update(fields)
        (disc / name).write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["replay", "--run", str(disc)]) == 2
    assert "mode discrete" in capsys.readouterr().err
    assert main(["report", "--runs", str(disc), "-o", str(tmp_path / "report")]) == 0
    labels = {row["label"] for row in _read_table(tmp_path / "report" / "fig2_dpos_vs_t.csv")}
    assert labels == {"nonintegrable_discrete_L8"}
    assert main(["sweep-threshold", "--runs", str(disc), "--eps", "0.15"]) == 0

    opt_cfg = tmp_path / "opt.json"
    opt_cfg.write_text(json.dumps(cfg_dict(outdir=str(tmp_path / "opt_run"), actions=[1])))
    capsys.readouterr()
    assert main(["optimize", "-c", str(opt_cfg)]) == 2
    assert "mode discrete" in capsys.readouterr().err
    assert not (tmp_path / "opt_run").exists()


README = (Path(__file__).parents[1] / "README.md").read_text()


def test_readme_names_only_real_commands_and_keys():
    """Each ``eigenwork <cmd>`` line of the README's CLI block is a subcommand of
    the parser, and every subcommand has one; each key of its config example and
    optional-key list is an ExperimentConfig field, reward or preset."""
    cli_block = README.split("## CLI", 1)[1].split("```")[1]
    documented = {line.split()[1] for line in cli_block.splitlines()
                  if line.startswith("eigenwork ")}
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)

    example = README.split("```json", 1)[1].split("```", 1)[0]
    optional = README.split("Optional keys and defaults:", 1)[1].split("Presets:", 1)[0]
    keys = (re.findall(r'^\s*"(\w+)":', example, flags=re.M)
            + re.findall(r"`(\w+)", optional))
    assert len(keys) >= 15
    allowed = {f.name for f in dataclasses.fields(ExperimentConfig)} | {"reward", "preset"}
    assert [key for key in keys if key not in allowed] == []


def test_cli_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"L": 8, "mode": "optimize"}))
    assert main(["optimize", "-c", str(bad_cfg)]) == 2

    # mode mismatch between config and subcommand is a config error
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict(outdir=str(tmp_path / "r"))))
    assert main(["quench", "-c", str(cfg_path)]) == 2


BAD_TIME_GRIDS = {
    "optimize_dt_off_grid": {"mode": "optimize", "k": 2, "dt": 0.003},
    "optimize_dt_zero": {"mode": "optimize", "k": 2, "dt": 0.0},
    "quench_dt_zero": {"mode": "quench", "dt": 0.0},
    "optimize_backwards": {"mode": "optimize", "k": 2, "dt": -0.002, "duration": -0.01},
    "quench_backwards": {"mode": "quench", "dt": -0.02, "duration": -1.0},
    "optimize_negative_kick": {"mode": "optimize", "k": 2, "kick_duration": -1.0},
    "optimize_no_kick": {"mode": "optimize", "k": 2, "kick_duration": 0.0},
    "optimize_no_steps": {"mode": "optimize", "k": 2, "duration": 0.0},
    "quench_no_steps": {"mode": "quench", "duration": 0.0},
}


@pytest.mark.parametrize("case", sorted(BAD_TIME_GRIDS))
def test_cli_bad_time_grid_is_config_error(tmp_path, case):
    """dt > 0, a whole number >= 1 of steps and a kick >= 0 (> 0 to optimize),
    else exit 2 and no run."""
    data = dict(BAD_TIME_GRIDS[case], preset="integrable", L=8,
                outdir=str(tmp_path / "run"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert main([data["mode"], "-c", str(cfg_path)]) == 2
    assert not (tmp_path / "run").exists()


BAD_CONFIG_FILES = {"missing": None, "malformed": '{"L": 8', "not_an_object": "[1]"}
CONFIG_COMMANDS = {
    "diag": lambda cfg, tmp: ["diag", "-c", cfg, "-o", str(tmp / "spectrum.csv")],
    "optimize": lambda cfg, tmp: ["optimize", "-c", cfg],
    "sweep-size": lambda cfg, tmp: ["sweep-size", "-c", cfg, "--L-list", "8",
                                    "--outdir", str(tmp / "sweep")],
}


@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
@pytest.mark.parametrize("case", sorted(BAD_CONFIG_FILES))
def test_cli_unreadable_config_file_is_config_error(tmp_path, command, case):
    """A -c file that is missing, not JSON, or not a JSON object exits 2."""
    cfg_path = tmp_path / "cfg.json"
    if BAD_CONFIG_FILES[case] is not None:
        cfg_path.write_text(BAD_CONFIG_FILES[case])
    assert main(CONFIG_COMMANDS[command](str(cfg_path), tmp_path)) == 2


BAD_REWARDS = {
    "a_not_a_number": {"a": "x"},
    "not_an_object": 3,
    "a_nan": {"a": float("nan")},
    "c_infinite": {"c": float("inf")},
    "epsilon_minus_infinite": {"epsilon": -float("inf")},
}


@pytest.mark.parametrize("case", sorted(BAD_REWARDS))
def test_cli_bad_reward_is_config_error(tmp_path, case):
    """Reward parameters must be finite numbers in range, else exit 2 and no run."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict(outdir=str(tmp_path / "run"), duration=0.02,
                                            reward=BAD_REWARDS[case])))
    assert main(["optimize", "-c", str(cfg_path)]) == 2
    assert not (tmp_path / "run").exists()


NAN, INF = float("nan"), float("inf")
BAD_NUMBERS = {
    "h_nan": {"mode": "optimize", "k": 2, "h": NAN},
    "g_infinite": {"mode": "optimize", "k": 2, "g": INF},
    "quench_h_nan": {"mode": "quench", "quench_h": NAN},
    "quench_g_infinite": {"mode": "quench", "quench_g": -INF},
    "dpos_epsilon_nan": {"mode": "optimize", "k": 2, "dpos_epsilon": NAN},
    "L_float": {"mode": "optimize", "k": 2, "L": 8.0},
    "k_fractional": {"mode": "optimize", "k": 2.5},
    "sample_every_fractional": {"mode": "optimize", "k": 2, "sample_every": 2.5},
    "action_fractional": {"mode": "optimize", "k": 2, "actions": [1.5]},
    "L_above_sector_cap": {"mode": "optimize", "k": 2, "L": 22, "long_run": True},
    "k_bool": {"mode": "optimize", "k": True},
    "sample_every_bool": {"mode": "optimize", "k": 2, "sample_every": True},
    "long_run_string": {"mode": "optimize", "k": 2, "L": 16, "long_run": "false"},
    "outdir_number": {"mode": "optimize", "k": 2, "outdir": 5},
    "h_bool": {"mode": "optimize", "k": 2, "h": True},
    "dt_bool": {"mode": "quench", "dt": True, "duration": 1.0},
    "duration_bool": {"mode": "quench", "dt": 0.5, "duration": True},
    "kick_duration_bool": {"mode": "optimize", "k": 2, "kick_duration": True},
    "dpos_epsilon_bool": {"mode": "optimize", "k": 2, "dpos_epsilon": True},
    "reward_a_bool": {"mode": "optimize", "k": 2, "reward": {"a": True}},
    "actions_bool": {"mode": "optimize", "k": 2, "actions": [True, False]},
    "shell_hi_infinite": {"mode": "optimize", "k": 2, "shell_hi": INF},
    "quench_k": {"mode": "quench", "k": 99},
    "optimize_quench_h": {"mode": "optimize", "k": 2, "quench_h": 0.7},
    "optimize_quench_g": {"mode": "optimize", "k": 2, "quench_g": 1.5},
    "preset_list": {"mode": "optimize", "k": 2, "preset": ["integrable"]},
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_cli_bad_number_is_config_error(tmp_path, case):
    """Model numbers must be finite numbers and counts integers (neither a boolean),
    L within the sector range, long_run a boolean, outdir and preset strings; k is
    optimize's field and quench_h, quench_g are quench's, and a legacy actions
    list must be empty. Else exit 2 and no run."""
    data = {"preset": "integrable", "L": 8, "duration": 0.02,
            "outdir": str(tmp_path / "run"), **BAD_NUMBERS[case]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert main([data["mode"], "-c", str(cfg_path)]) == 2
    assert not (tmp_path / "run").exists()


def test_cli_quench_fills_each_missing_field_from_preset(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "preset": "nonintegrable", "L": 8, "mode": "quench", "duration": 0.2,
        "quench_h": 0.7, "outdir": str(tmp_path / "run")}))
    assert main(["quench", "-c", str(cfg_path)]) == 0
    saved = json.loads((tmp_path / "run" / "config.json").read_text())
    assert (saved["quench_h"], saved["quench_g"]) == (0.7, 1.5)


@pytest.mark.parametrize("mode", ["optimize", "quench"])
def test_cli_empty_shell_is_config_error(tmp_path, mode):
    """The nonintegrable L=6 spectrum has no state in the default shell."""
    data = {"preset": "nonintegrable", "L": 6, "mode": mode,
            "outdir": str(tmp_path / "run")}
    data.update({"optimize": {"k": 2}}.get(mode, {}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert main([mode, "-c", str(cfg_path)]) == 2
    assert not (tmp_path / "run").exists()


def test_cli_sweep_threshold_rejects_non_run_paths(tmp_path, small_run):
    """A glob that also matches a sweep's fig3_scaling.csv is a config error."""
    table = tmp_path / "fig3_scaling.csv"
    table.write_text("L,k,preset,d_pos_final,shell_size\n")
    assert main(["sweep-threshold", "--runs", str(small_run), str(table),
                 "--eps", "0.15"]) == 2


BAD_CLI_VALUES = {
    "replay_tol_nan": lambda run, tmp: ["replay", "--run", run, "--tol", "nan"],
    "replay_tol_negative": lambda run, tmp: ["replay", "--run", run, "--tol", "-1"],
    "eps_non_numeric": lambda run, tmp: ["sweep-threshold", "--runs", run,
                                         "--eps", "0.1,abc", "-o", str(tmp / "out")],
    "eps_nan": lambda run, tmp: ["sweep-threshold", "--runs", run,
                                 "--eps", "nan", "-o", str(tmp / "out")],
    "eps_empty": lambda run, tmp: ["sweep-threshold", "--runs", run,
                                   "--eps", "", "-o", str(tmp / "out")],
    "L_list_non_numeric": lambda run, tmp: ["sweep-size", "-c", str(tmp / "opt.json"),
                                            "--L-list", "6,x", "--outdir", str(tmp / "out")],
    "presets_unknown": lambda run, tmp: ["sweep-size", "-c", str(tmp / "opt.json"),
                                         "--L-list", "6", "--k-rule", "half",
                                         "--presets", "integrable,typo",
                                         "--outdir", str(tmp / "out")],
    "basis_k_zero": lambda run, tmp: ["basis", "--L", "4", "--k", "0", "-o", str(tmp / "out")],
    "basis_k_above_L": lambda run, tmp: ["basis", "--L", "4", "--k", "5",
                                         "-o", str(tmp / "out")],
    "basis_L_one": lambda run, tmp: ["basis", "--L", "1", "--k", "1", "-o", str(tmp / "out")],
}


@pytest.mark.parametrize("case", sorted(BAD_CLI_VALUES))
def test_cli_bad_option_value_is_config_error(tmp_path, small_run, case):
    """A bad list token, an empty list, an unknown preset, a non-finite threshold,
    a negative or NaN replay tolerance, or a basis size outside 1 <= k <= L with
    L in the sector's range exits 2 and writes nothing."""
    (tmp_path / "opt.json").write_text(json.dumps(cfg_dict(outdir=str(tmp_path / "out"))))
    archive = {p.name: p.read_bytes() for p in small_run.iterdir()}
    assert main(BAD_CLI_VALUES[case](str(small_run), tmp_path)) == 2
    assert not (tmp_path / "out").exists()
    assert {p.name: p.read_bytes() for p in small_run.iterdir()} == archive


def test_cli_replay_detects_tampering(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    outdir = tmp_path / "run"
    cfg_path.write_text(json.dumps(cfg_dict(outdir=str(outdir))))
    assert main(["optimize", "-c", str(cfg_path)]) == 0
    _, traj = runner.load_run(outdir)
    traj.final_w()[-1] += 0.5
    (outdir / "per_state.csv").write_text(traj.per_state_csv())
    assert main(["replay", "--run", str(outdir)]) == 3


@pytest.mark.parametrize("damage", ["truncated", "no_n_steps", "no_basis_checksum", "deleted",
                                    "shortened", "other_basis", "narrow"])
def test_cli_replay_rejects_damaged_protocol(tmp_path, damage):
    """A protocol.txt that cannot be read, that is off the config's grid, or that
    was recorded against another operator basis is a config error."""
    cfg_path = tmp_path / "cfg.json"
    outdir = tmp_path / "run"
    cfg_path.write_text(json.dumps(cfg_dict(outdir=str(outdir), duration=0.02)))
    assert main(["optimize", "-c", str(cfg_path)]) == 0
    protocol = outdir / "protocol.txt"
    lines = protocol.read_text().splitlines()
    if damage == "truncated":
        protocol.write_text("\n".join(lines[:-3]) + "\n")
    elif damage in ("no_n_steps", "no_basis_checksum"):
        key = damage[3:]
        protocol.write_text("\n".join(ln for ln in lines
                                      if not ln.startswith(key)) + "\n")
    elif damage == "shortened":
        lines = ["n_steps 7" if ln.startswith("n_steps") else ln for ln in lines]
        protocol.write_text("\n".join(lines[:-3]) + "\n")
    elif damage == "other_basis":
        lines = ["basis_checksum 0123abcd" if ln.startswith("basis_checksum") else ln
                 for ln in lines]
        protocol.write_text("\n".join(lines) + "\n")
    elif damage == "narrow":
        loaded = ControlProtocol.load(protocol)
        loaded.gamma = loaded.gamma[:, :-1]
        loaded.save(protocol)
    else:
        protocol.unlink()
    assert main(["replay", "--run", str(outdir)]) == 2


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


@pytest.fixture(scope="module")
def quench_L8(tmp_path_factory):
    """An L=8 nonintegrable quench archive, written through the CLI."""
    tmp = tmp_path_factory.mktemp("quench_L8")
    cfg_path = tmp / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "nonintegrable", "L": 8, "mode": "quench",
                                    "duration": 0.1, "outdir": str(tmp / "run")}))
    assert main(["quench", "-c", str(cfg_path)]) == 0
    return tmp / "run"


@pytest.mark.parametrize("bounds", [(5.0, 6.0), (-10.0, 10.0)], ids=["empty", "other"])
def test_cli_replay_rejects_a_different_shell(tmp_path, quench_L8, monkeypatch, bounds):
    """config.json edited to select another shell is a config error, caught before
    any step: an empty shell, or one of another size, never reaches evolve."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for path in quench_L8.iterdir():
        (run_dir / path.name).write_bytes(path.read_bytes())
    data = json.loads((run_dir / "config.json").read_text())
    data.update(shell_lo=bounds[0], shell_hi=bounds[1], outdir=str(run_dir))
    (run_dir / "config.json").write_text(json.dumps(data))
    size = len(runner.prepare(ExperimentConfig.from_dict(data)).shell.indices)
    assert size != json.loads((run_dir / "run.json").read_text())["shell"]["size"]
    assert (size == 0) == (bounds == (5.0, 6.0))

    def no_evolve(*args, **kwargs):
        raise AssertionError("replay evolved a mismatched shell")

    monkeypatch.setattr(runner, "evolve", no_evolve)
    assert main(["replay", "--run", str(run_dir)]) == 2


def test_cli_replay_rejects_another_kick_generator(tmp_path):
    """protocol.txt names its kick generator; replay refuses one it does not apply."""
    cfg_path = tmp_path / "cfg.json"
    outdir = tmp_path / "run"
    cfg_path.write_text(json.dumps(cfg_dict(outdir=str(outdir), duration=0.02)))
    assert main(["optimize", "-c", str(cfg_path)]) == 0
    protocol = outdir / "protocol.txt"
    assert main(["replay", "--run", str(outdir)]) == 0
    text = protocol.read_text()
    assert "kick_generator sum_sigma_x\n" in text
    protocol.write_text(text.replace("kick_generator sum_sigma_x", "kick_generator sum_sigma_z"))
    with pytest.raises(ValueError, match="sum_sigma_z"):
        ControlProtocol.load(protocol)
    assert main(["replay", "--run", str(outdir)]) == 2


@pytest.mark.parametrize("kick", ["nan", "0.002", "0"])
def test_cli_replay_rejects_another_kick(tmp_path, kick):
    """A protocol.txt kick that is not config.json's, or not a finite number >= 0,
    is a config error, not a replay deviation."""
    cfg_path = tmp_path / "cfg.json"
    outdir = tmp_path / "run"
    cfg_path.write_text(json.dumps(cfg_dict(outdir=str(outdir), duration=0.02)))
    assert main(["optimize", "-c", str(cfg_path)]) == 0
    protocol = outdir / "protocol.txt"
    text = protocol.read_text()
    assert "kick_duration 0.001\n" in text
    protocol.write_text(text.replace("kick_duration 0.001", f"kick_duration {kick}"))
    assert main(["replay", "--run", str(outdir)]) == 2
