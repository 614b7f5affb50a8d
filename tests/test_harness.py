"""Config schema, run archiving, replay, sweeps, and the CLI surface."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from eigenwork import model, optimizer, runner
from eigenwork.cli import main
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
    assert opt.n_steps == 500

    quench = ExperimentConfig.from_dict(
        {"preset": "nonintegrable", "L": 8, "mode": "quench"})
    assert (quench.dt, quench.duration, quench.kick_duration) == (0.02, 10.0, 0.0)
    assert (quench.quench_h, quench.quench_g) == (0.0, 1.5)
    assert quench.n_steps == 500

    disc = ExperimentConfig.from_dict(
        {"preset": "integrable", "L": 8, "mode": "discrete",
         "actions": [0] * 600})
    assert disc.dt == 0.04
    assert disc.duration == pytest.approx(24.0)  # 600 steps of 0.04
    assert disc.n_steps == 600

    for cfg in (opt, quench, disc):
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
    "discrete": {"preset": "integrable", "L": 8, "mode": "discrete",
                 "actions": [2, 4, 2, 0, 6, 1]},
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
    "discrete": {
        "basis_manifest.txt":
            "f8cf82498e2c7417348ef7221e61f4c9831abbb868c851424b352dee8d814da8",
        "per_state.csv":
            "d2861de7d96fee39153e1cbb0bbae63016f2a5c0031f0244bd2350d4f6a58838",
        "protocol.txt":
            "b19bdd3133a0b2534b0851bd83ea03137552819f0377235d860833303d2984bc",
        "run.json":
            "0b3d99ad464d9b76d9caf1eced028990e9cad92372ec5f72e7fdef511412d78e",
        "sector_manifest.txt":
            "03847f28023d523f4c017f44fe1305616d605ad3473679f2269d749f5c137a0d",
        "spectrum.csv":
            "8aa8a5fe2f7e3922dcb9af42cad60d3bee4a25c370229c2f22e522ef697fe000",
        "timeseries.csv":
            "b774922ff76b743a5d3fa4d2dabb9778e482507c81e911b5336aa59cdfad0ab6",
    },
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
            "33e3e86f9f4433f508f33a797ee4bbe4b0375d5181cc0f3bd43610005fb7516a",
        "protocol.txt":
            "19e328cbb3c4fc81ac29c813053dfa9832599db9d91dfcd76bf6b11ee00ae693",
        "run.json":
            "1b3fa50429bff9445936366f4cd633ea6efe2a24cc194d693d621d50f5166ef8",
        "sector_manifest.txt":
            "03847f28023d523f4c017f44fe1305616d605ad3473679f2269d749f5c137a0d",
        "spectrum.csv":
            "33b9cb25dcdf5ec062568eb5c6d6fa2fc8c2e0b1d2084be231d69d0b0cc7660c",
        "timeseries.csv":
            "387f4500d0ad0f7f071237f8e18960dfb3ae8371708ad79edb0c59a0961aab24",
    },
}


def test_archive_bytes_frozen(roundtrip_run):
    """sha256 of every archive file but config.json, which holds the outdir.

    Taken with numpy 2.4.6 on scipy-openblas 0.3.31; at L=8 these bytes are
    the same under 1 and 2 OpenBLAS threads. A refactor must leave them
    alone. A deliberate change of the arithmetic (as the Schmidt-block
    entropies and the real, gauge-fixed eigensolve made, and the optimizer's
    move to the one sparse real target and kick generator made for the
    optimize digests; ROADMAP item 7's cheaper Taylor step will too) updates
    the digests, with the evidence for it in CHANGES.md.
    """
    mode, run_dir = roundtrip_run
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in run_dir.iterdir() if path.name != "config.json"}
    assert digests == FROZEN_ARCHIVES[mode]


def test_load_run_rejects_non_archives(tmp_path, small_run):
    not_a_dir = tmp_path / "fig3_scaling.csv"
    not_a_dir.write_text("L,k,preset,d_pos_t1,shell_size\n")
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


def test_kick_matrix_built_only_for_a_kick(tmp_path, monkeypatch):
    """prepare builds the sum_x kick generator only when the config sets a kick."""
    for mode, data in ROUNDTRIP_CONFIGS.items():
        ctx = runner.prepare(ExperimentConfig.from_dict(data))
        assert (ctx.kick_matrix is None) == (mode != "optimize"), mode

    cfg = ExperimentConfig.from_dict(cfg_dict(outdir=str(tmp_path / "r"), kick_duration=0.0,
                                              duration=0.02))
    ctx = runner.prepare(cfg)
    assert ctx.kick_matrix is None
    # An unkicked optimize run is refused before prepare, not after its steps.
    with monkeypatch.context() as patch:
        patch.setattr(runner, "prepare", lambda config: pytest.fail("prepare called"))
        with pytest.raises(ConfigError, match="kick_duration"):
            runner.run(cfg)
    assert not (tmp_path / "r").exists()

    # From states already off the eigenbasis, an unkicked optimize runs without
    # the generator, and its protocol replays through evolve within 1e-9.
    kicked = kick_unitary(sum_x(cfg.L).sector_matrix(ctx.basis), 0.001, ctx.shell.states)
    shell = EnergyShell(ctx.shell.indices, ctx.shell.energies, kicked)
    protocol, traj, _ = optimizer.optimize(cfg, ctx.H_target, shell, ctx.stack,
                                           ctx.kick_matrix)
    assert protocol.kick_duration == 0.0 and protocol.gamma.any()
    final = evolve(shell.states, protocol, ctx.stack, kick_matrix=ctx.kick_matrix)
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


def test_discrete_matching_action_zero_work(tmp_path):
    """Action 0 is the bare ZZ chain, which matches H(0) at (h,g) = (0,0)."""
    cfg = ExperimentConfig.from_dict({
        "h": 0.0, "g": 0.0, "L": 8, "mode": "discrete",
        "actions": [0] * 25, "shell_lo": -2.0, "shell_hi": 2.0,
        "outdir": str(tmp_path / "disc_zero")})
    _, traj = runner.load_run(runner.run(cfg))
    assert np.abs(traj.w_samples).max() < 1e-10


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


@pytest.mark.parametrize("field", ["h", "g"])
def test_cli_sweep_size_rejects_template_fields(tmp_path, field):
    """A template's h or g would override every preset while the rows keep the
    preset's name, so sweep-size exits 2 before any run."""
    cfg = tmp_path / "template.json"
    cfg.write_text(json.dumps({"mode": "optimize", "k": 2, field: 0.3}))
    outdir = tmp_path / "sweep"
    assert main(["sweep-size", "-c", str(cfg), "--L-list", "6", "--outdir", str(outdir)]) == 2
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


BAD_TIME_GRIDS = {
    "optimize_dt_off_grid": {"mode": "optimize", "k": 2, "dt": 0.003},
    "optimize_dt_zero": {"mode": "optimize", "k": 2, "dt": 0.0},
    "quench_dt_zero": {"mode": "quench", "dt": 0.0},
    "optimize_backwards": {"mode": "optimize", "k": 2, "dt": -0.002, "duration": -0.01},
    "quench_backwards": {"mode": "quench", "dt": -0.02, "duration": -1.0},
    "discrete_backwards": {"mode": "discrete", "actions": [0, 1], "dt": -0.04},
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
    "action_fractional": {"mode": "discrete", "actions": [1.5]},
    "L_above_sector_cap": {"mode": "optimize", "k": 2, "L": 22, "long_run": True},
    "discrete_L2": {"preset": "nonintegrable", "mode": "discrete", "L": 2, "actions": [0, 1]},
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
    "actions_bool": {"mode": "discrete", "actions": [True, False]},
    "shell_hi_infinite": {"mode": "optimize", "k": 2, "shell_hi": INF},
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_cli_bad_number_is_config_error(tmp_path, case):
    """Model numbers must be finite numbers and counts integers (neither a boolean),
    L within the sector range, long_run a boolean and outdir a string, else exit
    2 and no run."""
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


@pytest.mark.parametrize("mode", ["optimize", "quench", "discrete"])
def test_cli_empty_shell_is_config_error(tmp_path, mode):
    """The nonintegrable L=6 spectrum has no state in the default shell."""
    data = {"preset": "nonintegrable", "L": 6, "mode": mode,
            "outdir": str(tmp_path / "run")}
    data.update({"optimize": {"k": 2}, "discrete": {"actions": [0, 1]}}.get(mode, {}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert main([mode, "-c", str(cfg_path)]) == 2
    assert not (tmp_path / "run").exists()


def test_cli_sweep_threshold_rejects_non_run_paths(tmp_path, small_run):
    """A glob that also matches a sweep's fig3_scaling.csv is a config error."""
    table = tmp_path / "fig3_scaling.csv"
    table.write_text("L,k,preset,d_pos_t1,shell_size\n")
    assert main(["sweep-threshold", "--runs", str(small_run), str(table),
                 "--eps", "0.15"]) == 2


BAD_CLI_VALUES = {
    "replay_tol_nan": lambda run, tmp: ["replay", "--run", run, "--tol", "nan"],
    "replay_tol_negative": lambda run, tmp: ["replay", "--run", run, "--tol", "-1"],
    "actions_non_numeric": lambda run, tmp: ["discrete", "-c", str(tmp / "disc.json"),
                                             "--actions", "1,x"],
    "actions_empty": lambda run, tmp: ["discrete", "-c", str(tmp / "disc.json"),
                                       "--actions", ""],
    "eps_non_numeric": lambda run, tmp: ["sweep-threshold", "--runs", run,
                                         "--eps", "0.1,abc", "-o", str(tmp / "out")],
    "eps_nan": lambda run, tmp: ["sweep-threshold", "--runs", run,
                                 "--eps", "nan", "-o", str(tmp / "out")],
    "L_list_non_numeric": lambda run, tmp: ["sweep-size", "-c", str(tmp / "disc.json"),
                                            "--L-list", "6,x", "--outdir", str(tmp / "out")],
    "presets_unknown": lambda run, tmp: ["sweep-size", "-c", str(tmp / "disc.json"),
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
    (tmp_path / "disc.json").write_text(json.dumps({
        "preset": "integrable", "L": 8, "mode": "discrete", "actions": [1],
        "outdir": str(tmp_path / "out")}))
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


@pytest.mark.parametrize("damage", ["truncated", "no_n_steps", "deleted", "shortened",
                                    "other_basis", "narrow"])
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
    elif damage == "no_n_steps":
        protocol.write_text("\n".join(ln for ln in lines
                                      if not ln.startswith("n_steps")) + "\n")
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
