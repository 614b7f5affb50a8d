"""Experiment configuration: schema-checked, JSON-backed, preset-aware.

A config snapshot is written into every run directory; unknown keys are
rejected so stale or misspelled fields fail loudly instead of silently
changing an archive's meaning. One legacy key is tolerated: every v1 archive
holds ``"actions": []``, the field of the removed discrete mode, which
:meth:`ExperimentConfig.from_dict` drops; any other ``actions`` value, or
``"mode": "discrete"``, is a config error.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

from .model import PRESETS, SHELL_DEFAULT
from .sector import L_MAX, L_MIN

FORMAT_TAG = "eigenwork-run-v1"

MODES = ("optimize", "quench")

L_CI_CAP = 14

DEFAULT_DT = {"optimize": 0.002, "quench": 0.02}
DEFAULT_DURATION = {"optimize": 1.0, "quench": 10.0}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration (CLI exit code 2)."""


def read_json_object(path) -> dict:
    """The JSON object a config or run.json file holds; ConfigError if there is none."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} holds {type(data).__name__}, not a JSON object")
    return data


def _finite_real(value) -> bool:
    """A finite real number; a JSON true/false is a bool, not a number."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class RewardParams:
    a: float = 30.0
    c: float = 0.1
    epsilon: float = 0.15
    delta: float = 0.3

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not _finite_real(value):
                raise ConfigError(f"reward {name} must be a finite number, got {value!r}")
        if not self.a > 0:
            raise ConfigError("sigmoid sharpness must be positive")
        if not self.c >= 0:
            raise ConfigError("penalty slope must be nonnegative")
        if not self.epsilon < self.delta:
            raise ConfigError("threshold epsilon must sit below the penalty knee delta")


@dataclass
class ExperimentConfig:
    L: int
    h: float
    g: float
    mode: str
    shell_lo: float = SHELL_DEFAULT[0]
    shell_hi: float = SHELL_DEFAULT[1]
    k: int | None = None
    quench_h: float | None = None
    quench_g: float | None = None
    reward: RewardParams = field(default_factory=RewardParams)
    dpos_epsilon: float | None = None
    dt: float | None = None
    duration: float | None = None
    kick_duration: float | None = None
    sample_every: int = 10
    outdir: str = "runs/run"
    long_run: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        required = ("h", "g", "shell_lo", "shell_hi")
        for name in required + ("quench_h", "quench_g", "dpos_epsilon", "dt", "duration",
                                "kick_duration"):
            value = getattr(self, name)
            if not (_finite_real(value) or value is None and name not in required):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        for name in ("L", "k", "sample_every"):
            value = getattr(self, name)
            if not (value is None and name == "k" or isinstance(value, numbers.Integral)
                    and not isinstance(value, bool)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.long_run, bool):
            raise ConfigError(f"long_run must be true or false, got {self.long_run!r}")
        if not isinstance(self.outdir, str):
            raise ConfigError(f"outdir must be a string, got {self.outdir!r}")
        if not L_MIN <= self.L <= L_MAX:
            raise ConfigError(f"L={self.L} outside the supported range [{L_MIN}, {L_MAX}]")
        if self.L % 2:
            raise ConfigError("half-chain diagnostics need even L")
        if self.L > L_CI_CAP and not self.long_run:
            raise ConfigError(
                f"L={self.L} exceeds the desk-scale cap {L_CI_CAP}; "
                "set long_run=true to accept an hours-long run")
        if not self.shell_lo < self.shell_hi:
            raise ConfigError("shell bounds must satisfy lo < hi")
        if self.dpos_epsilon is None:
            self.dpos_epsilon = self.reward.epsilon
        if self.dt is None:
            self.dt = DEFAULT_DT[self.mode]
        if not 0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt!r}")
        if self.duration is None:
            self.duration = DEFAULT_DURATION[self.mode]
        if not (math.isfinite(self.duration / self.dt) and self.n_steps >= 1
                and abs(self.n_steps * self.dt - self.duration) <= 1e-9):
            raise ConfigError(f"duration {self.duration!r} must be a whole number "
                              f"of at least one dt={self.dt!r} steps")
        if self.kick_duration is None:
            self.kick_duration = 0.001 if self.mode == "optimize" else 0.0
        if not 0 <= self.kick_duration < math.inf:
            raise ConfigError(f"kick_duration must be nonnegative and finite, "
                              f"got {self.kick_duration!r}")
        if self.mode != "optimize" and self.k is not None:
            raise ConfigError(f"k={self.k!r} is the control locality of mode optimize, "
                              f"not of mode {self.mode}")
        if self.mode != "quench" and (self.quench_h, self.quench_g) != (None, None):
            raise ConfigError(f"quench_h and quench_g set the target of mode quench, "
                              f"not of mode {self.mode}")
        if self.mode == "optimize":
            if self.k is None:
                raise ConfigError("optimize mode needs the control locality k")
            if not 1 <= self.k <= self.L:
                raise ConfigError(f"k={self.k} outside [1, L]")
            if self.kick_duration == 0:
                raise ConfigError("mode optimize needs kick_duration > 0: every gradient "
                                  "vanishes at an eigenstate, so the run could only fail")
        if self.mode == "quench":
            h, g = PRESETS["quench-target"]
            self.quench_h = h if self.quench_h is None else self.quench_h
            self.quench_g = g if self.quench_g is None else self.quench_g
        if self.sample_every < 1:
            raise ConfigError("sample_every must be a positive step count")

    @property
    def n_steps(self) -> int:
        """Protocol steps of size dt covering the duration."""
        return round(self.duration / self.dt)

    @property
    def sample_steps(self) -> list[int]:
        """Ascending steps at which observables are recorded: every
        sample_every-th step from 0, and always the last one."""
        return [*range(0, self.n_steps, self.sample_every), self.n_steps]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        if data.pop("actions", []) != [] or data.get("mode") == "discrete":
            raise ConfigError("mode discrete and its actions were removed; "
                              f"modes are {MODES}")
        unknown = set(data) - {f.name for f in fields(cls)} - {"preset"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        preset = data.pop("preset", None)
        if preset is not None:
            if not isinstance(preset, str) or preset not in PRESETS:
                raise ConfigError(f"unknown preset {preset!r}; "
                                  f"expected one of {sorted(PRESETS)}")
            h, g = PRESETS[preset]
            data.setdefault("h", h)
            data.setdefault("g", g)
        if "h" not in data or "g" not in data or "L" not in data or "mode" not in data:
            raise ConfigError("config requires L, mode, and (h, g) or a preset")
        reward = data.pop("reward", {})
        reward_keys = {f.name for f in fields(RewardParams)}
        if not isinstance(reward, dict) or set(reward) - reward_keys:
            raise ConfigError(f"reward must be an object with keys among "
                              f"{sorted(reward_keys)}, got {reward!r}")
        try:
            return cls(reward=RewardParams(**reward), **data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json_object(path))

    def to_dict(self) -> dict:
        data = asdict(self)
        data["reward"] = asdict(self.reward)
        return data

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def preset_name(self) -> str:
        for name, (h, g) in PRESETS.items():
            if name != "quench-target" and (self.h, self.g) == (h, g):
                return name
        return "custom"
