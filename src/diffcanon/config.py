"""Flat experiment configuration with strict key checking.

Defaults cover every tunable in the pipeline. The schedule, cdm, student
and attack keys are the parameters of the signatures that `build` calls,
with their defaults. A JSON config file and `--set key=value` overrides
may only touch known keys; values are coerced to the default's type, and
one outside its RANGES entry is refused. Precedence: CLI > file > defaults.
The resolved map is echoed next to the outputs so any artifact can be
reproduced from its own directory.
"""

from __future__ import annotations

import inspect
import json
import math

from . import diffusion, distill
from .errors import ConfigError


def _section(prefix: str, fn) -> dict[str, object]:
    """The key `prefix.name` of each parameter of fn, with its default."""
    return {f"{prefix}.{name}": p.default for name, p in inspect.signature(fn).parameters.items()}


def build(cfg: dict, prefix: str, fn):
    """Call fn with cfg's `prefix.name` value for each of its parameters."""
    return fn(**{name: cfg[f"{prefix}.{name}"] for name in inspect.signature(fn).parameters})


DEFAULTS: dict[str, object] = {
    "seed": 0,
    "out": "runs/toy",
    "data.n": 1000,
    **_section("schedule", diffusion.linear_schedule),
    **_section("cdm", diffusion.TrainConfig),
    "te.m": 200,
    "te.tol": 0.02,
    "te.grid_fractions": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
    "clarid.t_e": 0,                  # 0 = read the chosen value from the search report
    "clarid.cfg_scale": 1.0,          # 1 = no guidance
    "clarid.t_r": 100,
    "clarid.n_samples": 100,
    "pool.fraction": 0.1,
    "student.vanilla": False,
    **_section("student", distill.DistillConfig),
    "attack.target": "student",
    **_section("attack", distill.AttackConfig),
    "eval.n": 2000,
}


def _coerce(key: str, value: object) -> object:
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config key: {key}")
    default = DEFAULTS[key]
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        if str(value).lower() in ("true", "1", "yes"):
            return True
        if str(value).lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot parse boolean for {key}: {value!r}")
    if isinstance(default, (int, float)):
        kind = type(default)
        refused = ConfigError(f"cannot parse {kind.__name__} for {key}: {value!r}")
        # int() and float() would read a JSON true as 1, and int() would cut 1.5 to 1
        if isinstance(value, bool) or kind is int and isinstance(value, float) and value % 1:
            raise refused
        try:
            number = kind(value)
        except (TypeError, ValueError) as exc:
            raise refused from exc
        if not math.isfinite(number):  # float("nan") and float("inf") parse
            raise ConfigError(f"{key} must be a finite number, got {value!r}")
        return number
    return str(value)


# The range of each bounded setting, as (text, test of the value and the resolved
# config), checked in this order.
RANGES: dict[str, tuple] = {
    # a zero-epoch run would write untrained weights as a trained checkpoint
    **dict.fromkeys(("data.n", "schedule.t_max", "schedule.ddim_steps", "cdm.epochs",
                     "cdm.batch_size", "te.m", "clarid.n_samples", "student.epochs",
                     "student.batch_size", "attack.steps", "eval.n"),
                    ("at least 1", lambda v, cfg: v >= 1)),
    "schedule.beta_start": ("in (0, 1)", lambda v, cfg: 0 < v < 1),
    "schedule.beta_end": ("in [schedule.beta_start = {cfg[schedule.beta_start]}, 1)",
                          lambda v, cfg: cfg["schedule.beta_start"] <= v < 1),
    **dict.fromkeys(("cdm.lr", "student.lr", "student.tau", "attack.epsilon",
                     "attack.step_size"), ("above 0", lambda v, cfg: v > 0)),
    **dict.fromkeys(("cdm.label_drop", "student.lambda_cf", "student.lambda_cka"),
                    ("in [0, 1]", lambda v, cfg: 0 <= v <= 1)),
    **dict.fromkeys(("te.tol", "student.lambda_cs", "student.lambda_dist"),
                    ("at least 0", lambda v, cfg: v >= 0)),
    # clarid.t_e 0 reads the choice from the search report
    **dict.fromkeys(("clarid.t_e", "clarid.t_r"),
                    ("in [0, schedule.t_max = {cfg[schedule.t_max]}]",
                     lambda v, cfg: 0 <= v <= cfg["schedule.t_max"])),
    "pool.fraction": ("in (0, 1]", lambda v, cfg: 0 < v <= 1),
    "attack.target": ("student or vanilla", lambda v, cfg: v in ("student", "vanilla")),
}


def resolve(config_path: str | None = None, overrides: dict[str, object] | None = None) -> dict:
    """Merge defaults, an optional JSON file, and override pairs, in that order,
    and refuse a setting outside its RANGES entry or a bad te.grid_fractions."""
    cfg = dict(DEFAULTS)
    if config_path is not None:
        try:
            with open(config_path) as f:
                loaded = json.load(f)
        except OSError as exc:  # missing, a directory, not readable
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        except ValueError as exc:  # a JSONDecodeError, or bytes that are not text
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a flat JSON object")
        cfg.update((key, _coerce(key, value)) for key, value in loaded.items())
    cfg.update((key, _coerce(key, value)) for key, value in (overrides or {}).items())
    for key, (text, within) in RANGES.items():
        if not within(cfg[key], cfg):
            raise ConfigError(f"{key} must be {text.format(cfg=cfg)}, got {cfg[key]!r}")
    grid_from_config(cfg)
    return cfg


def parse_set_args(pairs: list[str]) -> dict[str, object]:
    """Parse repeated `--set key=value` arguments."""
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = value
    return out


def grid_from_config(cfg: dict) -> list[int]:
    grid = set()
    for entry in filter(str.strip, str(cfg["te.grid_fractions"]).split(",")):
        try:
            fraction = float(entry)
        except ValueError:
            fraction = float("nan")
        if not 0.0 <= fraction <= 1.0:  # NaN fails too
            raise ConfigError(f"te.grid_fractions: {entry.strip()!r} is not a number in [0, 1]")
        grid.add(round(fraction * cfg["schedule.t_max"]))
    if not grid:
        raise ConfigError("te.grid_fractions is empty")
    return sorted(grid)
