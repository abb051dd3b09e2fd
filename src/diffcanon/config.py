"""Flat experiment configuration with strict key checking.

Defaults cover every tunable in the pipeline. A JSON config file and
`--set key=value` overrides may only touch known keys; values are
coerced to the default's type. Precedence: CLI > file > defaults. The
resolved map is echoed next to the outputs so any artifact can be
reproduced from its own directory.
"""

from __future__ import annotations

import json

from .errors import ConfigError

DEFAULTS: dict[str, object] = {
    "seed": 0,
    "out": "runs/toy",
    "data.n": 1000,
    "schedule.t_max": 1000,
    "schedule.beta_start": 1e-4,
    "schedule.beta_end": 0.02,
    "schedule.ddim_steps": 100,
    "cdm.epochs": 1000,
    "cdm.batch_size": 128,
    "cdm.lr": 1e-3,
    "cdm.label_drop": 0.1,
    "te.m": 200,
    "te.tol": 0.02,
    "te.grid_fractions": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
    "clarid.t_e": 0,                  # 0 = read the chosen value from the search report
    "clarid.cfg_scale": 1.0,          # 1 = no guidance
    "clarid.t_r": 100,
    "clarid.layer": 2,
    "clarid.n_samples": 100,
    "clarid.class_filter": -1,        # -1 = all classes
    "pool.fraction": 0.1,
    "student.vanilla": False,
    "student.epochs": 200,
    "student.batch_size": 128,
    "student.lr": 1e-3,
    "student.tau": 0.1,
    "student.lambda_cs": 0.4,
    "student.lambda_cf": 0.5,
    "student.lambda_dist": 1.0,
    "student.lambda_cka": 0.5,
    "attack.target": "student",
    "attack.epsilon": 0.1,
    "attack.steps": 5,
    "attack.step_size": 0.05,
    "eval.n": 2000,
}


def _coerce(key: str, value: object) -> object:
    default = DEFAULTS[key]
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        if str(value).lower() in ("true", "1", "yes"):
            return True
        if str(value).lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot parse boolean for {key}: {value!r}")
    if isinstance(default, int):
        try:
            return int(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cannot parse integer for {key}: {value!r}") from exc
    if isinstance(default, float):
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cannot parse number for {key}: {value!r}") from exc
    return str(value)


def resolve(config_path: str | None = None, overrides: dict[str, object] | None = None) -> dict:
    """Merge defaults, an optional JSON file, and override pairs, in that order."""
    cfg = dict(DEFAULTS)
    if config_path is not None:
        with open(config_path) as f:
            try:
                loaded = json.load(f)
            except ValueError as exc:  # a JSONDecodeError, or bytes that are not text
                raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key, value in loaded.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key: {key}")
            cfg[key] = _coerce(key, value)
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        cfg[key] = _coerce(key, value)
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
    t_max = cfg["schedule.t_max"]
    fractions = [float(s) for s in str(cfg["te.grid_fractions"]).split(",") if s.strip()]
    grid = sorted({round(f * t_max) for f in fractions})
    if not grid:
        raise ConfigError("te.grid_fractions is empty")
    return grid
