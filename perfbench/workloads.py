"""The benchmark's workloads and the output checks that define a failed op.

A workload is a list of `cli.main` calls split into a set-up phase and a
timed phase. Every call shares the workload's `--set` overrides and the
run's `--seed`; nothing else reaches the program. An op is one call plus
the check of what it wrote. A check reads the artifacts with the
standard library only, so it does not trust the program's own loaders,
and returns the values the run reports (quality figures and work
counts). It raises `CheckFailed` when an output is wrong.

Each workload has a `tiny` variant with the same calls at toy sizes; the
self-tests run it through the same code path as the measured variant.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path


class CheckFailed(Exception):
    """An op's artifacts fail the workload's output check."""


@dataclass(frozen=True)
class Op:
    stage: str
    extra: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        """Stage name as the CLI echoes it (train-student.distill, attack.vanilla, ...)."""
        if self.stage == "train-student":
            return self.stage + (".vanilla" if "student.vanilla=true" in self.extra
                                 else ".distill")
        if self.stage == "attack":
            return self.stage + (".vanilla" if "attack.target=vanilla" in self.extra
                                 else ".student")
        return self.stage


def _set(pairs: dict[str, object]) -> tuple[str, ...]:
    out: list[str] = []
    for key, value in pairs.items():
        out += ["--set", f"{key}={value}"]
    return tuple(out)


@dataclass(frozen=True)
class Workload:
    name: str
    settings: dict[str, str]
    setup: tuple[Op, ...]
    timed: tuple[Op, ...]

    def argv(self, op: Op, out: str, seed: int) -> list[str]:
        return [op.stage, "--out", out, "--seed", str(seed), *_set(self.settings), *op.extra]


VANILLA = _set({"student.vanilla": "true"})
RECIPE_TAIL = (
    Op("train-cdm"), Op("find-te"), Op("clarid"), Op("eval-features"), Op("build-pool"),
    Op("train-student"), Op("train-student", VANILLA),
    Op("attack", _set({"attack.target": "student"})),
    Op("attack", _set({"attack.target": "vanilla"})),
    Op("report"),
)


def recipe(tiny: bool = False) -> Workload:
    """The calls of scripts/run_toy_recipe.sh; what users run.

    Small-batch tape training dominates: train-cdm and distilled
    train-student. Both loops are 4x shorter than the defaults so that
    several repetitions fit in one run; the cost per step is unchanged.
    """
    settings = {"cdm.epochs": "250", "student.epochs": "50"}
    if tiny:
        settings = {"data.n": "300", "cdm.epochs": "60", "te.m": "20",
                    "te.grid_fractions": "0.5,1.0", "clarid.n_samples": "40",
                    "student.epochs": "40", "eval.n": "200"}
    return Workload("recipe", settings, setup=(Op("gen-data"),), timed=RECIPE_TAIL)


def canon_extract(tiny: bool = False) -> Workload:
    """The inference path, with no training and no tape in the timed phase.

    DDIM invert/decode, the numpy denoiser forward, the per-sample
    Jacobian+SVD loop, bundle I/O and k-means. t_e is pinned so that a
    change to the t_e rule cannot change the amount of work; the guided
    pass makes two denoiser calls per DDIM step.
    """
    n = 100 if tiny else 2000
    settings = {"data.n": str(n), "cdm.epochs": "20" if tiny else "50",
                "te.m": "10" if tiny else "200", "clarid.t_e": "500"}
    if tiny:
        settings["te.grid_fractions"] = "0.5,1.0"
    return Workload(
        "canon-extract", settings,
        setup=(Op("gen-data"), Op("train-cdm")),
        timed=(Op("find-te"),
               Op("clarid", _set({"clarid.n_samples": n})),
               Op("eval-features"),
               Op("clarid", _set({"clarid.n_samples": n // 2, "clarid.cfg_scale": 3}))))


EPSILONS = (0.1, 0.5, 1.0, 2.0)


def pgd_sweep(tiny: bool = False) -> Workload:
    """PGD on both students at four epsilons (Madry et al. sweep practice).

    Input gradients on a few large batches, BLAS- and memory-bound, where
    training makes thousands of small Python-bound ones; a tape change
    that helps one pattern and costs the other shows.
    """
    settings = {"cdm.epochs": "150", "te.m": "50", "clarid.t_e": "500",
                "student.epochs": "60", "attack.steps": "20", "eval.n": "10000"}
    if tiny:
        settings.update({"data.n": "300", "cdm.epochs": "20", "te.m": "10",
                         "te.grid_fractions": "0.5,1.0", "clarid.n_samples": "20",
                         "student.epochs": "40", "eval.n": "300"})
    attacks = tuple(
        Op("attack", _set({"attack.target": target, "attack.epsilon": eps,
                           "attack.step_size": eps / 4}))
        for target in ("student", "vanilla") for eps in EPSILONS)
    return Workload("pgd-sweep", settings, setup=(Op("gen-data"),) + RECIPE_TAIL[:7],
                    timed=attacks)


WORKLOADS = {"recipe": recipe, "canon-extract": canon_extract, "pgd-sweep": pgd_sweep}


# ------------------------------------------------------------------ checks
#
# A check gets the op's output directory and the configuration the CLI
# echoed for that call (resolved_config.<label>.json), so it knows what
# the call was asked to do without restating the program's defaults.


def _finite(values, what: str) -> None:
    for v in values:
        if not math.isfinite(float(v)):
            raise CheckFailed(f"{what} holds a non-finite value")


def check_bundles(cfg: dict, out: Path) -> dict[str, float]:
    """Bundle count equals the samples requested; arrays finite; k in {1, 2}."""
    requested = min(cfg["clarid.n_samples"], cfg["data.n"])
    lines = (out / "bundles.jsonl").read_text().splitlines()
    if len(lines) != requested:
        raise CheckFailed(f"{len(lines)} bundles for {requested} requested samples")
    for line in lines:
        b = json.loads(line)
        if b["k"] not in (1, 2):
            raise CheckFailed(f"bundle k={b['k']} outside {{1, 2}}")
        for key in ("latent", "canonical_sample", "canonical_feature"):
            _finite(b[key], f"bundle {key}")
    with open(out / "before_after.csv", newline="") as f:
        dists = [float(r["dist_canon"]) for r in csv.DictReader(f)]
    return {"canon_samples": requested, "median_dist_canonical": statistics.median(dists)}


def check_features(cfg: dict, out: Path) -> dict[str, float]:
    report = json.loads((out / "features_report.json").read_text())
    canon = list(report["within_class_var_canonical"].values())
    orig = list(report["within_class_var_original"].values())
    _finite(canon + orig, "features_report.json")
    return {"feature_var_ratio": statistics.mean(canon) / statistics.mean(orig)}


def check_attack(cfg: dict, out: Path) -> dict[str, float]:
    """Robust accuracy may not exceed clean accuracy."""
    target = cfg["attack.target"]
    m = json.loads((out / f"metrics_{target}.json").read_text())
    clean, robust = m["clean_accuracy"], m["robust_accuracy"]
    _finite([clean, robust], f"metrics_{target}.json")
    if robust > clean:
        raise CheckFailed(f"{target}: robust accuracy {robust} above clean {clean}")
    name = "distilled" if target == "student" else "vanilla"
    return {f"robust_acc_{name}_eps{cfg['attack.epsilon']:g}": robust,
            f"clean_acc_{name}": clean,
            "pgd_point_steps": cfg["eval.n"] * cfg["attack.steps"]}


SUMMARY_ROWS = 14


def check_summary(cfg: dict, out: Path) -> dict[str, float]:
    """All 14 rows, finite; clean accuracies >= 0.95; canonical variance below original."""
    with open(out / "summary.csv", newline="") as f:
        rows = {r["metric"]: float(r["value"]) for r in csv.DictReader(f)}
    if len(rows) != SUMMARY_ROWS:
        raise CheckFailed(f"summary.csv holds {len(rows)} rows, expected {SUMMARY_ROWS}")
    _finite(rows.values(), "summary.csv")
    for target in ("student", "vanilla"):
        if rows[f"{target}_clean_accuracy"] < 0.95:
            raise CheckFailed(f"{target} clean accuracy {rows[f'{target}_clean_accuracy']} < 0.95")
    for c in (0, 1):
        canon, orig = rows[f"var_canonical_class{c}"], rows[f"var_original_class{c}"]
        if not canon < orig:
            raise CheckFailed(f"class {c}: canonical variance {canon} not below original {orig}")
    return {}


# work count a check reports -> (rate metric, stage whose time it is divided by, unit)
WORK_COUNTS = {"canon_samples": ("canon_samples_per_s", "clarid", "samples/s"),
               "pgd_point_steps": ("pgd_point_steps_per_s", "attack", "point-steps/s")}

CHECKS = {"clarid": check_bundles, "eval-features": check_features,
          "attack": check_attack, "report": check_summary}


def check(op: Op, out: Path) -> dict[str, float]:
    """Run the op's output check; stages without one only need exit code 0."""
    fn = CHECKS.get(op.stage)
    if fn is None:
        return {}
    try:
        cfg = json.loads((out / f"resolved_config.{op.label}.json").read_text())
        return fn(cfg, out)
    except (OSError, KeyError, ValueError) as exc:
        raise CheckFailed(f"unreadable artifact: {exc!r}") from exc
