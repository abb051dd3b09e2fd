"""Shared fixtures: one run of the default seed-0 recipe per session.

The recipe runs through `cli.main`, as `scripts/run_toy_recipe.sh` runs
it, so every test that reads the dataset, the denoiser or a later
artifact judges what the recipe ships.
"""
import diffcanon  # noqa: F401  first, so that its BLAS pin is set before numpy loads

import csv
import json
import os

import pytest

from diffcanon import cli, diffusion, toydata

# The 11 calls of scripts/run_toy_recipe.sh, each with its --set pairs.
RECIPE = [
    ("gen-data", []),
    ("train-cdm", []),
    ("find-te", []),
    ("clarid", []),
    ("eval-features", []),
    ("build-pool", []),
    ("train-student", []),
    ("train-student", ["--set", "student.vanilla=true"]),
    ("attack", ["--set", "attack.target=student"]),
    ("attack", ["--set", "attack.target=vanilla"]),
    ("report", []),
]

ARTIFACTS = [
    "toy_data.csv", "cdm_checkpoint.json", "cdm_loss.csv",
    "te_report.json", "te_curve.csv", "bundles.jsonl", "before_after.csv",
    "features_report.json", "pool.jsonl",
    "student_checkpoint.json", "student_loss.csv",
    "vanilla_checkpoint.json", "vanilla_loss.csv",
    "metrics_student.json", "metrics_vanilla.json", "summary.csv",
]

ECHOES = [
    "gen-data", "train-cdm", "find-te", "clarid", "eval-features",
    "build-pool", "train-student.distill", "train-student.vanilla",
    "attack.student", "attack.vanilla", "report",
]


def run_recipe(out: str, *settings: str, calls=RECIPE) -> str:
    """Run the seed-0 recipe calls into out, each with the extra arguments settings."""
    for cmd, extra in calls:
        assert cli.main([cmd, "--out", out, "--seed", "0", *settings, *extra]) == 0, (
            f"stage {cmd} {extra} failed")
    return out


def rerun_from_echoes(first: str, rerun: str) -> None:
    """Run every stage again into rerun from the config it echoed into first."""
    os.makedirs(rerun, exist_ok=True)
    for echo in ECHOES:
        with open(os.path.join(first, f"resolved_config.{echo}.json")) as f:
            cfg = json.load(f)
        del cfg["out"]
        cfg_path = os.path.join(rerun, f"cfg_{echo}.json")
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
        cmd = echo.split(".")[0]
        assert cli.main([cmd, "--config", cfg_path, "--out", rerun]) == 0, echo


@pytest.fixture(scope="session")
def schedule():
    return diffusion.linear_schedule()


@pytest.fixture(scope="session")
def recipe_chain(tmp_path_factory):
    """Output directory of the recipe's gen-data and train-cdm calls."""
    return run_recipe(str(tmp_path_factory.mktemp("recipe")), calls=RECIPE[:2])


@pytest.fixture(scope="session")
def full_recipe(recipe_chain):
    """The same directory after the recipe's other nine calls."""
    return run_recipe(recipe_chain, calls=RECIPE[2:])


@pytest.fixture(scope="session")
def dataset(recipe_chain):
    return toydata.load_csv(os.path.join(recipe_chain, "toy_data.csv"))


@pytest.fixture(scope="session")
def trained(recipe_chain):
    """The recipe's denoiser, trained at the full default settings, with its loss log."""
    model = diffusion.load_checkpoint(os.path.join(recipe_chain, "cdm_checkpoint.json"))
    with open(os.path.join(recipe_chain, "cdm_loss.csv"), newline="") as f:
        losses = [float(row["loss"]) for row in csv.DictReader(f)]
    return model, losses


@pytest.fixture(scope="session")
def trained_model(trained):
    return trained[0]
