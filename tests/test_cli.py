import csv
import dataclasses
import filecmp
import functools
import hashlib
import inspect
import json
import os
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import ARTIFACTS, ECHOES, RECIPE, rerun_from_echoes, run_recipe
from diffcanon import canon, cli, config, diffusion, distill

REDUCED = [
    "--set", "data.n=400",
    "--set", "cdm.epochs=150",
    "--set", "te.m=50",
    "--set", "te.grid_fractions=0.25,0.5,0.75,1.0",
    "--set", "clarid.n_samples=30",
    "--set", "student.epochs=40",
    "--set", "eval.n=300",
]

# sha256 of every artifact of the REDUCED seed-0 recipe. The digests
# depend on the floating-point kernels of the numpy/BLAS build as well as
# on the code; a change that moves bits re-pins them and says why.
GOLDEN_SHA256 = {
    "toy_data.csv": "e2cbefba5304cbec56c6447b2040c6b8df07a2b7a0c5fa745fc51e5b144b9cfa",
    "cdm_checkpoint.json": "14a35476a22646206a12467ff8862f00bece23eed31abe44ebee5cfe3e63e7a8",
    "cdm_loss.csv": "02bfdfa30ce8d5b746b332dc947d94ab902e15fab6f5a0f120d76f6fc1159f4a",
    "te_report.json": "ad805386263a2374aeab617f9c1da5c56a68f14e8b97881a6315b4f588ea6da0",
    "te_curve.csv": "251a5021033dbd25660f57213368a740ad88e996dabbb6979740b89666e3867b",
    "bundles.jsonl": "d4e431a110d938f74096457471aea235296c609602fd89ffa7e0f8fcdec258aa",
    "before_after.csv": "69519c0ed058314a7464b06a89bcb0e76e3cc46617262d955189fc52142c623f",
    "features_report.json": "9fc3e97bd189c5ea9a7b84501e447ed031a9e2bf8bee6dd0d10614a23865fcd9",
    "pool.jsonl": "0bee926a94fe48c236b574ff357f0ff658e408981c1905d25015301e6833620f",
    "student_checkpoint.json": "c1fca9761498a258ece19834dc31f07c98a223a0b47ad3bdc14fcee251b8e74d",
    "student_loss.csv": "778ab1fbf66058a62dd9247eab1e273f9d79287dbe1abc829c2937e21e0bd6bb",
    "vanilla_checkpoint.json": "9f8b1cd8a2d79c234e5eabb3c1ab898136d92ef9029a59e93b6d56f8e7f20cb0",
    "vanilla_loss.csv": "dedd880b24d6c43ea31942439e9b7dbb15bdfd4bcb4542d781b2d66b993efb08",
    "metrics_student.json": "f8bc00116fca1a3602b73ca54da7ed49bf5143c7425bf855e17063e942c16c98",
    "metrics_vanilla.json": "81c01ec6ac424d92e1d5baf9ed3263985958485948fb96dc067e7c5cb933c6ee",
    "summary.csv": "52cbeb3a75cb8696d0ce1084d862e05ead139134126af721bc8c1196f98a684f",
}

# Old echoes and perfbench's checks read config keys by name; a key of
# the schedule/cdm/student/attack sections is named after a parameter of
# the signature it configures, so renaming that parameter renames the key.
CONFIG_KEYS = {
    "seed", "out", "data.n",
    "schedule.t_max", "schedule.beta_start", "schedule.beta_end", "schedule.ddim_steps",
    "cdm.epochs", "cdm.batch_size", "cdm.lr", "cdm.label_drop",
    "te.m", "te.tol", "te.grid_fractions",
    "clarid.t_e", "clarid.cfg_scale", "clarid.t_r", "clarid.n_samples",
    "pool.fraction",
    "student.vanilla", "student.tau", "student.lambda_cs", "student.lambda_cf",
    "student.lambda_dist", "student.lambda_cka", "student.epochs", "student.batch_size",
    "student.lr",
    "attack.target", "attack.epsilon", "attack.steps", "attack.step_size",
    "eval.n",
}

SECTIONS = [("schedule", diffusion.linear_schedule), ("cdm", diffusion.TrainConfig),
            ("student", distill.DistillConfig), ("attack", distill.AttackConfig)]

def run(cmd: str, out: str, *extra: str, seed: int = 0) -> int:
    return cli.main([cmd, "--out", out, "--seed", str(seed), *REDUCED, *extra])


# ---------------------------------------------------------------- basics


def test_gen_data_same_seed_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("gen-data", a, seed=7) == 0
    assert run("gen-data", b, seed=7) == 0
    assert filecmp.cmp(os.path.join(a, "toy_data.csv"),
                       os.path.join(b, "toy_data.csv"), shallow=False)


def test_gen_data_seed_changes_output(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("gen-data", a, seed=7) == 0
    assert run("gen-data", b, seed=8) == 0
    assert not filecmp.cmp(os.path.join(a, "toy_data.csv"),
                           os.path.join(b, "toy_data.csv"), shallow=False)


def test_unknown_config_key_fails_with_config_error(tmp_path, capsys):
    rc = cli.main(["gen-data", "--out", str(tmp_path), "--set", "data.sigma=2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "code=CONFIG_ERROR" in captured.err


def test_malformed_set_pair_fails_with_config_error(tmp_path, capsys):
    rc = cli.main(["gen-data", "--out", str(tmp_path), "--set", "data.n"])
    assert rc == 1
    assert "code=CONFIG_ERROR" in capsys.readouterr().err


def test_bad_attack_target_fails_with_config_error(tmp_path, capsys):
    rc = cli.main(["attack", "--out", str(tmp_path), "--set", "attack.target=teacher"])
    assert rc == 1
    assert "code=CONFIG_ERROR" in capsys.readouterr().err


def test_missing_artifact_error(tmp_path, capsys):
    rc = cli.main(["train-cdm", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "code=MISSING_ARTIFACT" in captured.err


def test_report_without_stages_is_missing_artifact(tmp_path, capsys):
    rc = cli.main(["report", "--out", str(tmp_path)])
    assert rc == 1
    assert "code=MISSING_ARTIFACT" in capsys.readouterr().err


def test_config_precedence_cli_over_file_over_defaults(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"data.n": 50, "seed": 3}))
    out = str(tmp_path / "out")
    rc = cli.main(["gen-data", "--config", str(cfg_file), "--out", out,
                   "--set", "data.n=20"])
    assert rc == 0
    with open(os.path.join(out, "resolved_config.gen-data.json")) as f:
        echo = json.load(f)
    assert echo["data.n"] == 20          # CLI --set beats the file
    assert echo["seed"] == 3             # file beats the default
    assert echo["cdm.epochs"] == config.DEFAULTS["cdm.epochs"]  # defaults fill the rest
    with open(os.path.join(out, "toy_data.csv")) as f:
        assert sum(1 for _ in f) == 21   # header + 20 rows


def test_every_config_key_is_read():
    # a key that no stage reads is still accepted and echoed, and does nothing.
    # A section's keys are read when cli builds its signature through config.build.
    built = re.findall(r'config\.build\(cfg, "(\w+)", ([\w.]+)\)', inspect.getsource(cli))
    sections = re.findall(r'_section\("(\w+)", ([\w.]+)\)', inspect.getsource(config))
    assert sorted(set(built)) == sorted(sections)
    read = {f"{prefix}.{name}" for prefix, fn in built
            for name in inspect.signature(functools.reduce(getattr, fn.split("."), cli)).parameters}
    source = inspect.getsource(cli) + inspect.getsource(config)
    assert [key for key in config.DEFAULTS
            if f'cfg["{key}"]' not in source and key not in read] == []


def test_config_key_names_are_pinned():
    assert set(config.DEFAULTS) == CONFIG_KEYS


@pytest.mark.parametrize("prefix,fn", SECTIONS)
def test_build_from_the_defaults_equals_the_signature_defaults(prefix, fn):
    built, default = config.build(config.DEFAULTS, prefix, fn), fn()
    assert type(built) is type(default)
    for field in dataclasses.fields(default):
        a, b = getattr(built, field.name), getattr(default, field.name)
        assert type(a) is type(b) and np.array_equal(a, b), field.name


def test_config_file_with_unknown_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"data.m": 50}))
    rc = cli.main(["gen-data", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "code=CONFIG_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("data.n", 1.5), ("data.n", True), ("data.n", float("inf")),
                                       ("cdm.lr", True), ("student.epochs", -0.5)])
def test_config_file_number_of_the_wrong_kind_is_refused(tmp_path, capsys, key, value):
    # int() would cut 1.5 to 1 and read true as 1; float() would read true as 1.0
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}))
    rc = cli.main(["gen-data", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "code=CONFIG_ERROR" in err and key in err
    cfg_file.write_text(json.dumps({"data.n": 20.0, "cdm.lr": 1}))  # whole numbers are taken
    resolved = config.resolve(str(cfg_file))
    assert type(resolved["data.n"]) is int and type(resolved["cdm.lr"]) is float
    assert (resolved["data.n"], resolved["cdm.lr"]) == (20, 1.0)


def test_malformed_config_file_fails_with_config_error(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    for content in (b'{"data.n": 20,', b'{"data.n": 20}\xff'):
        cfg_file.write_bytes(content)
        rc = cli.main(["gen-data", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "code=CONFIG_ERROR" in err and str(cfg_file) in err
    for path in (tmp_path / "missing.json", tmp_path):  # no file, and a directory
        rc = cli.main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "code=CONFIG_ERROR" in err and str(path) in err


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize("stage,key", [("train-cdm", "cdm.batch_size"),
                                       ("train-student", "student.batch_size")])
def test_training_refuses_a_batch_size_below_one(tmp_path, capsys, stage, key, size):
    assert run("gen-data", str(tmp_path)) == 0
    assert run(stage, str(tmp_path), "--set", "student.vanilla=true",
               "--set", f"{key}={size}") == 1
    err = capsys.readouterr().err
    assert "code=CONFIG_ERROR" in err and f"got {size}" in err


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "diffcanon.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout


# ---------------------------------------------------------------- full recipe


def test_recipe_script_makes_the_judged_calls():
    # the tests run conftest.RECIPE through cli.main; the recipe that ships
    # is scripts/run_toy_recipe.sh, and both must be the same 11 calls
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_toy_recipe.sh")
    calls = []
    with open(script) as f:
        for words in map(shlex.split, f):
            if words[:1] != ["run"]:
                continue
            assert len(words) % 2 == 0, f"unpaired argument in {words}"
            pairs = list(zip(words[2::2], words[3::2]))
            assert [p for p in pairs if p[0] != "--set"] == [("--out", "$OUT"),
                                                             ("--seed", "$SEED")]
            calls.append((words[1], [w for p in pairs if p[0] == "--set" for w in p]))
    assert calls == RECIPE


@pytest.fixture(scope="module")
def recipe_dir(tmp_path_factory):
    return run_recipe(str(tmp_path_factory.mktemp("recipe")), *REDUCED)


def test_recipe_produces_all_artifacts(recipe_dir):
    for name in ARTIFACTS:
        path = os.path.join(recipe_dir, name)
        assert os.path.exists(path), f"missing artifact {name}"
        assert os.path.getsize(path) > 0


def test_recipe_writes_one_echo_per_stage_variant(recipe_dir):
    for echo in ECHOES:
        assert os.path.exists(os.path.join(recipe_dir, f"resolved_config.{echo}.json"))


def test_recipe_artifacts_match_golden_digests(recipe_dir):
    assert set(GOLDEN_SHA256) == set(ARTIFACTS)
    moved = []
    for name in ARTIFACTS:
        with open(os.path.join(recipe_dir, name), "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() != GOLDEN_SHA256[name]:
                moved.append(name)
    assert moved == [], f"artifacts differ from their pinned digests: {moved}"


def test_bundle_file_cardinality(recipe_dir):
    with open(os.path.join(recipe_dir, "bundles.jsonl")) as f:
        lines = [json.loads(line) for line in f]
    assert len(lines) == 30  # clarid.n_samples
    for rec in lines:
        assert set(rec) >= {"seed_sample_id", "t_e", "k", "latent",
                            "canonical_sample", "canonical_feature", "cond"}
        assert len(rec["canonical_feature"]) == 80
        assert len(rec["latent"]) == len(rec["canonical_sample"]) == 2


def test_pool_file_matches_per_class_fraction(recipe_dir):
    with open(os.path.join(recipe_dir, "toy_data.csv"), newline="") as f:
        labels = [int(row["label"]) for row in csv.DictReader(f)]
    counts = {c: labels.count(c) for c in (0, 1)}
    expected = sum(max(1, round(0.1 * n)) for n in counts.values())
    with open(os.path.join(recipe_dir, "pool.jsonl")) as f:
        pool = [json.loads(line) for line in f]
    assert len(pool) == expected
    ids = [rec["seed_sample_id"] for rec in pool]
    assert len(set(ids)) == len(ids)


def test_te_report_consistent_with_curve(recipe_dir):
    with open(os.path.join(recipe_dir, "te_report.json")) as f:
        report = json.load(f)
    assert report["chosen"] in report["grid"]
    best = max(report["accuracies"])
    chosen_acc = report["accuracies"][report["grid"].index(report["chosen"])]
    assert chosen_acc >= best - report["tol"]
    with open(os.path.join(recipe_dir, "te_curve.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    assert [int(r["t_e"]) for r in rows] == report["grid"]


def test_metrics_files_have_attack_block(recipe_dir):
    for target in ("student", "vanilla"):
        with open(os.path.join(recipe_dir, f"metrics_{target}.json")) as f:
            m = json.load(f)
        assert m["target"] == target
        assert 0.0 <= m["clean_accuracy"] <= 1.0
        assert 0.0 <= m["robust_accuracy"] <= 1.0
        assert m["attack"] == {"epsilon": 0.1, "steps": 5,
                               "step_size": 0.05, "norm": "linf"}


def test_summary_covers_all_stages(recipe_dir):
    with open(os.path.join(recipe_dir, "summary.csv"), newline="") as f:
        metrics = {row["metric"] for row in csv.DictReader(f)}
    assert {"te_chosen", "nmi_canonical", "nmi_original",
            "student_clean_accuracy", "student_robust_accuracy",
            "vanilla_clean_accuracy", "vanilla_robust_accuracy",
            "median_dist_canonical", "median_dist_baseline"} <= metrics


def test_recipe_rerun_from_echoes_is_byte_identical(recipe_dir, tmp_path):
    rerun = str(tmp_path / "rerun")
    rerun_from_echoes(recipe_dir, rerun)
    for name in ARTIFACTS:
        assert filecmp.cmp(os.path.join(recipe_dir, name),
                           os.path.join(rerun, name), shallow=False), name
    for echo in ECHOES:
        name = f"resolved_config.{echo}.json"
        with open(os.path.join(recipe_dir, name)) as f:
            original = json.load(f)
        with open(os.path.join(rerun, name)) as f:
            rebuilt = json.load(f)
        original.pop("out"), rebuilt.pop("out")
        assert original == rebuilt


# ---------------------------------------------------------------- refused inputs


def copy_artifacts(src: str, dst, *names: str) -> None:
    for name in names:
        shutil.copy(os.path.join(src, name), dst)


@pytest.mark.parametrize("selection", ["clarid.n_samples=0", "clarid.n_samples=-1"])
def test_clarid_refuses_an_empty_selection(recipe_dir, tmp_path, capsys, selection):
    copy_artifacts(recipe_dir, tmp_path, "toy_data.csv", "cdm_checkpoint.json", "te_report.json")
    assert run("clarid", str(tmp_path), "--set", selection) == 1
    assert "code=CONFIG_ERROR" in capsys.readouterr().err
    assert not (tmp_path / "bundles.jsonl").exists()


# Each setting that a stage would read as another value or fail on, the stage
# that reads it, and the artifact that stage must then not write.
REFUSED_SETTINGS = [
    ("clarid", "clarid.cfg_scale", "nan", "bundles.jsonl"),
    ("clarid", "clarid.cfg_scale", "inf", "bundles.jsonl"),
    ("build-pool", "pool.fraction", "nan", "pool.jsonl"),
    ("train-cdm", "cdm.lr", "-inf", "cdm_loss.csv"),
    ("clarid", "clarid.t_e", "-5", "bundles.jsonl"),
    ("clarid", "schedule.ddim_steps", "-1", "bundles.jsonl"),
    ("clarid", "schedule.ddim_steps", "0", "bundles.jsonl"),
    ("build-pool", "pool.fraction", "-1", "pool.jsonl"),
    ("build-pool", "pool.fraction", "0", "pool.jsonl"),
    ("build-pool", "pool.fraction", "7", "pool.jsonl"),
    ("find-te", "te.tol", "-1", "te_curve.csv"),
    ("gen-data", "data.n", "0", "toy_data.csv"),
    ("train-cdm", "schedule.t_max", "0", "cdm_loss.csv"),
    ("find-te", "te.m", "0", "te_curve.csv"),
    ("clarid", "clarid.t_e", "5000", "bundles.jsonl"),
    ("clarid", "clarid.t_r", "-3", "bundles.jsonl"),
    ("attack", "attack.steps", "0", "metrics_student.json"),
    ("attack", "attack.epsilon", "-1", "metrics_student.json"),
    ("attack", "eval.n", "0", "metrics_student.json"),
    ("attack", "attack.target", "foo", "metrics_foo.json"),
    ("attack", "attack.step_size", "-0.05", "metrics_student.json"),
    ("train-cdm", "cdm.epochs", "-1", "cdm_loss.csv"),
    ("train-cdm", "cdm.epochs", "0", "cdm_loss.csv"),
    ("train-student", "student.epochs", "0", "student_checkpoint.json"),
    ("train-student", "student.tau", "0", "student_checkpoint.json"),
    ("train-cdm", "schedule.beta_end", "2", "cdm_loss.csv"),
    ("train-cdm", "schedule.beta_start", "-1", "cdm_loss.csv"),
    ("train-cdm", "cdm.lr", "-0.01", "cdm_loss.csv"),
    ("train-student", "student.lr", "-1", "student_checkpoint.json"),
    ("train-cdm", "cdm.label_drop", "5", "cdm_loss.csv"),
    ("train-student", "student.lambda_cf", "7", "student_checkpoint.json"),
]


@pytest.mark.parametrize("source", ["--set", "--config"])
@pytest.mark.parametrize("stage,key,value,artifact", REFUSED_SETTINGS)
def test_a_setting_out_of_range_is_refused(recipe_dir, tmp_path, capsys, source, stage, key,
                                           value, artifact):
    inputs = ("toy_data.csv", "cdm_checkpoint.json", "te_report.json", "pool.jsonl",
              "student_checkpoint.json")
    copy_artifacts(recipe_dir, tmp_path, *(name for name in inputs if name != artifact))
    if source == "--set":
        extra = [*REDUCED, "--set", f"{key}={value}"]
    else:  # json writes float("nan") as NaN, which json.load reads back
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: type(config.DEFAULTS[key])(value)}))
        extra = ["--config", str(cfg_file)]  # REDUCED's --set pairs would override the file
    assert cli.main([stage, "--out", str(tmp_path), *extra]) == 1
    err = capsys.readouterr().err
    assert "code=CONFIG_ERROR" in err and key in err
    assert not (tmp_path / artifact).exists()
    assert not list(tmp_path.glob("resolved_config.*"))


def test_a_stage_refuses_a_setting_it_does_not_read(tmp_path, capsys):
    assert run("gen-data", str(tmp_path), "--set", "attack.steps=0") == 1
    err = capsys.readouterr().err
    assert "code=CONFIG_ERROR" in err and "attack.steps must be at least 1, got 0" in err
    assert list(tmp_path.iterdir()) == []  # neither the data nor an echo


def test_a_failed_call_keeps_the_last_good_echo(recipe_dir, tmp_path, capsys):
    copy_artifacts(recipe_dir, tmp_path, "toy_data.csv", "cdm_checkpoint.json", "bundles.jsonl")
    assert run("eval-features", str(tmp_path)) == 0
    echo = tmp_path / "resolved_config.eval-features.json"
    before = echo.read_bytes()
    # a damaged artifact is a failure that no range check can see
    (tmp_path / "bundles.jsonl").write_text("{not json\n")
    assert run("eval-features", str(tmp_path), "--set", "clarid.t_r=50") == 1
    assert "code=INVALID_INPUT" in capsys.readouterr().err
    assert echo.read_bytes() == before


@pytest.mark.parametrize("entry", ["abc", "nan", "inf", "2", "-0.1"])
def test_find_te_refuses_a_malformed_grid_fraction(recipe_dir, tmp_path, capsys, entry):
    copy_artifacts(recipe_dir, tmp_path, "cdm_checkpoint.json")
    assert run("find-te", str(tmp_path), "--set", f"te.grid_fractions=0.5,{entry}") == 1
    err = capsys.readouterr().err
    assert "code=CONFIG_ERROR" in err and f"te.grid_fractions: {entry!r}" in err
    assert not (tmp_path / "te_report.json").exists()


def test_clarid_inverts_once_to_t_e_and_once_to_t_r(recipe_dir, tmp_path, monkeypatch):
    # the unprojected baseline decodes the latents that canonicalization
    # inverted; only the canonical samples' features invert again, to t_r
    copy_artifacts(recipe_dir, tmp_path, "toy_data.csv", "cdm_checkpoint.json", "te_report.json")
    targets = []
    invert = diffusion.invert_batch

    def counted(x0, target_t, *args, **kwargs):
        targets.append(target_t)
        return invert(x0, target_t, *args, **kwargs)

    monkeypatch.setattr(diffusion, "invert_batch", counted)
    monkeypatch.setattr(canon, "invert_batch", counted)
    assert run("clarid", str(tmp_path)) == 0
    with open(tmp_path / "te_report.json") as f:
        t_e = json.load(f)["chosen"]
    assert targets == [t_e, config.DEFAULTS["clarid.t_r"]]
    for name in ("bundles.jsonl", "before_after.csv"):
        assert filecmp.cmp(os.path.join(recipe_dir, name), tmp_path / name, shallow=False)


def test_failed_json_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "te_report.json"
    cli._write_json({"chosen": 400}, str(path))
    before = path.read_bytes()
    # json.dump writes the first key before it meets the value it cannot encode
    with pytest.raises(TypeError):
        cli._write_json({"a": 1, "b": object()}, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["te_report.json"]


def test_eval_features_refuses_an_empty_bundle_file(recipe_dir, tmp_path, capsys):
    copy_artifacts(recipe_dir, tmp_path, "toy_data.csv", "cdm_checkpoint.json")
    (tmp_path / "bundles.jsonl").write_text("")
    assert run("eval-features", str(tmp_path)) == 1
    assert "code=INVALID_INPUT" in capsys.readouterr().err


def test_find_te_refuses_a_checkpoint_that_is_not_a_json_object(tmp_path, capsys):
    (tmp_path / "cdm_checkpoint.json").write_text("[]")
    assert run("find-te", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "code=INVALID_INPUT" in err and "cdm_checkpoint.json" in err


def test_find_te_refuses_a_checkpoint_with_a_nan_parameter(recipe_dir, tmp_path, capsys):
    with open(os.path.join(recipe_dir, "cdm_checkpoint.json")) as f:
        payload = json.load(f)
    payload["params"]["b3"][0] = float("nan")
    (tmp_path / "cdm_checkpoint.json").write_text(json.dumps(payload))  # writes NaN
    assert run("find-te", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "code=INVALID_INPUT" in err and "cdm_checkpoint.json" in err and "b3" in err
    assert not (tmp_path / "te_report.json").exists()


def test_train_student_folds_a_trailing_one_row_batch(recipe_dir, tmp_path, capsys):
    # 129 rows at batch size 128 would leave a last batch of one row, which
    # has no cluster peer and no CKA; that row joins the batch before it
    copy_artifacts(recipe_dir, tmp_path, "cdm_checkpoint.json", "te_report.json")
    n129 = ("--set", "data.n=129", "--set", "student.epochs=2")
    assert run("gen-data", str(tmp_path), *n129) == 0
    assert run("build-pool", str(tmp_path), *n129) == 0
    assert run("train-student", str(tmp_path), *n129) == 0, capsys.readouterr().err
    with open(tmp_path / "student_loss.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert all(np.isfinite(float(r[k])) for r in rows for k in ("cluster", "cka"))


@pytest.mark.parametrize("n", ["400", "50"], ids=["labels-differ", "rows-missing"])
@pytest.mark.parametrize("stage,artifact", [("eval-features", "bundles.jsonl"),
                                            ("train-student", "pool.jsonl")])
def test_bundles_made_from_another_dataset_are_refused(recipe_dir, tmp_path, capsys, stage,
                                                       artifact, n):
    # the seed-0 recipe's bundles or pool, then the data of seed 1: as many rows,
    # with other labels, or fewer rows than the bundles name
    copy_artifacts(recipe_dir, tmp_path, "cdm_checkpoint.json", artifact)
    assert run("gen-data", str(tmp_path), "--set", f"data.n={n}", seed=1) == 0
    assert run(stage, str(tmp_path), "--set", f"data.n={n}", seed=1) == 1
    err = capsys.readouterr().err
    assert "code=INVALID_INPUT" in err and f"{artifact} line " in err
    assert not {"features_report.json", "student_checkpoint.json"} & set(os.listdir(tmp_path))


@pytest.mark.parametrize("report", ["{not json", "[500]", "{}", '{"chosen": "500"}',
                                    '{"chosen": 500.0}', '{"chosen": 5000}', '{"chosen": 0}',
                                    '{"chosen": -100}'],
                         ids=["not-json", "not-an-object", "no-chosen", "chosen-a-string",
                              "chosen-a-float", "chosen-past-t_max", "chosen-0",
                              "chosen-negative"])
def test_clarid_refuses_a_damaged_te_report(recipe_dir, tmp_path, capsys, report):
    copy_artifacts(recipe_dir, tmp_path, "toy_data.csv", "cdm_checkpoint.json")
    (tmp_path / "te_report.json").write_text(report)
    assert run("clarid", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "code=INVALID_INPUT" in err and "te_report.json" in err
    assert not (tmp_path / "bundles.jsonl").exists()


@pytest.mark.parametrize("name,text", [
    ("te_report.json", "{}"),
    ("te_report.json", "xx"),
    ("te_report.json", '{"chosen": 1000, "accuracies": "abc"}'),
    ("features_report.json", "[1]"),
    ("metrics_student.json", '{"clean_accuracy": 1}'),
    ("before_after.csv", "sample_id,dist_base\n0,0.5\n"),
    ("before_after.csv", "sample_id,dist_base,dist_canon\n0,0.5,x\n"),
], ids=["te-no-chosen", "te-not-json", "te-accuracies-a-string", "features-a-list",
        "metrics-no-robust", "csv-no-dist_canon", "csv-dist_canon-x"])
def test_report_refuses_a_damaged_artifact(tmp_path, capsys, name, text):
    (tmp_path / name).write_text(text)
    assert run("report", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "code=INVALID_INPUT" in err and name in err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("pool", ["class 0 only", "empty"])
def test_train_student_refuses_a_pool_missing_a_class(recipe_dir, tmp_path, capsys, pool):
    copy_artifacts(recipe_dir, tmp_path, "toy_data.csv", "pool.jsonl")
    path = tmp_path / "pool.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    kept, missing = [], 0
    if pool == "class 0 only":
        kept, missing = [line for line in lines if json.loads(line)["cond"] == 0], 1
    assert len(kept) < len(lines)
    path.write_text("".join(kept))
    assert run("train-student", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "code=INVALID_INPUT" in err and f"pool.jsonl has no entries for class {missing}" in err
    assert not (tmp_path / "student_checkpoint.json").exists()


@pytest.mark.parametrize("key,value", [("schedule.ddim_eta", 0.0), ("attack.norm", "linf"),
                                       ("cdm.weight_decay", 0.0), ("student.optimizer", "adam"),
                                       ("student.momentum", 0.9), ("clarid.layer", 2)])
def test_echo_with_a_deleted_key_is_refused(recipe_dir, tmp_path, capsys, key, value):
    # an echo written while the key existed still holds it
    with open(os.path.join(recipe_dir, "resolved_config.clarid.json")) as f:
        cfg = json.load(f)
    cfg[key] = value
    cfg_path = tmp_path / "old_echo.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["clarid", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert "code=CONFIG_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["train-cdm", "train-student"])
@pytest.mark.parametrize("damage", ["label 2", "short row"])
def test_training_refuses_a_damaged_data_file(tmp_path, capsys, stage, damage):
    assert run("gen-data", str(tmp_path)) == 0
    path = tmp_path / "toy_data.csv"
    lines = path.read_text().splitlines()
    x1, x2, _ = lines[5].split(",")
    lines[5] = f"{x1},{x2},2" if damage == "label 2" else f"{x1},{x2}"
    path.write_text("\r\n".join(lines) + "\r\n")
    assert run(stage, str(tmp_path), "--set", "student.vanilla=true") == 1
    err = capsys.readouterr().err
    assert "code=INVALID_INPUT" in err and "line 6" in err


@pytest.mark.parametrize("damage", ["not json", "missing field", "id past the data"])
def test_eval_features_refuses_a_damaged_bundle_file(recipe_dir, tmp_path, capsys, damage):
    copy_artifacts(recipe_dir, tmp_path, "toy_data.csv", "cdm_checkpoint.json", "bundles.jsonl")
    path = tmp_path / "bundles.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    if damage == "not json":
        lines[2] = lines[2][:-1]
    elif damage == "missing field":
        del record["seed_sample_id"]
        lines[2] = json.dumps(record)
    else:
        record["seed_sample_id"] = 5000
        lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    assert run("eval-features", str(tmp_path)) == 1
    assert "code=INVALID_INPUT" in capsys.readouterr().err
