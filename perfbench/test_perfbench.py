"""Self-tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench

The in-process tests use each workload's tiny variant, which makes the
same calls and checks as the measured one at toy sizes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import END, NAME, PARENT, START, Tracer, self_times, targets, unit_of
from workloads import WORKLOADS, CheckFailed, Op, Workload, check

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "bytes", "GFLOP")


@pytest.fixture(scope="module")
def cli():
    run.pin_blas_threads()
    return run.load_program(run.ROOT)


@pytest.fixture(scope="module")
def traced_recipe(cli):
    """Two traced runs of the tiny recipe on one seed, with the spans of the second."""
    wl = WORKLOADS["recipe"](tiny=True)
    first = run.run_workload(cli, wl, 3, 0.0, trace=True)
    second = run.run_workload(cli, wl, 3, 0.0, trace=True)
    spans_path = run.SCRATCH / f"spans-{wl.name}.jsonl"
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    return first, second, spans


def failures(iterations) -> list[tuple[str, str]]:
    return [(r.op.label, r.problem) for it in iterations for r in it.ops if r.problem]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1])
def test_tiny_workload_passes_its_checks(cli, name, seed):
    iterations = run.run_workload(cli, WORKLOADS[name](tiny=True), seed, 0.0, trace=False)
    assert failures(iterations) == []
    metrics = run.end_to_end(iterations)
    line = run.result_line(iterations, metrics, SPEC["end_to_end"])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        assert line["metrics"][m["name"]]["value"] > 0


def test_failed_ops_are_counted_and_the_run_goes_on(cli):
    tiny = WORKLOADS["recipe"](tiny=True)
    broken = Workload("broken", tiny.settings, setup=(Op("gen-data"),),
                      timed=(Op("attack"), Op("find-te")))
    iterations = run.run_workload(cli, broken, 0, 0.0, trace=False)
    line = run.result_line(iterations, run.end_to_end(iterations), SPEC["end_to_end"])
    # a warm-up and one measured repetition, each of three ops, two failing
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 6, 4)


def _artifacts(out: Path, label: str, cfg: dict, files: dict[str, str]) -> None:
    (out / f"resolved_config.{label}.json").write_text(json.dumps(cfg))
    for name, text in files.items():
        (out / name).write_text(text)


def test_checks_reject_bad_artifacts(tmp_path):
    attack = Op("attack", ("--set", "attack.target=student"))
    _artifacts(tmp_path, attack.label,
               {"attack.target": "student", "attack.epsilon": 0.5, "attack.steps": 2,
                "eval.n": 10},
               {"metrics_student.json": json.dumps({"clean_accuracy": 0.9,
                                                    "robust_accuracy": 0.95})})
    with pytest.raises(CheckFailed, match="above clean"):
        check(attack, tmp_path)

    bundle = {"k": 3, "latent": [0.0, 0.0], "canonical_sample": [0.0, 0.0],
              "canonical_feature": [0.0]}
    _artifacts(tmp_path, "clarid", {"clarid.n_samples": 1, "data.n": 10},
               {"bundles.jsonl": json.dumps(bundle) + "\n",
                "before_after.csv": "dist_canon\n0.1\n"})
    with pytest.raises(CheckFailed, match="k=3"):
        check(Op("clarid"), tmp_path)

    _artifacts(tmp_path, "report", {}, {"summary.csv": "metric,value\nte_chosen,1000\n"})
    with pytest.raises(CheckFailed, match="1 rows"):
        check(Op("report"), tmp_path)


def test_seeds_generate_different_inputs(cli, tmp_path):
    wl = WORKLOADS["recipe"]()
    data = []
    for seed in (0, 1):
        out = tmp_path / str(seed)
        assert cli.main(wl.argv(Op("gen-data"), str(out), seed)) == 0
        data.append((out / "toy_data.csv").read_bytes())
    assert data[0] != data[1]


def test_traced_run_reports_every_per_layer_metric(traced_recipe):
    _, second, _ = traced_recipe
    assert failures(second) == []
    metrics = run.per_layer(second)
    line = run.result_line(second, metrics, SPEC["per_layer"])
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert m["unit"] == unit_of(m["name"])
        assert metrics[m["name"]][0] != 0, m["name"]


def test_phase_times_skip_the_warmup_and_divide_by_the_reference_loop():
    def iteration(setup_s, timed_s, reference_s, warmup=False):
        ops = [run.OpResult(Op("gen-data"), "setup", setup_s, reference_s),
               run.OpResult(Op("train-cdm"), "timed", timed_s, reference_s),
               run.OpResult(Op("find-te"), "timed", timed_s, 2 * reference_s)]
        return run.Iteration(ops, traced=False, warmup=warmup)

    iterations = [iteration(9.0, 9.0, 1.0, warmup=True),
                  iteration(1.0, 2.0, 0.5), iteration(3.0, 6.0, 1.0), iteration(2.0, 2.0, 0.1)]
    plain = run.measured(iterations, traced=False)
    assert len(plain) == 3
    assert run.phase_median(plain, "setup") == 2.0
    assert run.phase_median(plain, "timed") == 4.0
    # per repetition: 2/0.5 + 2/1 = 6, 6/1 + 6/2 = 9, 2/0.1 + 2/0.2 = 30
    assert run.relative_median(plain, "timed") == pytest.approx(9.0)


def test_count_metrics_repeat_across_traced_runs(traced_recipe):
    first, second, _ = traced_recipe
    a, b = run.per_layer(first), run.per_layer(second)
    counts = [k for k, (_, unit) in a.items() if unit in EXACT_UNITS]
    assert len(counts) > 20
    assert {k: a[k][0] for k in counts} == {k: b[k][0] for k in counts}


def test_span_self_times_sum_to_traced_wall_time(traced_recipe):
    _, second, spans = traced_recipe
    records = [[s["name"], s["start"], s["end"], s["parent"], s["run"], s["attrs"]]
               for s in spans]
    indices = list(range(len(records)))
    own = self_times(records, indices)
    traced = next(it for it in second if it.traced)
    stage_ids = [i for i in indices if records[i][NAME].startswith("cli.stage.")]
    assert len(stage_ids) == len(traced.ops)
    total = 0.0
    for i, r in zip(stage_ids, traced.ops):
        below = [j for j in indices if _descends_from(records, j, i)]
        span_time = records[i][END] - records[i][START]
        assert sum(own[j] for j in below) == pytest.approx(span_time, abs=1e-9)
        assert span_time == pytest.approx(r.seconds, abs=1e-3)
        total += span_time if r.phase == "timed" else 0.0
    timed = sum(r.seconds for r in traced.ops if r.phase == "timed")
    assert total == pytest.approx(timed, rel=1e-3)


def _descends_from(records, j: int, ancestor: int) -> bool:
    while j >= 0:
        if j == ancestor:
            return True
        j = records[j][PARENT]
    return False


def test_tracer_patches_every_lookup_site(cli):
    modules = {n: m for n, m in sys.modules.items() if n.startswith("diffcanon")}
    by_name = {n.rsplit(".", 1)[-1]: m for n, m in modules.items()}
    names = [(module_name, qualname) for module_name, qualname, _, _ in targets(by_name)]

    def resolve(module_name: str, qualname: str):
        owner = by_name[module_name]
        for part in qualname.split("."):
            owner = vars(owner)[part]
        return owner

    originals = {id(resolve(*n)) for n in names}

    def lookups() -> list:
        """Every module attribute or class entry that still holds an original."""
        attrs = [(n, a) for n, m in modules.items() for a, v in vars(m).items()
                 if id(v) in originals]
        return attrs + [n for n in names if id(resolve(*n)) in originals]

    before = lookups()
    tracer = Tracer()
    tracer.install()
    try:
        assert lookups() == []
    finally:
        tracer.uninstall()
    assert lookups() == before


def _tree_snapshot(root: Path) -> dict[str, float]:
    skip = {".git", ".perfbench", "__pycache__", ".pytest_cache", ".hypothesis"}
    snap = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for f in filenames:
            p = os.path.join(dirpath, f)
            snap[os.path.relpath(p, root)] = os.stat(p).st_mtime_ns
    return snap


def test_command_line_run_is_hermetic_and_prints_result():
    before = _tree_snapshot(run.ROOT)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "canon-extract", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    env = json.loads(lines[0][len("env "):])
    assert all(env["blas_threads"][v] == "1" for v in run.BLAS_THREAD_VARS)
    assert _tree_snapshot(run.ROOT) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recipe", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
