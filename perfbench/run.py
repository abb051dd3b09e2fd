"""Run one diffcanon benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload recipe --seed 0 --seconds 58 --trace 0

The run imports the program from `src/` of the checkout it sits in and
drives it only through `cli.main`, one stage at a time (a closed loop
with one caller). It repeats the workload's set-up and timed phase, each
repetition in a fresh directory under `.perfbench/` that it deletes
afterwards, while the next repetition would end within `--seconds`.
The first repetition is a warm-up whose times are not used. A phase's
time is its median over the other repetitions, in seconds
(`phase_median`) and, for the timed phase, in units of a reference loop
timed around every op (`relative_median`).

With `--trace 0` the last line of standard output is the result with the
end-to-end metrics of BENCHMARK.json. With `--trace 1` every other
repetition runs with the span tracer installed; the result then holds the
per-layer metrics, the spans go to `.perfbench/spans-<workload>.jsonl`,
and the full per-layer table is printed above the result. Metric names
and units are listed in GLOSSARY.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # a run writes no .pyc files into the checkout

from tracing import Tracer, layer_metrics, median_metrics, unit_of  # noqa: E402
from workloads import WORK_COUNTS, WORKLOADS, CheckFailed, Op, Workload, check  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(Exception):
    """The checkout holds no diffcanon sources to benchmark."""


def pin_blas_threads() -> None:
    """Single-threaded BLAS; takes effect only before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def load_program(root: Path):
    """Import diffcanon from the checkout's src/ and return its cli module."""
    src = root / "src"
    if not (src / "diffcanon" / "cli.py").is_file():
        raise ProgramMissing(f"no diffcanon sources under {src}")
    sys.path.insert(0, str(src))
    from diffcanon import cli
    if Path(cli.__file__).resolve().parent != (src / "diffcanon").resolve():
        raise ProgramMissing(f"diffcanon was imported from {cli.__file__}, not from {src}")
    return cli


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(root),
    }


# ------------------------------------------------------------------ running


@dataclass
class OpResult:
    op: Op
    phase: str
    seconds: float
    reference_s: float = 0.0  # mean reference loop time around the op
    values: dict[str, float] = field(default_factory=dict)
    problem: str | None = None


@dataclass
class Iteration:
    ops: list[OpResult]
    traced: bool
    warmup: bool = False
    layers: dict[str, float] | None = None


def phase_median(iterations: list[Iteration], phase: str | None = None,
                 stage: str | None = None) -> float:
    """Median over the repetitions of the summed time of the selected ops."""
    return statistics.median(
        sum(r.seconds for r in it.ops if phase in (None, r.phase) and stage in (None, r.op.stage))
        for it in iterations)


def relative_median(iterations: list[Iteration], phase: str) -> float:
    """Median over the repetitions of the phase's time in reference loops:
    the sum over its ops of each op's time divided by the reference loop's
    mean time just before and just after that op.

    On the 2-vCPU virtual machine of GLOSSARY.md's baseline the host cores
    are shared, and a CPU's speed changes by up to 1.7x within seconds and
    differs by up to 1.3x between minute-long runs. The reference loop,
    timed on the same CPU next to every op, slows down with it, so the
    ratio keeps the program's cost and drops about half of the machine's
    noise.
    """
    return statistics.median(
        sum(r.seconds / r.reference_s for r in it.ops if r.phase == phase)
        for it in iterations)


REFERENCE_LOOPS = 3  # timed at every op boundary


@functools.cache
def _reference_arrays():
    import numpy as np
    rng = np.random.default_rng(0)
    return rng.standard_normal((128, 64)), rng.standard_normal((64, 64))


def reference_seconds() -> list[float]:
    """Time a fixed loop of small numpy calls, like the program's own mix,
    `REFERENCE_LOOPS` times.

    One loop is 300 products of a 128x64 by a 64x64 matrix plus tanh, about
    13 ms on the baseline machine; the arrays never change.
    """
    import numpy as np
    a, w = _reference_arrays()
    times = []
    for _ in range(REFERENCE_LOOPS):
        start = time.perf_counter()
        for _ in range(300):
            np.tanh(a @ w)
        times.append(time.perf_counter() - start)
    return times


def run_op(cli, workload: Workload, op: Op, phase: str, out: Path, seed: int,
           tracer: Tracer | None) -> OpResult:
    argv = workload.argv(op, str(out), seed)
    span = tracer.begin(f"cli.stage.{op.label}") if tracer else None
    start = time.perf_counter()
    code = cli.main(argv)
    seconds = time.perf_counter() - start
    if tracer:
        tracer.end(span)
    result = OpResult(op, phase, seconds)
    if code != 0:
        result.problem = f"exit code {code}"
        return result
    try:
        result.values = check(op, out)
    except CheckFailed as exc:
        result.problem = str(exc)
    return result


def run_iteration(cli, workload: Workload, seed: int, tracer: Tracer | None = None,
                  run_id: str = "", warmup: bool = False) -> Iteration:
    """One set-up plus timed phase in a fresh directory, deleted afterwards."""
    SCRATCH.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    results = []
    try:
        if tracer:
            tracer.run_id, tracer.tensors = run_id, 0
            first = len(tracer.spans)
            root = tracer.begin("iteration")
        before = reference_seconds()
        for phase, ops in (("setup", workload.setup), ("timed", workload.timed)):
            for op in ops:
                result = run_op(cli, workload, op, phase, out, seed, tracer)
                after = reference_seconds()
                result.reference_s = statistics.mean(before + after)
                results.append(result)
                before = after
        if not tracer:
            return Iteration(results, traced=False, warmup=warmup)
        tracer.end(root)
        artifact_bytes = sum(p.stat().st_size for p in out.iterdir())
        layers = layer_metrics(tracer.spans, list(range(first, len(tracer.spans))),
                               tracer.tensors, artifact_bytes)
        return Iteration(results, traced=True, layers=layers)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_workload(cli, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> list[Iteration]:
    """Repeat the workload while the next repetition, at the mean pace so far,
    would end within `seconds`.

    The first repetition is a warm-up: its ops are checked and counted, but
    its times are not used, because lazy imports and first-call caches make
    it slower than the rest. With tracing, odd repetitions are traced and
    even ones are not, so the run measures its own tracing overhead. A run
    makes at least one measured repetition of each kind.
    """
    tracer = Tracer() if trace else None
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 1
        if traced:
            tracer.install()
        try:
            it = run_iteration(cli, workload, seed, tracer if traced else None,
                               run_id=f"{workload.name}-s{seed}-i{len(iterations)}",
                               warmup=not iterations)
        finally:
            if traced:
                tracer.uninstall()
        if iterations:
            flag_nondeterminism(iterations[0], it)
        iterations.append(it)
        elapsed = time.perf_counter() - start
        enough = len(iterations) >= (3 if trace else 2)
        if enough and elapsed * (len(iterations) + 1) / len(iterations) > seconds:
            break
    if tracer:
        SCRATCH.mkdir(exist_ok=True)
        tracer.dump(str(SCRATCH / f"spans-{workload.name}.jsonl"))
    return iterations


def flag_nondeterminism(first: Iteration, it: Iteration) -> None:
    """One seed must give the same outputs in every repetition."""
    for a, b in zip(first.ops, it.ops):
        if b.problem is None and a.problem is None and a.values != b.values:
            b.problem = f"outputs differ from the first repetition: {a.values} vs {b.values}"


# ------------------------------------------------------------------ reporting


def measured(iterations: list[Iteration], traced: bool) -> list[Iteration]:
    """The repetitions whose times count: traced or not, never the warm-up."""
    return [it for it in iterations if it.traced == traced and not it.warmup]


def end_to_end(iterations: list[Iteration]) -> dict[str, tuple[float, str]]:
    """Every end-to-end figure of the run, by name, with its unit."""
    plain = measured(iterations, traced=False)
    ops = [r for it in iterations for r in it.ops]
    m = {
        "wall_ref": (relative_median(plain, "timed"), "ref"),
        "wall_s": (phase_median(plain, "timed"), "s"),
        "setup_s": (phase_median(plain, "setup"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_ops_frac": (sum(r.problem is not None for r in ops) / len(ops), "ratio"),
        "ops": (len(ops), "count"),
    }
    work: dict[str, float] = {}
    quality: dict[str, float] = {}
    for r in plain[0].ops:
        for k, v in r.values.items():
            if k in WORK_COUNTS:
                work[k] = work.get(k, 0) + v
            else:
                quality.setdefault(k, v)
    for key, (name, stage, unit) in WORK_COUNTS.items():
        if key in work:
            m[name] = (work[key] / phase_median(plain, stage=stage), unit)
    for k, v in sorted(quality.items()):
        m[k] = (v, "ratio" if "acc" in k or k.endswith("_ratio") else "distance")
    return m


def per_layer(iterations: list[Iteration]) -> dict[str, tuple[float, str]]:
    traced, plain = measured(iterations, traced=True), measured(iterations, traced=False)
    layers = median_metrics([it.layers for it in traced])
    layers["trace.overhead_s"] = phase_median(traced, "timed") - phase_median(plain, "timed")
    return {k: (v, unit_of(k)) for k, v in layers.items()}


def result_line(iterations: list[Iteration], metrics: dict[str, tuple[float, str]],
                wanted: list[dict]) -> dict:
    ops = [r for it in iterations for r in it.ops]
    failed = sum(r.problem is not None for r in ops)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {w["name"]: {"value": metrics[w["name"]][0], "unit": w["unit"]}
                        for w in wanted}}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    try:
        cli = load_program(ROOT)
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]()
    iterations = run_workload(cli, workload, args.seed, args.seconds, bool(args.trace))
    try:
        SCRATCH.rmdir()  # left in place when it holds a spans file
    except OSError:
        pass

    print("env " + json.dumps({**environment(ROOT), "workload": workload.name,
                               "seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace, "repetitions": len(iterations)}))
    for it in iterations:
        for r in it.ops:
            if r.problem is not None:
                print(f"FAILED {r.op.label} ({r.phase}): {r.problem}", file=sys.stderr)
    metrics = per_layer(iterations) if args.trace else end_to_end(iterations)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {unit}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps(result_line(iterations, metrics, wanted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
