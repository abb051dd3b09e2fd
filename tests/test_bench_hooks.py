"""Every function the benchmark tracer wraps still exists where it looks.

perfbench/tracing.py patches diffcanon from outside by module and
qualified name. A rename or a move in the program would otherwise only
show when the benchmark runs.
"""
import importlib
import importlib.util
import os
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import diffcanon
from diffcanon import canon, config, diffusion, distill
from diffcanon.autodiff import Tensor
from diffcanon.rng import Rng

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
WORKLOADS = TRACING.parent / "workloads.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {info.name: importlib.import_module(f"diffcanon.{info.name}")
               for info in pkgutil.iter_modules(diffcanon.__path__)}
    return tracing, modules, tracing.targets(modules)


TRACING_MODULE, MODULES_BY_NAME, TARGETS = load_targets()


@pytest.mark.parametrize("module_name,qualname",
                         [(t[0], t[1]) for t in TARGETS], ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_traced_target_resolves(module_name, qualname):
    assert module_name in MODULES_BY_NAME, f"no module diffcanon.{module_name}"
    owner = MODULES_BY_NAME[module_name]
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        cls = getattr(owner, cls_name, None)
        assert isinstance(cls, type), f"diffcanon.{module_name}.{cls_name} is not a class"
        # the tracer reads the class dict, so an inherited method does not count
        assert meth in vars(cls), f"{qualname} is not defined on {cls_name} itself"
        assert callable(vars(cls)[meth])
    else:
        assert callable(getattr(owner, qualname, None)), f"diffcanon.{module_name}.{qualname}"


def test_canonicalize_reaches_the_traced_jacobian_and_svd():
    # the benchmark's canon.jacobian, diffusion.feature_jvp and numerics.svd
    # metrics read 0 if canonicalize_batch stops calling them by these names
    tracer = TRACING_MODULE.Tracer()
    sched = diffusion.linear_schedule(ddim_steps=10)
    tracer.install()
    try:
        canon.canonicalize_batch(np.zeros((3, 2)), np.array([0, 1, 0]),
                                 diffusion.CondDenoiser(Rng(0)), sched, t_e=500,
                                 cfg_scale=1.0, t_r=100)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    top = [i for i, s in enumerate(spans) if s[TRACING_MODULE.NAME] == "canon.canonicalize"]
    assert len(top) == 1

    def under_top(i):
        while i >= 0 and i != top[0]:
            i = spans[i][TRACING_MODULE.PARENT]
        return i == top[0]

    for name in ("canon.jacobian", "diffusion.feature_jvp", "numerics.svd"):
        assert any(s[TRACING_MODULE.NAME] == name and under_top(i)
                   for i, s in enumerate(spans)), name


def test_student_forward_rows_read_the_tensor_shape():
    # the benchmark's distill.forward.rows reads Tensor.shape by duck typing and
    # counts one row where it finds no shape, so without the property it would
    # quietly read one row per call
    tracer = TRACING_MODULE.Tracer()
    student = distill.StudentClassifier(Rng(0))
    tracer.install()
    try:
        student.forward_graph(Tensor(Rng(1).normal((5, 2))))
    finally:
        tracer.uninstall()
    rows = [s[TRACING_MODULE.ATTRS]["rows"] for s in tracer.spans
            if s[TRACING_MODULE.NAME] == "distill.forward"]
    assert rows == [5]


def test_split_rows_keep_the_tracer_span_stack_whole(monkeypatch):
    # perfbench's self-tests run tiny workloads that stay below PARALLEL_ROWS, so
    # only this test puts the tracer over a trajectory split into two processes;
    # the child's spans stay in the child, so the tracer sees the parent's only
    monkeypatch.setattr(diffusion, "_WORKERS", 2)
    tracing = TRACING_MODULE
    tracer = tracing.Tracer()
    model = diffusion.CondDenoiser(Rng(0))
    sched = diffusion.linear_schedule(ddim_steps=10)
    b = 2 * diffusion.PARALLEL_ROWS
    x = Rng(1).normal((b, 2))
    tracer.install()
    try:
        model.eps(x, 50, np.zeros(b, dtype=np.int64))
        # guided: a null and a conditional call of the head rows per step
        out = diffusion.decode_batch(x, 500, 1, model, sched, cfg_scale=3.0)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert out.shape == (b, 2)
    assert all(s[tracing.END] is not None for s in spans)
    steps = len(diffusion.ddim_grid(sched, 500)) - 1
    rows = [s[tracing.ATTRS]["rows"] for s in spans if s[tracing.NAME] == "diffusion.eps"]
    head = round(b / 2 / diffusion._ROW_ALIGN) * diffusion._ROW_ALIGN
    assert rows == [b] + [head] * (2 * steps)
    assert [s[tracing.NAME] for s in spans].count("diffusion.decode") == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_rows_are_counted_exactly_under_the_tracer():
    # the benchmark's distill.canon_unique_frac counts distinct objects among what
    # sample_bundles returns, which counts distinct rows only while a row drawn twice
    # in one call is one object, also for rows past the small-int cache (256)
    n = 600
    rng = Rng(3)
    bundles = canon.Bundles(seed_sample_id=np.arange(n), t_e=np.full(n, 400),
                            k=np.ones(n, dtype=np.int64), cond=np.arange(n) % 2,
                            latent=rng.normal((n, 2)), canonical_sample=rng.normal((n, 2)),
                            canonical_feature=rng.normal((n, 8)))
    labels = rng.integers(0, 2, size=400)
    tracer = TRACING_MODULE.Tracer()
    tracer.install()
    try:
        draws = [distill.sample_bundles(bundles, labels, rng) for _ in range(2)]
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s[TRACING_MODULE.NAME] == "distill.sample_bundles"]
    assert len(spans) == 2
    for span, rows in zip(spans, draws):
        assert span[TRACING_MODULE.ATTRS]["rows"] == len(labels)
        assert span[TRACING_MODULE.ATTRS]["unique"] == len(set(rows))
        assert len(set(rows)) < len(rows)
        assert max(rows) > 256


def test_benchmark_names_only_config_keys(monkeypatch):
    # the workloads' --set pairs and the checks' reads of the echoed config name
    # keys; a deleted or renamed key would otherwise only show when the benchmark runs
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    set_keys = set()
    for make in workloads.WORKLOADS.values():
        for w in (make(), make(tiny=True)):
            for op in (*w.setup, *w.timed):
                argv = w.argv(op, "out", 0)
                set_keys |= {pair.split("=", 1)[0]
                             for flag, pair in zip(argv, argv[1:]) if flag == "--set"}
    read_keys = set(re.findall(r"""cfg\[["']([\w.]+)["']\]""", WORKLOADS.read_text()))
    assert read_keys >= {"clarid.n_samples", "data.n", "attack.target", "attack.epsilon",
                         "eval.n", "attack.steps"}
    assert sorted((set_keys | read_keys) - set(config.DEFAULTS)) == []
