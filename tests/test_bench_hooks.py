"""Every function the benchmark tracer wraps still exists where it looks.

perfbench/tracing.py patches diffcanon from outside by module and
qualified name. A rename or a move in the program would otherwise only
show when the benchmark runs.
"""
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import diffcanon
from diffcanon import canon, diffusion
from diffcanon.rng import Rng

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
    sched = diffusion.linear_schedule(t_max=100, ddim_steps=10)
    tracer.install()
    try:
        canon.canonicalize_batch(np.zeros((3, 2)), np.array([0, 1, 0]),
                                 diffusion.CondDenoiser(Rng(0)), sched, t_e=50)
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
