"""Every function the benchmark tracer wraps still exists where it looks.

perfbench/tracing.py patches diffcanon from outside by module and
qualified name. A rename or a move in the program would otherwise only
show when the benchmark runs.
"""
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import diffcanon

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {info.name: importlib.import_module(f"diffcanon.{info.name}")
               for info in pkgutil.iter_modules(diffcanon.__path__)}
    return modules, tracing.targets(modules)


MODULES_BY_NAME, TARGETS = load_targets()


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
