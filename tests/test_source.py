"""Guard: the program's source holds only what the program itself refers to.

Code that only the tests call belongs beside the tests (`tape_oracle.py`,
`exact_oracle.py`), not in `src/diffcanon/`, and a function takes the
arrays its stage passes, with no input form that only tests use.
"""

import ast
import functools
import inspect
import io
import tokenize
from collections import defaultdict
from pathlib import Path

import diffcanon
from diffcanon import cli, config

SRC = Path(diffcanon.__file__).parent

# The definitions no code in src/ refers to by name, and why each stays.
UNREFERENCED = {
    "SgdMomentum": "perfbench hook",
}

# The settings with no config.RANGES entry, and why each needs none.
UNRANGED = {
    "seed": "any integer seeds the generator",
    "out": "any directory path",
    "te.grid_fractions": "each entry is checked by grid_from_config",
    "student.vanilla": "a boolean",
    "clarid.cfg_scale": "any finite guidance weight is defined",
}

# The functions that lift their input with np.atleast_1d or np.atleast_2d, and why.
COERCED = {
    "CondDenoiser._cache": "one (2,) point, a form of the denoiser interface that "
                           "exact_oracle.py shares and the feature and Jacobian tests use",
    "_walk_batch": "one point, and one cond or te_switch for every row, forms of the "
                   "decode and invert interface that the walk tests use",
}


def definitions(tree: ast.Module):
    """(name, first line, last line) of every top-level function and class, and of
    every method but the dunder ones, which Python calls without naming them."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, item.lineno, item.end_lineno


def unreferenced_definitions() -> set[str]:
    """Names of the definitions that no NAME token outside their own body refers to.

    A token inside a definition found unreferenced does not count either, so
    the search repeats until it drops nothing more.
    """
    defs, uses = [], defaultdict(list)  # uses: name -> (file, line) of each NAME token
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        defs += [(path.name, *d) for d in definitions(ast.parse(text))]
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                uses[tok.string].append((path.name, tok.start[0]))

    def inside(use, d):
        return use[0] == d[0] and d[2] <= use[1] <= d[3]

    dropped: set[tuple] = set()
    while True:
        newly = {d for d in defs if d not in dropped
                 and not any(not inside(use, d) and not any(inside(use, x) for x in dropped)
                             for use in uses[d[1]])}
        if not newly:
            return {d[1] for d in dropped}
        dropped |= newly


def coercion_sites() -> set[str]:
    """Qualified names of the functions in src/ that call np.atleast_1d or np.atleast_2d."""
    sites = set()

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if getattr(child, "attr", getattr(child, "id", None)) in ("atleast_1d", "atleast_2d"):
                sites.add(scope)
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "")
    return sites


def test_every_definition_in_src_has_a_caller_in_src():
    assert unreferenced_definitions() == set(UNREFERENCED)


def test_only_the_named_functions_coerce_their_input():
    assert coercion_sites() == set(COERCED)


def test_every_setting_has_a_range_or_a_reason():
    assert sorted(config.DEFAULTS) == sorted([*config.RANGES, *UNRANGED])


def test_a_setting_passed_by_keyword_has_no_second_default():
    """An argument that cli.py takes from cfg[...], by keyword or by position,
    must meet a parameter with no default, so that the config key's default is
    the only one."""
    callees, repeated = set(), []
    for call in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if not isinstance(call, ast.Call):
            continue
        # where each cfg[...] value goes: a position, or a keyword
        settings = [at for at, value in [*enumerate(call.args),
                                         *((kw.arg, kw.value) for kw in call.keywords)]
                    if isinstance(value, ast.Subscript) and isinstance(value.value, ast.Name)
                    and value.value.id == "cfg"]
        if not settings:
            continue
        name = ast.unparse(call.func)
        try:
            fn = functools.reduce(getattr, name.split("."), cli)
        except AttributeError:  # a builtin, such as min
            continue
        callees.add(name)
        params = inspect.signature(fn).parameters
        for at in settings:
            param = list(params.values())[at] if isinstance(at, int) else params[at]
            if param.default is not inspect.Parameter.empty:
                repeated.append(f"{name}({param.name}={param.default!r})")
    assert {"canon.find_te", "canon.canonicalize_batch", "diffusion.decode_batch",
            "toydata.sample_dataset", "distill.pool_rows"} <= callees
    assert repeated == []
