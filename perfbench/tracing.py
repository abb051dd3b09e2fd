"""In-memory span tracing around diffcanon's public functions.

The tracer wraps functions and methods of the program from outside: no
file under `src/` changes. A wrapped call records one span (name, start,
end, parent, run id, attributes). Functions imported by name into other
modules (`from .diffusion import decode_batch`) are replaced at every
module attribute that refers to them, so such calls cannot escape the
trace. Tensor constructions are too frequent for a span each and are
counted instead.

`layer_metrics` turns the spans of one traced iteration into the
per-layer metrics listed in GLOSSARY.md.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# Span records are lists: [name, start, end, parent index, run id, attrs].
NAME, START, END, PARENT, RUN, ATTRS = range(6)


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id: str | None = None
        self.tensors = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # spans

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    def wrap(self, fn, name, attrs=None):
        """Return fn wrapped in a span; name may be a function of the arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if attrs is not None:
                tracer.spans[idx][ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    # patching

    def install(self) -> None:
        """Wrap every traced function of the imported program at every lookup site."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "diffcanon" or n.startswith("diffcanon."))]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for module_name, qualname, name, attrs in targets(by_name):
            owner = by_name[module_name]
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(original, name, attrs))
                continue
            original = getattr(owner, qualname)
            wrapped = self.wrap(original, name, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)
        tensor_cls = by_name["autodiff"].Tensor
        tensor_init = tensor_cls.__dict__["__init__"]

        @functools.wraps(tensor_init)
        def counted_init(obj, *args, **kwargs):
            self.tensors += 1
            tensor_init(obj, *args, **kwargs)

        self._set(tensor_cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        """Write all spans as JSON lines (index, name, start, end, parent, run, attrs)."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                    "parent": s[PARENT], "run": s[RUN], "attrs": s[ATTRS]}))
                f.write("\n")


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) == 2 else 1


def targets(modules: dict):
    """(module, qualname, span name, attrs function) for every traced callable."""
    diffusion = modules["diffusion"]

    def eps_attrs(args, kwargs, result):
        model, rows = args[0], _rows(_arg(args, kwargs, 1, "x"))
        macs = sum(p.data.size for p in (model.W1, model.W2, model.W3))
        return {"rows": rows, "flop": 2 * rows * macs}

    def ddim_steps(t_pos: int, t_key: str):
        def attrs(args, kwargs, result):
            t = _arg(args, kwargs, t_pos, t_key)
            sched = _arg(args, kwargs, 4, "sched")
            return {"steps": len(diffusion.ddim_grid(sched, t)) - 1 if t > 0 else 0}
        return attrs

    def find_te_attrs(args, kwargs, result):
        model = _arg(args, kwargs, 0, "model")
        grid = _arg(args, kwargs, 3, "grid")
        return {"samples": _arg(args, kwargs, 4, "m") * model.n_classes * len(grid)}

    def pool_attrs(args, kwargs, result):
        return {"rows": len(result), "unique": len({id(b) for b in result})}

    def student_name(args, kwargs):
        return "distill.vanilla" if _arg(args, kwargs, 1, "pool") is None else "distill.train"

    def canon_attrs(args, kwargs, result):
        return {"samples": len(_arg(args, kwargs, 0, "xs"))}

    def forward_attrs(args, kwargs, result):
        return {"rows": _rows(_arg(args, kwargs, 1, "x"))}

    def pgd_attrs(args, kwargs, result):
        return {"points": len(_arg(args, kwargs, 1, "x"))}

    def sample_attrs(args, kwargs, result):
        return {"points": _arg(args, kwargs, 0, "n")}

    return [
        ("diffusion", "train_cdm", "diffusion.train", None),
        ("diffusion", "q_sample", "diffusion.q_sample", None),
        ("diffusion", "CondDenoiser.eps_graph", "diffusion.eps_graph", None),
        ("diffusion", "CondDenoiser.eps", "diffusion.eps", eps_attrs),
        ("diffusion", "CondDenoiser.hidden", "diffusion.hidden", eps_attrs),
        ("diffusion", "CondDenoiser.feature_jvp", "diffusion.feature_jvp", None),
        ("diffusion", "decode_batch", "diffusion.decode", ddim_steps(1, "t")),
        ("diffusion", "invert_batch", "diffusion.invert", ddim_steps(1, "target_t")),
        ("diffusion", "two_stage_batch", "diffusion.two_stage", None),
        ("diffusion", "save_checkpoint", "diffusion.ckpt_io", None),
        ("diffusion", "load_checkpoint", "diffusion.ckpt_io", None),
        ("canon", "canonicalize_batch", "canon.canonicalize", canon_attrs),
        ("canon", "jacobian", "canon.jacobian", None),
        ("canon", "find_te", "canon.find_te", find_te_attrs),
        ("canon", "feature_quality", "canon.feature_quality", None),
        ("canon", "save_bundles", "canon.bundle_io", None),
        ("canon", "load_bundles", "canon.bundle_io", None),
        ("numerics", "svd", "numerics.svd", None),
        ("numerics", "kmeans", "numerics.kmeans", None),
        ("distill", "train_student", student_name, None),
        ("distill", "sample_bundles", "distill.sample_bundles", pool_attrs),
        ("distill", "cross_entropy", "distill.loss.cls", None),
        ("distill", "align_loss", "distill.loss.align", None),
        ("distill", "cluster_loss", "distill.loss.cluster", None),
        ("distill", "cka_distill_loss", "distill.loss.cka", None),
        ("distill", "StudentClassifier.forward_graph", "distill.forward", forward_attrs),
        ("distill", "pgd_attack", "distill.pgd", pgd_attrs),
        ("distill", "evaluate", "distill.evaluate", None),
        ("distill", "save_student", "distill.ckpt_io", None),
        ("distill", "load_student", "distill.ckpt_io", None),
        ("autodiff", "Tensor.backward", "autodiff.backward", None),
        ("autodiff", "Adam.step", "autodiff.optim", None),
        ("autodiff", "SgdMomentum.step", "autodiff.optim", None),
        ("rng", "Rng.normal", "rng.draw", None),
        ("rng", "Rng.uniform", "rng.draw", None),
        ("rng", "Rng.integers", "rng.draw", None),
        ("rng", "Rng.permutation", "rng.draw", None),
        ("rng", "Rng.split", "rng.split", None),
        ("toydata", "sample_dataset", "toydata.sample", sample_attrs),
        ("toydata", "save_csv", "toydata.csv_io", None),
        ("toydata", "load_csv", "toydata.csv_io", None),
    ]


# ------------------------------------------------------------------ metrics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def self_times(spans: list[list], indices: list[int]) -> dict[int, float]:
    """Duration of each span minus the time its direct children cover."""
    own = {i: spans[i][END] - spans[i][START] for i in indices}
    for i in indices:
        p = spans[i][PARENT]
        if p in own:
            own[p] -= spans[i][END] - spans[i][START]
    return own


def layer_metrics(spans: list[list], indices: list[int], tensors: int,
                  artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, from the spans at `indices`."""
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in indices:
        by_name[spans[i][NAME]].append(i)

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def total(name: str, under: str | None = None) -> float:
        return sum(dur(i) for i in within(name, under))

    def count(name: str, under: str | None = None) -> int:
        return len(within(name, under))

    def attr_sum(name: str, key: str, under: str | None = None) -> int:
        return sum(spans[i][ATTRS][key] for i in within(name, under))

    def within(name: str, under: str | None) -> list[int]:
        if under is None:
            return by_name[name]
        out = []
        for i in by_name[name]:
            p = spans[i][PARENT]
            while p >= 0 and spans[p][NAME] != under:
                p = spans[p][PARENT]
            if p >= 0:
                out.append(i)
        return out

    def step_ms(outer: str, marker: str) -> list[float]:
        """Intervals between consecutive `marker` ends inside each `outer` span."""
        samples = []
        for o in by_name[outer]:
            last = spans[o][START]
            for i in within(marker, None):
                if spans[o][START] <= spans[i][START] and spans[i][END] <= spans[o][END]:
                    samples.append((spans[i][END] - last) * 1e3)
                    last = spans[i][END]
        return samples

    own = self_times(spans, indices)
    m: dict[str, float] = {}
    for name in list(by_name):
        if name.startswith("cli.stage."):
            m[f"{name}.s"] = total(name)
    m["cli.artifact_bytes"] = artifact_bytes

    train_steps = step_ms("diffusion.train", "autodiff.optim")
    m["diffusion.train.steps"] = count("autodiff.optim", "diffusion.train")
    m["diffusion.train.prep_s"] = total("diffusion.q_sample", "diffusion.train")
    m["diffusion.train.forward_s"] = total("diffusion.eps_graph", "diffusion.train")
    m["diffusion.train.backward_s"] = total("autodiff.backward", "diffusion.train")
    m["diffusion.train.optim_s"] = total("autodiff.optim", "diffusion.train")
    m["diffusion.train.other_s"] = sum(own[i] for i in by_name["diffusion.train"])
    m["diffusion.train.step_ms.p50"] = percentile(train_steps, 50)
    m["diffusion.train.step_ms.p99"] = percentile(train_steps, 99)
    m["diffusion.train.step_ms.n"] = len(train_steps)

    eps_spans = by_name["diffusion.eps"] + by_name["diffusion.hidden"]
    m["diffusion.eps.calls"] = len(eps_spans)
    m["diffusion.eps.rows"] = sum(spans[i][ATTRS]["rows"] for i in eps_spans)
    m["diffusion.eps.s"] = sum(dur(i) for i in eps_spans)
    m["diffusion.eps.gflop"] = sum(spans[i][ATTRS]["flop"] for i in eps_spans) / 1e9
    m["diffusion.feature_jvp.calls"] = count("diffusion.feature_jvp")
    m["diffusion.feature_jvp.s"] = total("diffusion.feature_jvp")
    for kind in ("decode", "invert"):
        secs = total(f"diffusion.{kind}")
        steps = attr_sum(f"diffusion.{kind}", "steps")
        m[f"diffusion.{kind}.s"] = secs
        m[f"diffusion.{kind}.steps"] = steps
        m[f"diffusion.{kind}.step_ms"] = secs / steps * 1e3 if steps else 0.0
    m["diffusion.two_stage.s"] = total("diffusion.two_stage")
    m["diffusion.ckpt_io.s"] = total("diffusion.ckpt_io")

    m["canon.canonicalize.calls"] = count("canon.canonicalize")
    m["canon.canonicalize.samples"] = attr_sum("canon.canonicalize", "samples")
    m["canon.canonicalize.s"] = total("canon.canonicalize")
    batched = {"diffusion.invert", "diffusion.decode", "diffusion.hidden"}
    per_sample = 0.0
    for i in by_name["canon.canonicalize"]:
        per_sample += dur(i)
    for name in batched:
        per_sample -= sum(dur(i) for i in by_name[name]
                          if spans[i][PARENT] >= 0
                          and spans[spans[i][PARENT]][NAME] == "canon.canonicalize")
    m["canon.per_sample.s"] = per_sample
    m["canon.jacobian.calls"] = count("canon.jacobian")
    m["canon.jacobian.s"] = total("canon.jacobian")
    m["canon.find_te.s"] = total("canon.find_te")
    m["canon.find_te.samples"] = attr_sum("canon.find_te", "samples")
    m["canon.feature_quality.s"] = total("canon.feature_quality")
    m["canon.bundle_io.s"] = total("canon.bundle_io")

    m["numerics.svd.calls"] = count("numerics.svd")
    m["numerics.svd.s"] = total("numerics.svd")
    m["numerics.kmeans.calls"] = count("numerics.kmeans")
    m["numerics.kmeans.s"] = total("numerics.kmeans")

    for variant in ("train", "vanilla"):
        steps = step_ms(f"distill.{variant}", "autodiff.optim")
        m[f"distill.{variant}.step_ms.p50"] = percentile(steps, 50)
        m[f"distill.{variant}.step_ms.p99"] = percentile(steps, 99)
        m[f"distill.{variant}.step_ms.n"] = len(steps)
    m["distill.sample_bundles.calls"] = count("distill.sample_bundles")
    m["distill.sample_bundles.s"] = total("distill.sample_bundles")
    for term in ("cls", "align", "cluster", "cka"):
        m[f"distill.loss.{term}_s"] = total(f"distill.loss.{term}", "distill.train")
    m["distill.forward.rows"] = attr_sum("distill.forward", "rows", "distill.train")
    canon_rows = attr_sum("distill.sample_bundles", "rows")
    m["distill.canon_rows"] = canon_rows
    m["distill.canon_unique_frac"] = (attr_sum("distill.sample_bundles", "unique") / canon_rows
                                      if canon_rows else 0.0)
    m["distill.train.backward_s"] = total("autodiff.backward", "distill.train")
    m["distill.train.optim_s"] = total("autodiff.optim", "distill.train")
    vanilla = total("distill.vanilla")
    m["distill.distill_vs_vanilla_ratio"] = total("distill.train") / vanilla if vanilla else 0.0
    pgd_steps = step_ms("distill.pgd", "autodiff.backward")
    m["distill.pgd.calls"] = count("distill.pgd")
    m["distill.pgd.points"] = attr_sum("distill.pgd", "points")
    m["distill.pgd.s"] = total("distill.pgd")
    m["distill.pgd.step_ms.p50"] = percentile(pgd_steps, 50)
    m["distill.pgd.step_ms.p90"] = percentile(pgd_steps, 90)
    m["distill.pgd.step_ms.n"] = len(pgd_steps)
    m["distill.evaluate.s"] = total("distill.evaluate")
    m["distill.ckpt_io.s"] = total("distill.ckpt_io")

    backward_ms = [dur(i) * 1e3 for i in by_name["autodiff.backward"]]
    m["autodiff.tensors"] = tensors
    m["autodiff.backward.calls"] = len(backward_ms)
    m["autodiff.backward.s"] = sum(backward_ms) / 1e3
    m["autodiff.backward.ms.p50"] = percentile(backward_ms, 50)
    m["autodiff.backward.ms.p99"] = percentile(backward_ms, 99)
    m["autodiff.optim.calls"] = count("autodiff.optim")
    m["autodiff.optim.s"] = total("autodiff.optim")

    m["rng.calls"] = count("rng.draw")
    m["rng.split.calls"] = count("rng.split")
    m["rng.s"] = total("rng.draw") + total("rng.split")

    m["toydata.sample.points"] = attr_sum("toydata.sample", "points")
    m["toydata.sample.s"] = total("toydata.sample")
    m["toydata.csv_io.s"] = total("toydata.csv_io")
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith(".n"):
        return "count"
    if name.endswith((".s", "_s")):
        return "s"
    if "_ms" in name or ".ms." in name:
        return "ms"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    """Median of every metric over the traced iterations."""
    return {k: statistics.median(d[k] for d in per_iteration) for k in per_iteration[0]}
