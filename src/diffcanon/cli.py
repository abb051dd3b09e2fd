"""Experiment runner: every pipeline stage as a subcommand.

Stages share one output directory and find each other's artifacts there
by fixed file names, so the full recipe is a chain of invocations with
the same --out. Each invocation that succeeds echoes its resolved
configuration next to the outputs; re-running any stage from that echo
reproduces its artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import canon, config, diffusion, distill, toydata
from .autodiff import atomic_write
from .errors import (ConfigError, ContractError, DegenerateInputError,
                     InvalidInputError, NumericalError, TrainingDivergedError)
from .rng import Rng

DATA_CSV = "toy_data.csv"
CDM_CKPT = "cdm_checkpoint.json"
CDM_LOSS = "cdm_loss.csv"
TE_REPORT = "te_report.json"
TE_CURVE = "te_curve.csv"
BUNDLES = "bundles.jsonl"
BEFORE_AFTER = "before_after.csv"
FEATURES_REPORT = "features_report.json"
POOL_FILE = "pool.jsonl"
SUMMARY = "summary.csv"


def _require(path: str, hint: str) -> str:
    if not os.path.exists(path):
        raise FileNotFoundError(f"{hint} not found at {path}; run the producing stage first")
    return path


def _parse(path: str, parse):
    """parse(f) over the open artifact at path. The KeyError, TypeError or ValueError
    of a damaged JSON or CSV file exits INVALID_INPUT naming the file."""
    try:
        with open(path, newline="") as f:
            return parse(f)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path} is damaged ({type(exc).__name__}: {exc})") from exc


def _typed(value, kind: type):
    """value, refused unless it is a JSON value of this kind; a float may be an int."""
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise TypeError(f"{value!r} is not a {kind.__name__}")
    return value


def _within(value, low, high, name: str):
    """value, refused unless it is a finite number in [low, high] (so never NaN)."""
    if not (np.isfinite(value) and low <= value <= high):
        raise ValueError(f"{name} = {value} is not a finite number in [{low}, {high}]")
    return value


def _report_chosen(report) -> int:
    """A saturation report's chosen t_e, refused unless it is in [1, diffusion.T_MAX]."""
    return _within(_typed(_typed(report, dict)["chosen"], int), 1, diffusion.T_MAX, "chosen")


def _chosen_te(cfg: dict, out: str) -> int:
    if cfg["clarid.t_e"] > 0:
        return cfg["clarid.t_e"]
    path = _require(os.path.join(out, TE_REPORT), "saturation report")
    return _parse(path, lambda f: _report_chosen(json.load(f)))


def _load_rows(path: str, dataset: toydata.ToyDataset) -> canon.Bundles:
    """The bundles at path, refused unless each seed_sample_id is a dataset row and each
    cond that row's label: bundles made from another dataset are not consumed. The
    points are as wide as the dataset's and the features as the denoiser's hidden layer."""
    bundles = canon.load_bundles(path)
    d, f = dataset.xs.shape[1], diffusion.CondDenoiser.hidden_dim
    for name, width in (("latent", d), ("canonical_sample", d), ("canonical_feature", f)):
        got = getattr(bundles, name).shape[1]
        if len(bundles) and got != width:
            raise InvalidInputError(f"{path}: {name} holds {got} values per row, not {width}")
    ids, n = bundles.seed_sample_id, len(dataset)
    bad = (ids < 0) | (ids >= n)
    bad[~bad] = bundles.cond[~bad] != dataset.ys[ids[~bad]]
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise InvalidInputError(f"{path} line {i + 1}: no row {ids[i]} with label "
                                f"{bundles.cond[i]} among the {n} dataset rows")
    return bundles


def _write_json(payload: dict, path: str) -> None:
    with atomic_write(path) as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with atomic_write(path) as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _canonicalize(cfg: dict, model, sched, t_e: int, xs, ys, idx,
                  path: str) -> tuple[canon.Bundles, np.ndarray]:
    """Canonicalize dataset rows idx, id each bundle by its row and write them to path.

    Returns the bundles and the rows' inverted latents x_te.
    """
    bundles, x_te = canon.canonicalize_batch(xs[idx], ys[idx], model, sched, t_e,
                                             cfg_scale=cfg["clarid.cfg_scale"],
                                             t_r=cfg["clarid.t_r"])
    bundles.seed_sample_id = np.asarray(idx, dtype=np.int64)
    canon.save_bundles(bundles, path)
    return bundles, x_te


def cmd_gen_data(cfg: dict, out: str) -> None:
    rng = Rng(cfg["seed"]).split("data")
    dataset = toydata.sample_dataset(cfg["data.n"], rng)
    toydata.save_csv(dataset, os.path.join(out, DATA_CSV))


def cmd_train_cdm(cfg: dict, out: str) -> None:
    dataset = toydata.load_csv(_require(os.path.join(out, DATA_CSV), "toy data"))
    sched = diffusion.linear_schedule()
    tc = config.build(cfg, "cdm", diffusion.TrainConfig)
    model, losses = diffusion.train_cdm(dataset, sched, tc, Rng(cfg["seed"]).split("cdm"))
    diffusion.save_checkpoint(model, os.path.join(out, CDM_CKPT))
    _write_csv(os.path.join(out, CDM_LOSS), ["epoch", "loss"],
               ([i, f"{loss:.6f}"] for i, loss in enumerate(losses)))


def cmd_find_te(cfg: dict, out: str) -> None:
    model = diffusion.load_checkpoint(_require(os.path.join(out, CDM_CKPT), "denoiser checkpoint"))
    sched = diffusion.linear_schedule()
    grid = config.grid_from_config(cfg)
    report = canon.find_te(model, sched, toydata.bayes_rule, grid, cfg["te.m"],
                           Rng(cfg["seed"]).split("te"), tol=cfg["te.tol"])
    _write_json(asdict(report), os.path.join(out, TE_REPORT))
    _write_csv(os.path.join(out, TE_CURVE), ["t_e", "accuracy"],
               ([t, f"{a:.6f}"] for t, a in zip(report.grid, report.accuracies)))


def cmd_clarid(cfg: dict, out: str) -> None:
    model = diffusion.load_checkpoint(_require(os.path.join(out, CDM_CKPT), "denoiser checkpoint"))
    dataset = toydata.load_csv(_require(os.path.join(out, DATA_CSV), "toy data"))
    sched = diffusion.linear_schedule()
    t_e = _chosen_te(cfg, out)
    xs, ys = dataset.xs, dataset.ys
    idx = np.arange(min(cfg["clarid.n_samples"], len(ys)))
    sel_x, sel_y = xs[idx], ys[idx]
    bundles, x_te = _canonicalize(cfg, model, sched, t_e, xs, ys, idx,
                                  os.path.join(out, BUNDLES))
    baseline = diffusion.decode_batch(x_te, t_e, sel_y, model, sched,
                                      cfg_scale=cfg["clarid.cfg_scale"])
    points = (sel_x, baseline, bundles.canonical_sample)
    coords = np.concatenate(points, axis=1).tolist()
    dists = np.stack([toydata.distance_to_core_segment(p, sel_y) for p in points],
                     axis=1).tolist()
    _write_csv(os.path.join(out, BEFORE_AFTER),
               ["sample_id", "label", "orig_x1", "orig_x2", "base_x1", "base_x2",
                "canon_x1", "canon_x2", "k", "dist_orig", "dist_base", "dist_canon"],
               ([i, y, *(f"{v:.6f}" for v in c), k, *(f"{v:.6f}" for v in d)]
                for i, y, c, k, d in zip(bundles.seed_sample_id.tolist(), sel_y.tolist(),
                                         coords, bundles.k.tolist(), dists)))


def cmd_eval_features(cfg: dict, out: str) -> None:
    model = diffusion.load_checkpoint(_require(os.path.join(out, CDM_CKPT), "denoiser checkpoint"))
    dataset = toydata.load_csv(_require(os.path.join(out, DATA_CSV), "toy data"))
    path = _require(os.path.join(out, BUNDLES), "bundle file")
    bundles = _load_rows(path, dataset)
    if not len(bundles):
        raise InvalidInputError(f"{path} holds no bundles")
    ids, labels = bundles.seed_sample_id, bundles.cond
    sched = diffusion.linear_schedule()
    orig_feats = canon.read_features(dataset.xs[ids], labels, model, sched, cfg["clarid.t_r"])
    rng = Rng(cfg["seed"])
    payload = {}
    for kind, feats, stream in (("canonical", bundles.canonical_feature, "fq-canon"),
                                ("original", orig_feats, "fq-orig")):
        payload[f"within_class_var_{kind}"] = {
            str(c): v for c, v in canon.within_class_var(feats, labels).items()}
        if len(np.unique(labels)) >= 2:  # single-class bundles have nothing to cluster
            payload[f"nmi_{kind}"] = canon.feature_quality(feats, labels, rng.split(stream))
    _write_json(payload, os.path.join(out, FEATURES_REPORT))


def cmd_build_pool(cfg: dict, out: str) -> None:
    model = diffusion.load_checkpoint(_require(os.path.join(out, CDM_CKPT), "denoiser checkpoint"))
    dataset = toydata.load_csv(_require(os.path.join(out, DATA_CSV), "toy data"))
    sched = diffusion.linear_schedule()
    t_e = _chosen_te(cfg, out)
    xs, ys = dataset.xs, dataset.ys
    picked = distill.pool_rows(ys, cfg["pool.fraction"], Rng(cfg["seed"]).split("pool-select"))
    _canonicalize(cfg, model, sched, t_e, xs, ys, picked, os.path.join(out, POOL_FILE))


def cmd_train_student(cfg: dict, out: str) -> None:
    dataset = toydata.load_csv(_require(os.path.join(out, DATA_CSV), "toy data"))
    vanilla = cfg["student.vanilla"]
    pool = None
    if not vanilla:
        path = _require(os.path.join(out, POOL_FILE), "pool file")
        pool = _load_rows(path, dataset)
        missing = np.setdiff1d(dataset.ys, pool.cond)
        if len(missing):
            raise InvalidInputError(f"{path} has no entries for class {missing[0]}")
    dc = config.build(cfg, "student", distill.DistillConfig)
    student, log = distill.train_student(dataset, pool, dc, Rng(cfg["seed"]).split("student"))
    prefix = "vanilla" if vanilla else "student"
    distill.save_student(student, os.path.join(out, f"{prefix}_checkpoint.json"))
    terms = ("total", "cls", "align", "cluster", "cka")
    _write_csv(os.path.join(out, f"{prefix}_loss.csv"), ["epoch", *terms],
               ([i] + [f"{row[k]:.6f}" for k in terms] for i, row in enumerate(log)))


def cmd_attack(cfg: dict, out: str) -> None:
    target = cfg["attack.target"]
    student = distill.load_student(
        _require(os.path.join(out, f"{target}_checkpoint.json"), f"{target} checkpoint"))
    eval_data = toydata.sample_dataset(cfg["eval.n"], Rng(cfg["seed"]).split("eval-data"))
    atk = config.build(cfg, "attack", distill.AttackConfig)
    report = distill.evaluate(student, eval_data, atk, Rng(cfg["seed"]).split("attack"))
    _write_json({"target": target, **asdict(report), "attack": {**asdict(atk), "norm": "linf"}},
                os.path.join(out, f"metrics_{target}.json"))


def cmd_report(cfg: dict, out: str) -> None:
    rows: list[tuple[str, str]] = []

    def add(name: str, value) -> None:
        rows.append((name, f"{value:.6f}" if isinstance(value, float) else str(value)))

    def number(value) -> float:
        return float(_typed(value, float))

    def accuracy(value) -> float:
        return _within(number(value), 0.0, 1.0, "accuracy")

    def te(f) -> None:
        report = json.load(f)
        add("te_chosen", _report_chosen(report))
        add("te_max_accuracy", max(map(accuracy, _typed(report["accuracies"], list))))

    def features(f) -> None:
        feat = _typed(json.load(f), dict)
        for key in ("nmi_canonical", "nmi_original"):
            if key in feat:
                add(key, _within(number(feat[key]), 0.0, 1.0, key))
        for kind in ("canonical", "original"):
            for c, v in sorted(_typed(feat.get(f"within_class_var_{kind}", {}), dict).items()):
                add(f"var_{kind}_class{c}",
                    _within(number(v), 0.0, np.inf, f"within_class_var_{kind}[{c}]"))

    def metrics(target: str):
        def parse(f) -> None:
            m = _typed(json.load(f), dict)
            for key in ("clean_accuracy", "robust_accuracy"):
                add(f"{target}_{key}", accuracy(m[key]))
        return parse

    def before_after(f) -> None:
        r = list(csv.DictReader(f))
        if r:
            for name, column in (("median_dist_canonical", "dist_canon"),
                                 ("median_dist_baseline", "dist_base")):
                add(name, float(np.median([_within(float(x[column]), 0.0, np.inf, column)
                                           for x in r])))

    for name, parse in ((TE_REPORT, te), (FEATURES_REPORT, features),
                        ("metrics_student.json", metrics("student")),
                        ("metrics_vanilla.json", metrics("vanilla")),
                        (BEFORE_AFTER, before_after)):
        path = os.path.join(out, name)
        if os.path.exists(path):
            _parse(path, parse)
    if not rows:
        raise FileNotFoundError("no stage artifacts found to summarize; run earlier stages first")
    _write_csv(os.path.join(out, SUMMARY), ["metric", "value"], rows)


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-cdm": cmd_train_cdm,
    "find-te": cmd_find_te,
    "clarid": cmd_clarid,
    "eval-features": cmd_eval_features,
    "build-pool": cmd_build_pool,
    "train-student": cmd_train_student,
    "attack": cmd_attack,
    "report": cmd_report,
}

ERROR_CODES = {
    ConfigError: "CONFIG_ERROR",
    InvalidInputError: "INVALID_INPUT",
    DegenerateInputError: "DEGENERATE_INPUT",
    ContractError: "CONTRACT_ERROR",
    NumericalError: "NUMERICAL_ERROR",
    TrainingDivergedError: "TRAINING_DIVERGED",
    FileNotFoundError: "MISSING_ARTIFACT",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diffcanon",
                                     description="toy diffusion canonicalization lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file (flat keys)")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a single config key")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = config.parse_set_args(args.set)
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["out"] = args.out
        cfg = config.resolve(args.config, overrides)
        out = cfg["out"]
        os.makedirs(out, exist_ok=True)
        COMMANDS[args.command](cfg, out)
        # The echo is written only once the stage succeeds, so a failed call keeps the
        # last good one. train-student/attack run once per variant; keep one echo per
        # variant so any artifact can be reproduced from its own echoed config.
        echo = args.command
        if args.command == "train-student":
            echo += ".vanilla" if cfg["student.vanilla"] else ".distill"
        elif args.command == "attack":
            echo += f".{cfg['attack.target']}"
        _write_json(cfg, os.path.join(out, f"resolved_config.{echo}.json"))
    except tuple(ERROR_CODES) as exc:
        code = next(c for t, c in ERROR_CODES.items() if isinstance(exc, t))
        print(f"error code={code} command={args.command} detail={exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error code=UNKNOWN command={args.command} detail={exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
