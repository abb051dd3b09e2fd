"""Canonical latent extraction.

Invert a sample to the projection timestep, take the Jacobian of the
denoiser's hidden features with respect to the latent coordinates, and
project the latent off the top right singular vectors (the directions
the feature map is most sensitive to, which carry appearance rather
than class). Decoding the projected latent yields a Canonical Sample;
re-inverting that to a shallow timestep and reading the hidden layer
yields its Canonical Feature.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .autodiff import atomic_write
from .diffusion import CondDenoiser, NoiseSchedule, decode_batch, invert_batch, two_stage_batch
from .errors import DegenerateInputError, InvalidInputError, NumericalError
from .numerics import elbow_index, kmeans, nmi, svd
from .rng import Rng


@dataclass
class Bundles:
    """Canonical bundles as columns, one row per canonicalized sample."""

    seed_sample_id: np.ndarray     # (N,) int64, the sample's dataset row
    t_e: np.ndarray                # (N,) int64
    k: np.ndarray                  # (N,) int64, directions projected out
    cond: np.ndarray               # (N,) int64, the sample's class
    latent: np.ndarray             # (N, d) projected latent at t_e
    canonical_sample: np.ndarray   # (N, d)
    canonical_feature: np.ndarray  # (N, F)

    def __len__(self) -> int:
        return len(self.seed_sample_id)


# The integer columns; each of the others holds one vector per row.
_ID_COLUMNS = ("seed_sample_id", "t_e", "k", "cond")


@dataclass
class TeSearchReport:
    grid: list[int]
    accuracies: list[float]
    chosen: int
    tol: float


def jacobian(model, xs, t: int, conds) -> np.ndarray:
    """Exact (B, feature_dim, input_dim) Jacobians of the hidden features wrt xs."""
    if t < 1:
        raise InvalidInputError("jacobian requires t >= 1")
    j = np.stack([model.feature_jvp(xs, t, conds, e) for e in np.eye(np.shape(xs)[-1])],
                 axis=-1)
    if not np.all(np.isfinite(j)):
        raise NumericalError("non-finite activations in jacobian")
    return j


def evr_sequence(sigma: np.ndarray) -> np.ndarray:
    """Cumulative squared-singular-value ratios S_1..S_n, along the last axis."""
    s2 = sigma ** 2
    total = s2.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise DegenerateInputError("all singular values are zero")
    return np.cumsum(s2, axis=-1) / total


def select_k(s: np.ndarray) -> np.ndarray:
    """Directions to remove: elbow of each EVR sequence plus one, so 1 for n = 2.

    The sequences need n >= 2 values, as elbow_index does.
    """
    return elbow_index(s) + 1


def project_out(x_te, v: np.ndarray, k) -> np.ndarray:
    """Remove the span of the first k columns of v from x_te, per sample of a batch.

    v holds orthonormal columns, (..., d, n), in the order they are removed.
    """
    k = np.asarray(k)
    n = v.shape[-1]
    if np.any(k > n):
        raise InvalidInputError(f"k={k.max()} exceeds basis size n={n}")
    vk = v * (np.arange(n) < k[..., None])[..., None, :]
    return x_te - np.einsum("...in,...n->...i", vk, np.einsum("...in,...i->...n", vk, x_te))


def read_features(xs: np.ndarray, ys: np.ndarray, model: CondDenoiser, sched: NoiseSchedule,
                  t_r: int) -> np.ndarray:
    """Hidden features of samples under their labels: invert to t_r, read them."""
    return model.hidden(invert_batch(xs, t_r, ys, model, sched), t_r, ys)


# Rows per Jacobian/SVD/projection block: feature_jvp keeps about seven (rows, 80)
# temporaries alive, which on 2000 rows at once added 3 MB to clarid's peak RSS.
_BLOCK_ROWS = 256


def canonicalize_batch(xs: np.ndarray, ys: np.ndarray, model: CondDenoiser,
                       sched: NoiseSchedule, t_e: int, *, cfg_scale: float,
                       t_r: int) -> tuple[Bundles, np.ndarray]:
    """Run the full extraction pipeline over a batch of labeled samples.

    Returns the bundles, with row i's seed_sample_id = i, and the (N, d)
    latents x_te the samples invert to, before projection; decoding x_te
    gives the unprojected round trip.
    Every step is batched; Jacobian, SVD, k and projection run in blocks of
    _BLOCK_ROWS rows. cfg_scale = 1 decodes without guidance.
    """
    x_te = invert_batch(xs, t_e, ys, model, sched)
    latents = np.empty_like(x_te)
    ks = np.empty(len(xs), dtype=np.int64)
    for lo in range(0, len(xs), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        res = svd(jacobian(model, x_te[rows], t_e, ys[rows]))
        ks[rows] = select_k(evr_sequence(res.sigma))
        latents[rows] = project_out(x_te[rows], res.v, ks[rows])
    samples = decode_batch(latents, t_e, ys, model, sched, cfg_scale=cfg_scale)
    feats = read_features(samples, ys, model, sched, t_r)
    n = len(xs)
    return Bundles(seed_sample_id=np.arange(n), t_e=np.full(n, t_e, dtype=np.int64), k=ks,
                   cond=ys.copy(), latent=latents, canonical_sample=samples,
                   canonical_feature=feats), x_te


def saturation_choice(grid: list[int], accuracies: list[float], tol: float) -> int:
    """Largest grid value whose accuracy is within tol of the curve maximum."""
    if len(grid) == 0 or len(grid) != len(accuracies):
        raise InvalidInputError("grid and accuracies must be equal-length and non-empty")
    best = max(accuracies)
    return max(t for t, a in zip(grid, accuracies) if a >= best - tol)


# Rows per stacked find_te decode, the size of canon-extract's clarid trajectory.
_TE_ROWS = 2000


def find_te(model: CondDenoiser, sched: NoiseSchedule, classifier_rule: Callable,
            grid: list[int], m: int, rng: Rng, *, tol: float) -> TeSearchReport:
    """Pick the projection timestep from the two-stage accuracy curve.

    For each candidate, m samples per class are drawn with the
    condition switched on at that timestep and scored by the classifier
    rule; the chosen value is the largest candidate whose accuracy is
    within tol of the curve maximum. The (candidate, class) blocks of m
    rows are decoded stacked, up to _TE_ROWS rows per decode, each block
    from its own rng.split(f"te-{t_e}-c{c}") draw.
    """
    if len(grid) == 0:
        raise InvalidInputError("empty candidate grid")
    if sorted(grid) != list(grid):
        raise InvalidInputError("candidate grid must be sorted ascending")
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    blocks = [(i, c) for i in range(len(grid)) for c in range(model.n_classes)]
    x_T = [rng.split(f"te-{grid[i]}-c{c}").normal((m, 2)) for i, c in blocks]
    correct = np.zeros(len(grid), dtype=np.int64)
    per_decode = max(1, _TE_ROWS // m)
    for lo in range(0, len(blocks), per_decode):
        group = np.array(blocks[lo:lo + per_decode])
        t_es, cs = np.repeat(np.asarray(grid)[group[:, 0]], m), np.repeat(group[:, 1], m)
        xs = two_stage_batch(np.concatenate(x_T[lo:lo + per_decode]), t_es, cs, model, sched)
        np.add.at(correct, group[:, 0],
                  (classifier_rule(xs) == cs).reshape(-1, m).sum(axis=1))
    accuracies = (correct / (m * model.n_classes)).tolist()
    chosen = saturation_choice(grid, accuracies, tol)
    return TeSearchReport(grid=list(grid), accuracies=accuracies, chosen=chosen, tol=tol)


def save_bundles(bundles: Bundles, path: str) -> None:
    """Write bundles as JSON lines, one object of a row's fields per line, full precision."""
    columns = {f.name: getattr(bundles, f.name) for f in fields(Bundles)}
    with atomic_write(path) as f:
        for i in range(len(bundles)):
            f.write(json.dumps({name: col[i].tolist() for name, col in columns.items()},
                               sort_keys=True) + "\n")


def load_bundles(path: str) -> Bundles:
    """Read a save_bundles file into one record; an empty file gives zero rows.

    The lines are counted first, so that each column is allocated once, at
    the first line's widths, and filled one parsed line at a time. A line is
    refused, by its number, unless it is a JSON object with every field, an
    integer for each id and a list of finite numbers as long as the first
    line's for each vector.
    """
    with open(path) as f:
        n = sum(1 for _ in f)
        f.seek(0)
        columns = {name: np.empty(n, dtype=np.int64) if name in _ID_COLUMNS else np.empty((n, 0))
                   for name in (field.name for field in fields(Bundles))}
        for i, line in enumerate(f):
            try:
                record = json.loads(line)
                if i == 0:
                    columns = {name: np.empty((n, len(record[name]))) if col.ndim == 2 else col
                               for name, col in columns.items()}
                for name, col in columns.items():
                    value = record[name]
                    if col.ndim == 1 and type(value) is not int:
                        raise ValueError(f"{name} is not an integer")
                    if col.ndim == 2 and (type(value) is not list or len(value) != col.shape[1]):
                        raise ValueError(f"{name} is not a list as long as on line 1")
                    col[i] = value
            except (KeyError, TypeError, ValueError) as exc:
                raise InvalidInputError(
                    f"{path} line {i + 1} is not a bundle ({type(exc).__name__}: {exc})") from exc
    for name, col in columns.items():
        bad = np.flatnonzero(~np.isfinite(col).all(axis=1)) if col.ndim == 2 else []
        if len(bad):
            raise InvalidInputError(f"{path} line {bad[0] + 1}: {name} is not finite")
    return Bundles(**columns)


def feature_quality(features: np.ndarray, labels: np.ndarray, rng: Rng) -> float:
    """Normalized mutual information with the labels of the features' k-means
    clusters, one cluster per distinct label."""
    assignments, _ = kmeans(features, len(np.unique(labels)), rng)
    return nmi(assignments, labels)


def within_class_var(features: np.ndarray, labels: np.ndarray) -> dict[int, float]:
    """Per class, the mean squared distance of its features to the class centroid."""
    within = {}
    for c in np.unique(labels):
        rows = features[labels == c]
        within[int(c)] = float(np.mean(np.sum((rows - rows.mean(axis=0)) ** 2, axis=1)))
    return within
