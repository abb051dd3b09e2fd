"""Deterministic linear algebra and statistics primitives.

Small dense matrices only; everything is float64 and bit-stable given
identical inputs and Rng seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .rng import Rng


@dataclass
class SvdResult:
    """Thin SVD: a = u @ diag(sigma) @ v.T with orthonormal columns, per matrix."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(a: np.ndarray) -> SvdResult:
    """Thin SVD of a matrix, or of each matrix of a stack.

    LAPACK via numpy gives descending non-negative sigma and orthonormal
    u, v; the wrapper checks only that the input is finite.
    """
    if a.ndim < 2 or min(a.shape[-2:]) < 1:
        raise InvalidInputError("svd expects matrices with at least one row and column")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("svd input must be finite")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"svd failed to converge: {exc}") from exc
    return SvdResult(u=u, sigma=s, v=np.swapaxes(vt, -1, -2))


def kmeans(points: np.ndarray, k: int, rng: Rng, max_iter: int = 100):
    """Lloyd's algorithm from k-means++ seeding.

    Returns (assignments, inertia). Deterministic given the rng seed;
    an emptied cluster keeps its previous centroid.
    """
    n = points.shape[0]
    if k < 1 or k > n:
        raise InvalidInputError(f"kmeans needs 1 <= k <= n, got k={k}, n={n}")

    # k-means++ seeding
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass on chosen centroids; pick uniformly
            idx = int(rng.integers(0, n))
        else:
            r = rng.uniform(0.0, total)
            idx = int(np.searchsorted(np.cumsum(d2), r))
            idx = min(idx, n - 1)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))

    assignments = np.zeros(n, dtype=np.int64)
    inertia = np.inf
    for _ in range(max_iter):
        dists = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        assignments = np.argmin(dists, axis=1)
        new_inertia = float(dists[np.arange(n), assignments].sum())
        for j in range(k):
            members = points[assignments == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
        if new_inertia >= inertia - 1e-12:
            inertia = min(inertia, new_inertia)
            break
        inertia = new_inertia
    return assignments, inertia


def nmi(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized mutual information of two label vectors.

    MI divided by the arithmetic mean of the two marginal entropies,
    natural log; 0/0 is defined as 0.
    """
    if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
        raise InvalidInputError("nmi expects two equal-length label vectors")
    n = len(a)
    a_vals, a_inv = np.unique(a, return_inverse=True)
    b_vals, b_inv = np.unique(b, return_inverse=True)
    contingency = np.zeros((len(a_vals), len(b_vals)))
    np.add.at(contingency, (a_inv, b_inv), 1.0)
    p = contingency / n
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    mask = p > 0
    mi = float(np.sum(p[mask] * np.log(p[mask] / np.outer(pa, pb)[mask])))
    ha = float(-np.sum(pa[pa > 0] * np.log(pa[pa > 0])))
    hb = float(-np.sum(pb[pb > 0] * np.log(pb[pb > 0])))
    denom = 0.5 * (ha + hb)
    if denom == 0.0:
        return 0.0
    return min(max(mi / denom, 0.0), 1.0)


def elbow_index(s: np.ndarray):
    """Index of the point farthest from the chord between the endpoints.

    Works on (i, s_i), i = 0..n-1, along the last axis; ties break to the
    smallest index. A 2-point sequence lies on its chord, so it gives 0.
    """
    if s.ndim < 1 or s.shape[-1] < 2:
        raise InvalidInputError("elbow_index needs sequences of length >= 2")
    dx = float(s.shape[-1] - 1)
    dy = s[..., -1:] - s[..., :1]
    i = np.arange(s.shape[-1], dtype=np.float64)
    # distance from (i, s_i) to the line through (0, s_0) and (n-1, s_{n-1})
    dist = np.abs(dy * i - dx * (s - s[..., :1])) / np.hypot(dx, dy)
    return np.argmax(dist, axis=-1)
