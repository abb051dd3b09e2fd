"""Two-class 2D toy distribution and the core-segment distance metric.

Each class lives on a short horizontal segment: class 0 near the origin,
class 1 near (4, 0). Points get jittered off the segment by isotropic
noise plus a skew term that shifts x1 by three times |noise_y|, so the
clean class manifold is strictly lower-dimensional than the data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import atomic_write
from .errors import InvalidInputError
from .rng import Rng

CLASS_SHIFT = 4.0
CORE_HALF_WIDTH = 0.1
NOISE_STD = 0.1
SKEW_GAIN = 3.0
CSV_HEADER = ["x1", "x2", "label"]


@dataclass
class ToyDataset:
    """n labeled points as columns: xs (n, 2) float64 and ys (n,) int64."""

    xs: np.ndarray
    ys: np.ndarray

    def __len__(self) -> int:
        return len(self.ys)


def toy_point(y: np.ndarray, u: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Apply the generative equations to explicit latent draws, eps of shape (..., 2)."""
    x1 = u + CLASS_SHIFT * y + eps[..., 0] + SKEW_GAIN * np.abs(eps[..., 1])
    return np.stack((x1, eps[..., 1]), axis=-1)


def sample_dataset(n: int, rng: Rng) -> ToyDataset:
    """Draw n labeled points: y ~ Bernoulli(1/2), u ~ U(-0.1, 0.1), eps ~ N(0, 0.01 I)."""
    if n < 1:
        raise InvalidInputError("sample_dataset needs n >= 1")
    y = rng.integers(0, 2, size=n)
    u = rng.uniform(-CORE_HALF_WIDTH, CORE_HALF_WIDTH, size=n)
    eps = NOISE_STD * rng.normal((n, 2))
    return ToyDataset(xs=toy_point(y, u, eps), ys=y.astype(np.int64))


def distance_to_core_segment(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distance from each of the (N, 2) points x to the core segment on the
    x1 axis of its class y, (N,) labels; one point is a (1, 2) row."""
    if not np.all((y == 0) | (y == 1)):
        raise InvalidInputError(f"class id must be 0 or 1, got {y[(y != 0) & (y != 1)]}")
    center = CLASS_SHIFT * y
    x1 = np.clip(x[:, 0], center - CORE_HALF_WIDTH, center + CORE_HALF_WIDTH)
    return np.hypot(x[:, 0] - x1, x[:, 1])


def bayes_rule(xs: np.ndarray) -> np.ndarray:
    """Optimal classifier for the toy distribution: class 1 iff x1 > 2."""
    return (xs[:, 0] > 0.5 * CLASS_SHIFT).astype(np.int64)


def save_csv(dataset: ToyDataset, path: str) -> None:
    with atomic_write(path) as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        w.writerows([f"{x1:.6f}", f"{x2:.6f}", y]
                    for (x1, x2), y in zip(dataset.xs.tolist(), dataset.ys.tolist()))


def load_csv(path: str) -> ToyDataset:
    """Read a save_csv file, refusing, by its line number, a first line that is not
    the header x1,x2,label (an empty file among them) and a row that is not
    x1,x2,label with finite coordinates and a label 0 or 1."""
    xs, ys = [], []
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header != CSV_HEADER:
            raise InvalidInputError(f"{path} line 1: needs the header x1,x2,label, got "
                                    f"{'no line' if header is None else ','.join(header)}")
        for row in r:
            try:
                x1, x2, y = row
                x, y = (float(x1), float(x2)), int(y)
            except ValueError as exc:
                raise InvalidInputError(f"{path} line {r.line_num}: {exc}") from exc
            if not (math.isfinite(x[0]) and math.isfinite(x[1])) or y not in (0, 1):
                raise InvalidInputError(f"{path} line {r.line_num}: needs finite "
                                        f"coordinates and a label 0 or 1, got {row}")
            xs.append(x)
            ys.append(y)
    return ToyDataset(xs=np.array(xs, dtype=np.float64).reshape(-1, 2),
                      ys=np.array(ys, dtype=np.int64))
