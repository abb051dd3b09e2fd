"""Student training on canonical representations, plus the PGD evaluator.

The student is a small MLP classifier. Besides cross-entropy it can be
trained with three extra terms: a contrastive alignment loss that pulls
each training point's feature toward same-class canonical features, a
clustering loss over the canonical features themselves, and a CKA term
that matches the student's Gram structure to the teacher's Canonical
Features. Feature rows are unit-normalized for the two contrastive
terms and raw for the CKA term (CKA is scale-invariant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .canon import CanonicalBundle
from .errors import (ConfigError, DegenerateInputError, InvalidInputError,
                     TrainingDivergedError)
from .rng import Rng
from .toydata import ToyDataset

CHECKPOINT_FORMAT = "student-checkpoint-v1"


class StudentClassifier:
    """ReLU MLP 2 -> h -> h -> logits; the penultimate layer is the feature."""

    PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3")

    def __init__(self, rng: Rng, n_classes: int = 2, hidden_dim: int = 64):
        self.n_classes = n_classes
        self.hidden_dim = hidden_dim
        h = hidden_dim
        self.W1 = Tensor(rng.normal((2, h)) * np.sqrt(2.0 / 2), requires_grad=True)
        self.b1 = Tensor(np.zeros(h), requires_grad=True)
        self.W2 = Tensor(rng.normal((h, h)) * np.sqrt(2.0 / h), requires_grad=True)
        self.b2 = Tensor(np.zeros(h), requires_grad=True)
        self.W3 = Tensor(rng.normal((h, n_classes)) * np.sqrt(2.0 / h), requires_grad=True)
        self.b3 = Tensor(np.zeros(n_classes), requires_grad=True)

    def parameters(self) -> list[Tensor]:
        return [getattr(self, name) for name in self.PARAM_NAMES]

    def forward_graph(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Return (features, logits) as graph tensors."""
        h1 = ad.relu(x @ self.W1 + self.b1)
        h2 = ad.relu(h1 @ self.W2 + self.b2)
        return h2, h2 @ self.W3 + self.b3

    def features(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        h1 = np.maximum(x @ self.W1.data + self.b1.data, 0.0)
        return np.maximum(h1 @ self.W2.data + self.b2.data, 0.0)

    def logits(self, x) -> np.ndarray:
        return self.features(x) @ self.W3.data + self.b3.data

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)


@dataclass
class ClaRepPool:
    by_class: dict[int, list[CanonicalBundle]]

    @classmethod
    def from_bundles(cls, bundles: list[CanonicalBundle]) -> "ClaRepPool":
        by_class: dict[int, list[CanonicalBundle]] = {}
        for b in bundles:
            by_class.setdefault(int(b.cond), []).append(b)
        return cls(by_class=by_class)

    def size(self) -> int:
        return sum(len(v) for v in self.by_class.values())


@dataclass
class DistillConfig:
    tau: float = 0.1
    lambda_cs: float = 0.4
    lambda_cf: float = 0.5
    lambda_dist: float = 1.0
    lambda_cka: float = 0.5
    epochs: int = 200
    batch_size: int = 128
    lr: float = 1e-3
    optimizer: str = "adam"
    momentum: float = 0.9


@dataclass
class AttackConfig:
    epsilon: float = 0.1
    steps: int = 5
    step_size: float = 0.05
    norm: str = "linf"


@dataclass
class MetricsReport:
    clean_accuracy: float
    robust_accuracy: float | None = None


def l2_normalize(z: Tensor) -> Tensor:
    norm = ((z * z).sum(axis=1, keepdims=True) + 1e-24).sqrt()
    return z / norm


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    labels = np.asarray(labels, dtype=np.int64)
    b, c = logits.shape
    onehot = np.zeros((b, c))
    onehot[np.arange(b), labels] = 1.0
    log_denom = ad.logsumexp(logits, axis=1)
    picked = (logits * onehot).sum(axis=1)
    return (log_denom - picked).mean()


def align_loss(z: Tensor, z_canon: Tensor, labels, tau: float) -> Tensor:
    """Pull each feature toward every same-class canonical feature.

    Softmax over similarities to the whole canonical batch (self
    included); rows are assumed unit-norm.
    """
    labels = np.asarray(labels, dtype=np.int64)
    b = len(labels)
    if b == 0:
        raise InvalidInputError("empty batch")
    sim = (z @ z_canon.T) * (1.0 / tau)
    log_denom = ad.logsumexp(sim, axis=1, keepdims=True)
    log_prob = sim - log_denom
    pos = (labels[:, None] == labels[None, :]).astype(np.float64)
    per_anchor = (log_prob * pos).sum(axis=1) * Tensor(1.0 / pos.sum(axis=1))
    return -per_anchor.mean()


def cluster_loss(z_canon: Tensor, labels, tau: float) -> Tensor:
    """Encourage same-class canonical features to cluster.

    Anchor i is scored against its same-class peers with a denominator
    over everything except itself; an anchor with no same-class peer
    falls back to just penalizing its denominator.
    """
    labels = np.asarray(labels, dtype=np.int64)
    b = len(labels)
    if b < 2:
        raise InvalidInputError("cluster_loss needs a batch of at least 2")
    sim = (z_canon @ z_canon.T) * (1.0 / tau)
    off_diag = np.zeros((b, b))
    np.fill_diagonal(off_diag, -np.inf)
    masked = sim + Tensor(off_diag)
    log_denom = ad.logsumexp(masked, axis=1)
    log_prob = sim - ad.logsumexp(masked, axis=1, keepdims=True)
    pos = (labels[:, None] == labels[None, :]).astype(np.float64)
    np.fill_diagonal(pos, 0.0)
    counts = pos.sum(axis=1)
    has_pos = counts > 0
    weights = np.where(has_pos, 1.0 / np.maximum(counts, 1.0), 0.0)
    pos_part = (log_prob * pos).sum(axis=1) * Tensor(-weights)
    fallback = log_denom * Tensor((~has_pos).astype(np.float64))
    return (pos_part + fallback).mean()


def cka_graph(x: Tensor, y: np.ndarray) -> Tensor:
    """Linear CKA between a graph tensor and a constant feature matrix."""
    xc = x - x.mean(axis=0, keepdims=True)
    yc = np.asarray(y, dtype=np.float64)
    yc = yc - yc.mean(axis=0, keepdims=True)
    cross = Tensor(yc.T) @ xc
    xx = xc.T @ xc
    xn = ((xx * xx).sum()).sqrt()
    yn = float(np.linalg.norm(yc.T @ yc))
    if yn == 0.0 or float(xn.item()) == 0.0:
        raise DegenerateInputError("constant features have degenerate CKA")
    return (cross * cross).sum() / (xn * yn)


def cka_distill_loss(z: Tensor, z_canon: Tensor, teacher_feats: np.ndarray,
                     lambda_cka: float) -> Tensor:
    """Match student Gram structure to the teacher's Canonical Features.

    Weighted sum of log(1 - CKA) terms for the raw batch features and
    the raw canonical features; CKA is clamped at 1 - 1e-7 so perfect
    alignment stays finite.
    """
    cka_z = ad.clamp_max(cka_graph(z, teacher_feats), 1.0 - 1e-7)
    cka_c = ad.clamp_max(cka_graph(z_canon, teacher_feats), 1.0 - 1e-7)
    term_z = (1.0 - cka_z).log()
    term_c = (1.0 - cka_c).log()
    return lambda_cka * term_z + (1.0 - lambda_cka) * term_c


def sample_bundles(pool: ClaRepPool, labels, rng: Rng) -> list[CanonicalBundle]:
    """Uniformly pick one same-class pool entry per batch element.

    All picks come from one bounded-integer draw whose per-element upper
    bounds are the class sizes, which consumes the stream exactly as one
    draw per element would.
    """
    labels = np.asarray(labels, dtype=np.int64)
    classes, which = np.unique(labels, return_inverse=True)
    entries = []
    for y in classes.tolist():
        if not pool.by_class.get(y):
            raise ConfigError(f"pool has no entries for class {y}")
        entries.append(pool.by_class[y])
    counts = np.array([len(e) for e in entries], dtype=np.int64)
    picks = rng.integers(0, counts[which])
    return [entries[c][k] for c, k in zip(which.tolist(), picks.tolist())]


def total_loss(x: np.ndarray, labels: np.ndarray, bundles: list[CanonicalBundle] | None,
               student: StudentClassifier, cfg: DistillConfig):
    """Full objective and its component values.

    With no bundles this is plain cross-entropy; otherwise
    cls + lambda_cs (lambda_cf align + (1 - lambda_cf) cluster)
    + lambda_dist cka. Returns (total Tensor, components dict).
    """
    if len(x) == 0:
        raise InvalidInputError("empty batch")
    x_t = Tensor(np.atleast_2d(x))
    feats, logits = student.forward_graph(x_t)
    cls = cross_entropy(logits, labels)
    if bundles is None:
        return cls, {"cls": cls.item(), "align": 0.0, "cluster": 0.0, "cka": 0.0}
    canon_x = np.stack([b.canonical_sample for b in bundles])
    teacher = np.stack([b.canonical_feature for b in bundles])
    canon_feats, _ = student.forward_graph(Tensor(canon_x))
    zn = l2_normalize(feats)
    cn = l2_normalize(canon_feats)
    l_align = align_loss(zn, cn, labels, cfg.tau)
    l_cluster = cluster_loss(cn, labels, cfg.tau)
    l_cka = cka_distill_loss(feats, canon_feats, teacher, cfg.lambda_cka)
    total = (cls
             + cfg.lambda_cs * (cfg.lambda_cf * l_align + (1.0 - cfg.lambda_cf) * l_cluster)
             + cfg.lambda_dist * l_cka)
    return total, {"cls": cls.item(), "align": l_align.item(),
                   "cluster": l_cluster.item(), "cka": l_cka.item()}


def train_student(data: ToyDataset, pool: ClaRepPool | None, cfg: DistillConfig,
                  rng: Rng):
    """Train a student; pool = None gives the plain cross-entropy baseline.

    Returns (student, per-epoch component log).
    """
    if pool is not None:
        for y in np.unique(data.ys()):
            if int(y) not in pool.by_class or not pool.by_class[int(y)]:
                raise ConfigError(f"pool has no entries for class {int(y)}")
    student = StudentClassifier(rng.split("init"))
    if cfg.optimizer == "adam":
        opt = ad.Adam(student.parameters(), lr=cfg.lr)
    elif cfg.optimizer == "sgd":
        opt = ad.SgdMomentum(student.parameters(), lr=cfg.lr, momentum=cfg.momentum)
    else:
        raise ConfigError(f"unknown optimizer: {cfg.optimizer}")
    train_rng = rng.split("train")
    pool_rng = rng.split("pool")
    xs, ys = data.xs(), data.ys()
    n = len(data)
    log = []
    for epoch in range(cfg.epochs):
        order = train_rng.permutation(n)
        sums = {"total": 0.0, "cls": 0.0, "align": 0.0, "cluster": 0.0, "cka": 0.0}
        batches = 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            bundles = sample_bundles(pool, ys[idx], pool_rng) if pool is not None else None
            loss, comps = total_loss(xs[idx], ys[idx], bundles, student, cfg)
            if not np.isfinite(loss.item()):
                raise TrainingDivergedError(epoch)
            opt.zero_grad()
            loss.backward()
            opt.step()
            sums["total"] += loss.item()
            for k, v in comps.items():
                sums[k] += v
            batches += 1
        log.append({k: v / batches for k, v in sums.items()})
    return student, log


def pgd_attack(student: StudentClassifier, x: np.ndarray, y: np.ndarray,
               atk: AttackConfig, rng: Rng | None) -> np.ndarray:
    """L-infinity PGD: random start, signed-gradient steps, per-step projection.

    With rng=None the attack starts at the clean input (steps=1 with
    step_size=epsilon then reduces to FGSM).
    """
    if atk.norm != "linf":
        raise InvalidInputError(f"unsupported attack norm: {atk.norm}")
    if atk.epsilon <= 0 or atk.steps < 1:
        raise InvalidInputError("attack needs epsilon > 0 and steps >= 1")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if rng is None:
        x_adv = x.copy()
    else:
        x_adv = x + rng.uniform(-atk.epsilon, atk.epsilon, size=x.shape)
    for _ in range(atk.steps):
        x_t = Tensor(x_adv, requires_grad=True)
        _, logits = student.forward_graph(x_t)
        loss = cross_entropy(logits, y)
        loss.backward()
        x_adv = x_adv + atk.step_size * np.sign(x_t.grad)
        x_adv = np.clip(x_adv, x - atk.epsilon, x + atk.epsilon)
    return x_adv


def evaluate(student: StudentClassifier, data: ToyDataset,
             atk: AttackConfig | None = None, rng: Rng | None = None) -> MetricsReport:
    """Clean accuracy, and robust accuracy under the attack if given."""
    xs, ys = data.xs(), data.ys()
    clean = float(np.mean(student.predict(xs) == ys))
    robust = None
    if atk is not None:
        if rng is None:
            raise InvalidInputError("attack evaluation needs an rng for random starts")
        x_adv = pgd_attack(student, xs, ys, atk, rng)
        robust = float(np.mean(student.predict(x_adv) == ys))
    return MetricsReport(clean_accuracy=clean, robust_accuracy=robust)


def save_student(student: StudentClassifier, path: str) -> None:
    ad.save_params(path, CHECKPOINT_FORMAT,
                   {"n_classes": student.n_classes, "hidden_dim": student.hidden_dim}, student)


def load_student(path: str) -> StudentClassifier:
    return ad.load_params(path, CHECKPOINT_FORMAT,
                          lambda **meta: StudentClassifier(Rng(0), **meta))
