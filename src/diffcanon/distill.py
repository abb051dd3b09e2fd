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
from .canon import Bundles
from .errors import (ConfigError, DegenerateInputError, InvalidInputError,
                     TrainingDivergedError)
from .rng import Rng
from .toydata import ToyDataset

CHECKPOINT_FORMAT = "student-checkpoint-v2"


class StudentClassifier:
    """ReLU MLP 2 -> h -> h -> logits; the penultimate layer is the feature."""

    PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3")
    n_classes, hidden_dim = 2, 64

    def __init__(self, rng: Rng):
        h, n_classes = self.hidden_dim, self.n_classes
        self.W1 = Tensor(rng.normal((2, h)) * np.sqrt(2.0 / 2), requires_grad=True)
        self.b1 = Tensor(np.zeros(h), requires_grad=True)
        self.W2 = Tensor(rng.normal((h, h)) * np.sqrt(2.0 / h), requires_grad=True)
        self.b2 = Tensor(np.zeros(h), requires_grad=True)
        self.W3 = Tensor(rng.normal((h, n_classes)) * np.sqrt(2.0 / h), requires_grad=True)
        self.b3 = Tensor(np.zeros(n_classes), requires_grad=True)

    def parameters(self) -> list[Tensor]:
        return [getattr(self, name) for name in self.PARAM_NAMES]

    def _hidden(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h1 = np.maximum(x @ self.W1.data + self.b1.data, 0.0)
        return h1, np.maximum(h1 @ self.W2.data + self.b2.data, 0.0)

    def forward_graph(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Return (features, logits) as graph tensors.

        The two hidden layers are one tape node whose backward is the
        closed-form reverse pass through the ReLU masks; it also gives
        dL/dx when x requires grad (PGD reads it). The head stays two
        tape ops.
        """
        h1, h2 = self._hidden(x.data)
        w1, w2 = self.W1.data, self.W2.data

        def grads(g):
            d2 = g * (h2 > 0)
            d1 = (d2 @ w2.T) * (h1 > 0)
            dx = d1 @ w1.T if x.requires_grad else None
            return dx, x.data.T @ d1, d1.sum(axis=0), h1.T @ d2, d2.sum(axis=0)

        feats = ad.fused(h2, (x, self.W1, self.b1, self.W2, self.b2), grads)
        return feats, feats @ self.W3 + self.b3

    def predict(self, x: np.ndarray) -> np.ndarray:
        feats = self._hidden(x)[1]
        return np.argmax(feats @ self.W3.data + self.b3.data, axis=1)


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


@dataclass
class AttackConfig:
    epsilon: float = 0.1
    steps: int = 5
    step_size: float = 0.05


@dataclass
class MetricsReport:
    clean_accuracy: float
    robust_accuracy: float


def _softmax_rows(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row softmax of s and its max-shifted log-sum-exp; -inf entries get zero weight."""
    m = s.max(axis=1, keepdims=True)
    e = np.exp(s - m)
    total = e.sum(axis=1, keepdims=True)
    e /= total
    return e, (np.log(total) + m)[:, 0]


def l2_normalize(z: Tensor) -> Tensor:
    """Unit rows z / |z|, one tape node with backward (G - zhat (G . zhat)) / |z|."""
    norm = np.sqrt((z.data * z.data).sum(axis=1, keepdims=True) + 1e-24)
    out = z.data / norm

    def grads(g):
        return ((g - out * (g * out).sum(axis=1, keepdims=True)) / norm,)

    return ad.fused(out, (z,), grads)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy, one tape node with backward (softmax - onehot) / b."""
    rows = np.arange(len(labels))
    p, log_denom = _softmax_rows(logits.data)

    def grads(g):
        d = p.copy()
        d[rows, labels] -= 1.0
        return (d * (g / len(labels)),)

    return ad.fused(np.mean(log_denom - logits.data[rows, labels]), (logits,), grads)


def _contrastive(sim: np.ndarray, denom: np.ndarray, pos: np.ndarray, tau: float):
    """Mean over anchors of the log-sum-exp of `denom` minus the mean positive `sim`.

    `denom` is `sim` with -inf where an entry leaves the denominator.
    Returns the value and the map from the output adjoint g to dL/d(dot
    products), g (softmax - pos / |pos|) / (b tau): the supervised-contrastive
    gradient. A row with no positive keeps only its log-sum-exp.
    """
    b = len(sim)
    p, log_denom = _softmax_rows(denom)
    w = pos * (1.0 / np.maximum(pos.sum(axis=1), 1.0))[:, None]
    value = (log_denom.sum() - np.vdot(sim, w)) / b
    return value, lambda g: (p - w) * (g / (b * tau))


def align_loss(z: Tensor, z_canon: Tensor, labels: np.ndarray, tau: float) -> Tensor:
    """Pull each feature toward every same-class canonical feature.

    Softmax over similarities to the whole canonical batch (self
    included); rows are assumed unit-norm. One tape node.
    """
    if len(labels) == 0:
        raise InvalidInputError("empty batch")
    sim = (z.data @ z_canon.data.T) * (1.0 / tau)
    value, d_sim = _contrastive(sim, sim, labels[:, None] == labels[None, :], tau)

    def grads(g):
        d = d_sim(g)
        return d @ z_canon.data, d.T @ z.data

    return ad.fused(value, (z, z_canon), grads)


def cluster_loss(z_canon: Tensor, labels: np.ndarray, tau: float) -> Tensor:
    """Encourage same-class canonical features to cluster.

    Anchor i is scored against its same-class peers with a denominator
    over everything except itself; an anchor with no same-class peer
    falls back to just penalizing its denominator. One tape node.
    """
    if len(labels) < 2:
        raise InvalidInputError("cluster_loss needs a batch of at least 2")
    c = z_canon.data
    sim = (c @ c.T) * (1.0 / tau)
    others = sim.copy()
    np.fill_diagonal(others, -np.inf)
    pos = labels[:, None] == labels[None, :]
    np.fill_diagonal(pos, False)
    value, d_sim = _contrastive(sim, others, pos, tau)

    def grads(g):
        d = d_sim(g)
        return ((d + d.T) @ c,)

    return ad.fused(value, (z_canon,), grads)


CKA_CEILING = 1.0 - 1e-7


def _cka_log_term(x: np.ndarray, yc: np.ndarray, yn: float):
    """log(1 - CKA(x, y)) with CKA clamped at CKA_CEILING, and its gradient in x.

    With X, Y centred, A = Y'X and K = X'X, linear CKA is |A|^2 / (|K| |Y'Y|)
    and dCKA/dX = 2 Y A / (|K| |Y'Y|) - 2 CKA X K / |K|^2, which already has
    zero column means, so centring passes it through. The clamp's
    gradient is zero. The gradient is returned as a function, which only
    the backward calls.
    """
    xc = x - x.mean(axis=0, keepdims=True)
    a = yc.T @ xc
    k = xc.T @ xc
    xn = float(np.sqrt((k * k).sum()))
    if yn == 0.0 or xn == 0.0:
        raise DegenerateInputError("constant features have degenerate CKA")
    cka = float((a * a).sum()) / (xn * yn)
    if cka > CKA_CEILING:
        return np.log(1.0 - CKA_CEILING), lambda: np.zeros_like(x)

    def grad():
        d_cka = (yc @ a) * (2.0 / (xn * yn)) - (xc @ k) * (2.0 * cka / (xn * xn))
        return d_cka * (-1.0 / (1.0 - cka))

    return np.log(1.0 - cka), grad


def cka_distill_loss(z: Tensor, z_canon: Tensor, teacher_feats: np.ndarray,
                     lambda_cka: float) -> Tensor:
    """Match student Gram structure to the teacher's Canonical Features.

    Weighted sum of log(1 - CKA) terms for the raw batch features and
    the raw canonical features; CKA is clamped at 1 - 1e-7 so perfect
    alignment stays finite. One tape node over both feature tensors.
    """
    yc = teacher_feats - teacher_feats.mean(axis=0, keepdims=True)
    yn = float(np.linalg.norm(yc.T @ yc))
    term_z, d_z = _cka_log_term(z.data, yc, yn)
    term_c, d_c = _cka_log_term(z_canon.data, yc, yn)
    value = lambda_cka * term_z + (1.0 - lambda_cka) * term_c

    def grads(g):
        return d_z() * (lambda_cka * g), d_c() * ((1.0 - lambda_cka) * g)

    return ad.fused(value, (z, z_canon), grads)


def pool_rows(ys: np.ndarray, fraction: float, rng: Rng) -> list[int]:
    """Dataset rows of a CLARep pool, sorted.

    Each class contributes max(1, round(fraction * its size)) members, the
    first of one random permutation of them.
    """
    picked = []
    for c in np.unique(ys):
        members = np.flatnonzero(ys == c)
        count = max(1, round(fraction * len(members)))
        order = rng.permutation(len(members))
        picked.extend(members[order[:count]].tolist())
    return sorted(picked)


def sample_bundles(pool: Bundles, labels: np.ndarray, rng: Rng) -> list[int]:
    """Uniformly pick one same-class pool row per batch element; return the row indices.

    All picks come from one bounded-integer draw whose per-element upper
    bounds are the class sizes, which consumes the stream exactly as one
    draw per element would. The indices stay a list of Python ints taken
    from per-class lists: a row drawn twice is one object, so counting
    distinct objects counts rows, which an array's scalars would not.
    """
    classes, which = np.unique(labels, return_inverse=True)
    members = []
    for y in classes.tolist():
        rows = np.flatnonzero(pool.cond == y).tolist()
        if not rows:
            raise ConfigError(f"pool has no entries for class {y}")
        members.append(rows)
    counts = np.array([len(m) for m in members], dtype=np.int64)
    picks = rng.integers(0, counts[which])
    return [members[c][k] for c, k in zip(which.tolist(), picks.tolist())]


def total_loss(x: np.ndarray, labels: np.ndarray, canon_x: np.ndarray | None,
               teacher: np.ndarray | None, student: StudentClassifier, cfg: DistillConfig):
    """Full objective and its component values.

    With canon_x None this is plain cross-entropy; otherwise, with canon_x
    and teacher the canonical samples and features paired with the batch,
    cls + lambda_cs (lambda_cf align + (1 - lambda_cf) cluster)
    + lambda_dist cka. Returns (total Tensor, components dict).
    """
    if len(x) == 0:
        raise InvalidInputError("empty batch")
    feats, logits = student.forward_graph(Tensor(x))
    cls = cross_entropy(logits, labels)
    if canon_x is None:
        return cls, {"cls": cls.item(), "align": 0.0, "cluster": 0.0, "cka": 0.0}
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


def train_student(data: ToyDataset, pool: Bundles | None, cfg: DistillConfig,
                  rng: Rng):
    """Train a student; pool = None gives the plain cross-entropy baseline.

    Returns (student, per-epoch component log).
    """
    student = StudentClassifier(rng.split("init"))
    opt = ad.Adam(student.parameters(), lr=cfg.lr)
    train_rng = rng.split("train")
    pool_rng = rng.split("pool")
    xs, ys = data.xs, data.ys
    n = len(data)
    bounds = list(range(0, n, cfg.batch_size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        # a one-row batch has no cluster peer and no CKA; it joins the batch before
        del bounds[-2]
    log = []
    for epoch in range(cfg.epochs):
        order = train_rng.permutation(n)
        sums = {"total": 0.0, "cls": 0.0, "align": 0.0, "cluster": 0.0, "cka": 0.0}
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            idx = order[lo:hi]
            canon_x = teacher = None
            if pool is not None:
                rows = sample_bundles(pool, ys[idx], pool_rng)
                canon_x, teacher = pool.canonical_sample[rows], pool.canonical_feature[rows]
            loss, comps = total_loss(xs[idx], ys[idx], canon_x, teacher, student, cfg)
            if not np.isfinite(loss.item()):
                raise TrainingDivergedError(epoch)
            opt.zero_grad()
            loss.backward()
            opt.step()
            sums["total"] += loss.item()
            for k, v in comps.items():
                sums[k] += v
        log.append({k: v / (len(bounds) - 1) for k, v in sums.items()})
    return student, log


def pgd_attack(student: StudentClassifier, x: np.ndarray, y: np.ndarray,
               atk: AttackConfig, rng: Rng) -> np.ndarray:
    """L-infinity PGD: random start, signed-gradient steps, per-step projection."""
    if atk.epsilon <= 0 or atk.steps < 1:
        raise InvalidInputError("attack needs epsilon > 0 and steps >= 1")
    x_adv = x + rng.uniform(-atk.epsilon, atk.epsilon, size=x.shape)
    for _ in range(atk.steps):
        x_t = Tensor(x_adv, requires_grad=True)
        _, logits = student.forward_graph(x_t)
        loss = cross_entropy(logits, y)
        loss.backward()
        x_adv = x_adv + atk.step_size * np.sign(x_t.grad)
        x_adv = np.clip(x_adv, x - atk.epsilon, x + atk.epsilon)
    return x_adv


def evaluate(student: StudentClassifier, data: ToyDataset, atk: AttackConfig,
             rng: Rng) -> MetricsReport:
    """Clean accuracy, and robust accuracy under the attack."""
    xs, ys = data.xs, data.ys
    clean = float(np.mean(student.predict(xs) == ys))
    x_adv = pgd_attack(student, xs, ys, atk, rng)
    return MetricsReport(clean_accuracy=clean,
                         robust_accuracy=float(np.mean(student.predict(x_adv) == ys)))


def save_student(student: StudentClassifier, path: str) -> None:
    ad.save_params(path, CHECKPOINT_FORMAT, student)


def load_student(path: str) -> StudentClassifier:
    return ad.load_params(path, CHECKPOINT_FORMAT, StudentClassifier(Rng(0)))
