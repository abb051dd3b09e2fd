"""Per-op tape oracles for the fused nodes of the program.

The student forward and each distillation loss term run in `distill` as
one `autodiff.fused` node with a closed-form backward, and the denoising
loss as one `autodiff.mse` node. The functions here build the same
values from elementwise tape ops, so `backward()` differentiates them op
by op; the tests check the fused nodes against them. The tape ops (relu, silu, clamp_max, logsumexp, concat,
embedding, and exp, log, sqrt, power, div, neg, transpose) have no
caller in the program; the per-op denoiser graph in `test_diffusion.py`
uses them too.
"""

import numpy as np

from diffcanon.autodiff import Tensor, _accum, _node, _wrap
from diffcanon.errors import DegenerateInputError, InvalidInputError

# ---------------------------------------------------------------- tape ops


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return _node(out, (x,), lambda g: _accum(x, g * out))


def log(x: Tensor) -> Tensor:
    return _node(np.log(x.data), (x,), lambda g: _accum(x, g / x.data))


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)
    return _node(out, (x,), lambda g: _accum(x, g * 0.5 / out))


def power(x: Tensor, p: float) -> Tensor:
    """x ** p for a constant exponent p."""
    return _node(x.data ** p, (x,), lambda g: _accum(x, g * p * x.data ** (p - 1)))


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _node(a.data / b.data, (a, b),
                 lambda g: (_accum(a, g / b.data), _accum(b, -g * a.data / (b.data * b.data))))


def neg(x: Tensor) -> Tensor:
    return _node(-x.data, (x,), lambda g: _accum(x, -g))


def transpose(x: Tensor) -> Tensor:
    return _node(x.data.T, (x,), lambda g: _accum(x, g.T))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _node(np.where(mask, x.data, 0.0), (x,), lambda g: _accum(x, g * mask))


def silu(x: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-x.data))
    # d/du [u*sigmoid(u)] = sigmoid(u) * (1 + u * (1 - sigmoid(u)))
    deriv = sig * (1.0 + x.data * (1.0 - sig))
    return _node(x.data * sig, (x,), lambda g: _accum(x, g * deriv))


def clamp_max(x: Tensor, hi: float) -> Tensor:
    mask = x.data <= hi
    return _node(np.minimum(x.data, hi), (x,), lambda g: _accum(x, g * mask))


def logsumexp(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max-shifted log-sum-exp; -inf entries contribute zero weight."""
    m = np.max(x.data, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.log(s) + m
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def push(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        _accum(x, gg * (e / s))

    return _node(out_data, (x,), push)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def push(g):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            _accum(t, np.take(g, range(lo, hi), axis=axis))

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), push)


def embedding(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup table[idx]; backward scatter-adds into the table."""
    idx = np.asarray(idx, dtype=np.int64)

    def push(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        _accum(table, full)

    return _node(table.data[idx], (table,), push)


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error of pred against a constant target, op by op."""
    diff = pred - Tensor(target)
    return (diff * diff).mean()


# ---------------------------------------------------------------- student and losses


def forward_graph(student, x: Tensor) -> tuple[Tensor, Tensor]:
    """(features, logits) of `student` as a per-op graph."""
    h1 = relu(x @ student.W1 + student.b1)
    h2 = relu(h1 @ student.W2 + student.b2)
    return h2, h2 @ student.W3 + student.b3


def l2_normalize(z: Tensor) -> Tensor:
    norm = sqrt((z * z).sum(axis=1, keepdims=True) + 1e-24)
    return div(z, norm)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    labels = np.asarray(labels, dtype=np.int64)
    b, c = logits.shape
    onehot = np.zeros((b, c))
    onehot[np.arange(b), labels] = 1.0
    log_denom = logsumexp(logits, axis=1)
    picked = (logits * onehot).sum(axis=1)
    return (log_denom - picked).mean()


def align_loss(z: Tensor, z_canon: Tensor, labels, tau: float) -> Tensor:
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        raise InvalidInputError("empty batch")
    sim = (z @ transpose(z_canon)) * (1.0 / tau)
    log_denom = logsumexp(sim, axis=1, keepdims=True)
    log_prob = sim - log_denom
    pos = (labels[:, None] == labels[None, :]).astype(np.float64)
    per_anchor = (log_prob * pos).sum(axis=1) * Tensor(1.0 / pos.sum(axis=1))
    return neg(per_anchor.mean())


def cluster_loss(z_canon: Tensor, labels, tau: float) -> Tensor:
    labels = np.asarray(labels, dtype=np.int64)
    b = len(labels)
    if b < 2:
        raise InvalidInputError("cluster_loss needs a batch of at least 2")
    sim = (z_canon @ transpose(z_canon)) * (1.0 / tau)
    off_diag = np.zeros((b, b))
    np.fill_diagonal(off_diag, -np.inf)
    masked = sim + Tensor(off_diag)
    log_denom = logsumexp(masked, axis=1)
    log_prob = sim - logsumexp(masked, axis=1, keepdims=True)
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
    xx = transpose(xc) @ xc
    xn = sqrt((xx * xx).sum())
    yn = float(np.linalg.norm(yc.T @ yc))
    if yn == 0.0 or float(xn.item()) == 0.0:
        raise DegenerateInputError("constant features have degenerate CKA")
    return div((cross * cross).sum(), xn * yn)


def cka_distill_loss(z: Tensor, z_canon: Tensor, teacher_feats: np.ndarray,
                     lambda_cka: float) -> Tensor:
    cka_z = clamp_max(cka_graph(z, teacher_feats), 1.0 - 1e-7)
    cka_c = clamp_max(cka_graph(z_canon, teacher_feats), 1.0 - 1e-7)
    term_z = log(Tensor(1.0) - cka_z)
    term_c = log(Tensor(1.0) - cka_c)
    return lambda_cka * term_z + (1.0 - lambda_cka) * term_c


def total_loss(x, labels, bundles, student, cfg) -> Tensor:
    """`distill.total_loss` built from the per-op graphs above."""
    feats, logits = forward_graph(student, Tensor(np.atleast_2d(x)))
    cls = cross_entropy(logits, labels)
    if bundles is None:
        return cls
    canon_x = np.stack([b.canonical_sample for b in bundles])
    teacher = np.stack([b.canonical_feature for b in bundles])
    canon_feats, _ = forward_graph(student, Tensor(canon_x))
    zn = l2_normalize(feats)
    cn = l2_normalize(canon_feats)
    l_align = align_loss(zn, cn, labels, cfg.tau)
    l_cluster = cluster_loss(cn, labels, cfg.tau)
    l_cka = cka_distill_loss(feats, canon_feats, teacher, cfg.lambda_cka)
    return (cls
            + cfg.lambda_cs * (cfg.lambda_cf * l_align + (1.0 - cfg.lambda_cf) * l_cluster)
            + cfg.lambda_dist * l_cka)


def pgd_attack(student, x, y, atk, rng) -> np.ndarray:
    """`distill.pgd_attack` with its input gradient taken through the per-op graph."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if rng is None:
        x_adv = x.copy()
    else:
        x_adv = x + rng.uniform(-atk.epsilon, atk.epsilon, size=x.shape)
    for _ in range(atk.steps):
        x_t = Tensor(x_adv, requires_grad=True)
        _, logits = forward_graph(student, x_t)
        cross_entropy(logits, y).backward()
        x_adv = x_adv + atk.step_size * np.sign(x_t.grad)
        x_adv = np.clip(x_adv, x - atk.epsilon, x + atk.epsilon)
    return x_adv


def reachable_nodes(root: Tensor) -> int:
    """Number of tensors on the tape behind `root`, itself and constants included."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)
