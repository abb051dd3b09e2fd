"""Brute-force oracles shared by the module tests and the acceptance criteria.

Each one computes, with plain loops, what a vectorized function in
`src/diffcanon/` computes: the elbow of a sequence, NMI from its
contingency counts, the two contrastive losses, and central differences
of a scalar function, which every finite-difference gradient check reads.
"""

import math

import numpy as np

from diffcanon.autodiff import Tensor
from diffcanon.rng import Rng


def brute_elbow(s):
    s = [float(v) for v in s]
    n = len(s)
    if n < 2:
        return 0
    dx, dy = float(n - 1), s[-1] - s[0]
    norm = math.hypot(dx, dy)
    if norm == 0:
        return 0
    dists = [abs(dy * i - dx * (s[i] - s[0])) / norm for i in range(n)]
    best = 0
    for i in range(1, n):
        if dists[i] > dists[best]:
            best = i
    return best


def brute_nmi(a, b):
    a, b = np.asarray(a), np.asarray(b)
    n = len(a)
    av, bv = np.unique(a), np.unique(b)
    mi = 0.0
    for x in av:
        for y in bv:
            pxy = np.sum((a == x) & (b == y)) / n
            if pxy > 0:
                px = np.sum(a == x) / n
                py = np.sum(b == y) / n
                mi += pxy * math.log(pxy / (px * py))
    ha = -sum((np.sum(a == x) / n) * math.log(np.sum(a == x) / n) for x in av)
    hb = -sum((np.sum(b == y) / n) * math.log(np.sum(b == y) / n) for y in bv)
    denom = 0.5 * (ha + hb)
    return 0.0 if denom == 0 else mi / denom


def brute_align(z, zc, labels, tau):
    b = len(labels)
    total = 0.0
    for i in range(b):
        pos = [j for j in range(b) if labels[j] == labels[i]]
        denom = sum(math.exp(np.dot(z[i], zc[k]) / tau) for k in range(b))
        s = sum(math.log(math.exp(np.dot(z[i], zc[j]) / tau) / denom) for j in pos)
        total += s / len(pos)
    return -total / b


def brute_cluster(zc, labels, tau):
    b = len(labels)
    total = 0.0
    for i in range(b):
        pos = [j for j in range(b) if j != i and labels[j] == labels[i]]
        denom = sum(math.exp(np.dot(zc[i], zc[k]) / tau) for k in range(b) if k != i)
        if pos:
            s = sum(math.log(math.exp(np.dot(zc[i], zc[j]) / tau) / denom) for j in pos)
            total += -s / len(pos)
        else:
            total += math.log(denom)
    return total / b


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def central_differences(f, x, coords, h=1e-6):
    """(f(x + h e_i) - f(x - h e_i)) / 2h for each flat coordinate i in `coords`, in
    order, for a scalar function f of arrays shaped like x; x is not changed."""
    fd = np.empty(len(coords))
    for k, ci in enumerate(coords):
        xp, xm = x.copy(), x.copy()
        xp.reshape(-1)[ci] += h
        xm.reshape(-1)[ci] -= h
        fd[k] = (f(xp) - f(xm)) / (2 * h)
    return fd


def fd_on_tensor(build, x0, coords, h=1e-6):
    """Worst relative error between backward() grads and central FD, over
    `coords` coordinates of x0 drawn from Rng(0)."""
    t = Tensor(x0.copy(), requires_grad=True)
    build(t).backward()
    cis = Rng(0).integers(0, x0.size, size=coords)
    fd = central_differences(lambda x: build(Tensor(x)).item(), x0, cis, h)
    worst = 0.0
    for ci, fd_ci in zip(cis, fd):
        worst = max(worst, rel_err(fd_ci, t.grad.reshape(-1)[ci]))
    return worst
