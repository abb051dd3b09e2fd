"""Reverse-mode automatic differentiation over numpy arrays.

Operations are matrix-level (affine maps, elementwise maps,
reductions) rather than a scalar tape; `fused` makes a whole subgraph
one node with a closed-form backward. Each Tensor produced
by an operation keeps references to its parents together with a closure
that routes the output adjoint back to them; `backward()` replays the
closures in reverse topological order. Everything runs in float64.
`save_params` / `load_params` are the one checkpoint file format.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, InvalidInputError


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over axes that numpy broadcasting introduced or stretched."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 numpy array plus the bookkeeping for reverse mode."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_push")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._push = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Populate .grad on every tensor reachable from this scalar root."""
        if self.data.size != 1:
            raise ContractError("backward requires a scalar root")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._push is not None and node.grad is not None:
                node._push(node.grad)

    # arithmetic

    def __add__(self, other):
        o = _wrap(other)
        return _node(self.data + o.data, (self, o),
                     lambda g: (_accum(self, g), _accum(o, g)))

    __radd__ = __add__

    def __sub__(self, other):
        o = _wrap(other)
        return _node(self.data - o.data, (self, o),
                     lambda g: (_accum(self, g), _accum(o, -g)))

    def __mul__(self, other):
        o = _wrap(other)
        return _node(self.data * o.data, (self, o),
                     lambda g: (_accum(self, g * o.data), _accum(o, g * self.data)))

    __rmul__ = __mul__

    def __matmul__(self, other):
        o = _wrap(other)
        return _node(self.data @ o.data, (self, o),
                     lambda g: (_accum(self, g @ o.data.T), _accum(o, self.data.T @ g)))

    # reductions

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def push(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            _accum(self, np.broadcast_to(gg, self.data.shape))

        return _node(out, (self,), push)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    t.grad = g.copy() if t.grad is None else t.grad + g


def _node(data, parents, push) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._push = push
    return out


def fused(data, params, grads) -> Tensor:
    """One tape node over `params` whose backward is a closed form.

    `grads(g)` maps the output adjoint to one gradient per parameter,
    in order; a whole subgraph of ops then costs one node on the tape.
    """
    params = tuple(params)

    def push(g):
        for p, gp in zip(params, grads(g)):
            _accum(p, gp)

    return _node(data, params, push)


def mse(pred: Tensor, target) -> Tensor:
    """Mean squared error of pred against a constant target, as one tape node.

    Value and gradient are those the per-op graph
    `diff = pred - Tensor(target); (diff * diff).mean()` replays, bit for bit.
    """
    diff = pred.data - _as_array(target)
    scale = 1.0 / diff.size

    def push(g):
        h = g * scale * diff
        _accum(pred, h + h)

    return _node((diff * diff).sum() * scale, (pred,), push)


class _FlatOptimizer:
    """Parameters, optimizer state and gradients held in flat buffers.

    Every `p.data` is rebound to a view into one flat array, so a step
    updates all parameters with a few whole-buffer operations; the state
    buffers share the layout. Parameters whose grad is None are skipped,
    their state untouched. A `p.data` rebound after construction is no
    longer updated by the optimizer.
    """

    def __init__(self, params):
        self.params = list(params)
        sizes = [p.data.size for p in self.params]
        bounds = np.cumsum([0] + sizes)
        self.slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self.flat = np.concatenate([p.data.ravel() for p in self.params])
        for p, sl in zip(self.params, self.slices):
            p.data = self.flat[sl].reshape(p.data.shape)
        self.grad = np.empty_like(self.flat)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _gather(self) -> list[slice]:
        """Copy the grads into the flat gradient buffer; return the spans to update."""
        spans = []
        for p, sl in zip(self.params, self.slices):
            if p.grad is not None:
                self.grad[sl] = p.grad.ravel()
                spans.append(sl)
        return [slice(None)] if len(spans) == len(self.params) else spans


class Adam(_FlatOptimizer):
    """Standard bias-corrected Adam over a list of parameter Tensors."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params)
        self.lr, self.beta1, self.beta2 = lr, beta1, beta2
        self.eps, self.weight_decay = eps, weight_decay
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0

    def step(self) -> None:
        self.t += 1
        for sl in self._gather():
            p, g, m, v = self.flat[sl], self.grad[sl], self.m[sl], self.v[sl]
            if self.weight_decay:
                g += self.weight_decay * p
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class SgdMomentum(_FlatOptimizer):
    """SGD with classical momentum."""

    def __init__(self, params, lr: float = 1e-2, momentum: float = 0.9):
        super().__init__(params)
        self.lr, self.momentum = lr, momentum
        self.buf = np.zeros_like(self.flat)

    def step(self) -> None:
        for sl in self._gather():
            b = self.buf[sl]
            b *= self.momentum
            b += self.grad[sl]
            self.flat[sl] -= self.lr * b


def save_params(path: str, fmt: str, meta: dict[str, int], model) -> None:
    """Write a checkpoint of `model`'s parameters as one JSON object.

    It holds the format tag `fmt`, the integer metadata `meta` that
    rebuilds the model, and each parameter of `model.PARAM_NAMES` as a
    nested list, with sorted keys.
    """
    payload = {"format": fmt, **meta,
               "params": {name: getattr(model, name).data.tolist()
                          for name in model.PARAM_NAMES}}
    with atomic_write(path) as f:
        json.dump(payload, f, sort_keys=True)


@contextmanager
def atomic_write(path: str):
    """Open a temp file beside `path` that replaces it only if the block completes.

    Text is written untranslated (newline=""), so the csv module's line
    ends reach the file as they are.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_params(path: str, fmt: str, build):
    """Read a save_params checkpoint into the model `build(**meta)` returns.

    The format tag must be `fmt`, and every parameter the built model
    names must be stored with the shape the model gives it.
    """
    with open(path) as f:
        payload = json.load(f)
    if payload.get("format") != fmt:
        raise InvalidInputError(f"unexpected checkpoint format: {payload.get('format')}")
    model = build(**{k: v for k, v in payload.items() if k not in ("format", "params")})
    stored = payload.get("params", {})
    for name in model.PARAM_NAMES:
        if name not in stored:
            raise InvalidInputError(f"checkpoint {path} has no parameter {name}")
        try:
            value = np.asarray(stored[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(
                f"checkpoint parameter {name} is not a numeric array") from exc
        p = getattr(model, name)
        if value.shape != p.data.shape:
            raise InvalidInputError(f"checkpoint parameter {name} has shape {value.shape}, "
                                    f"the model needs {p.data.shape}")
        p.data = value
    return model
