"""Conditional diffusion core for the 2D toy problem.

Linear-beta DDPM schedule, a small conditional MLP noise predictor with
sinusoidal time embeddings and a learned label table (last row = the
null condition), DDPM training, deterministic DDIM decoding/inversion
over a uniform step grid, classifier-free guidance, and two-stage
sampling that switches the condition on at a chosen timestep.

Timestep convention: alpha_bar has length T+1 with alpha_bar[0] = 1, so
t = 0 is the clean-data point and DDIM steps move between grid points
of [0, T].
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _BLAS_VARS
from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidInputError, TrainingDivergedError
from .rng import Rng
from .toydata import ToyDataset

# Per-epoch decay of the exponential weight average that train_cdm returns.
# Epoch k (from 0) decays the average by min(EMA_DECAY, (1 + k) / (10 + k)),
# so that a short run is not averaged over its first, barely trained epochs.
EMA_DECAY = 0.99

CHECKPOINT_FORMAT = "cdm-checkpoint-v1"


@dataclass
class NoiseSchedule:
    t_max: int
    beta: np.ndarray            # beta[0] unused, beta[1..T] the forward variances
    alpha_bar: np.ndarray       # alpha_bar[t] = prod_{k<=t} (1 - beta_k), alpha_bar[0] = 1
    ddim_steps: int = 100


def linear_schedule(t_max: int = 1000, beta_start: float = 1e-4, beta_end: float = 0.02,
                    ddim_steps: int = 100) -> NoiseSchedule:
    beta = np.zeros(t_max + 1)
    beta[1:] = np.linspace(beta_start, beta_end, t_max)
    alpha_bar = np.cumprod(1.0 - beta)
    return NoiseSchedule(t_max=t_max, beta=beta, alpha_bar=alpha_bar, ddim_steps=ddim_steps)


def time_embedding(t, dim: int = 16) -> np.ndarray:
    """Sinusoidal embedding of (possibly batched) timesteps."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


# Integer timesteps below this read their embedding from a cached table.
TIME_TABLE_SIZE = 1024


@lru_cache(maxsize=4)
def _time_table(dim: int) -> np.ndarray:
    """time_embedding of 0..TIME_TABLE_SIZE-1, read-only."""
    table = time_embedding(np.arange(TIME_TABLE_SIZE), dim)
    table.setflags(write=False)
    return table


def _silu_deriv(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d/da [a * s] for s = sigmoid(a)."""
    return s * (1.0 + a * (1.0 - s))


# decode_batch and invert_batch run a trajectory of PARALLEL_ROWS rows or more
# as two row halves in two processes (_in_row_halves). With one BLAS thread on
# 2 CPUs a 100-step decode took 18 -> 20 ms at 128 rows, 29 -> 23 ms at 192,
# 34 -> 28 ms at 256 and 66 -> 45 ms at 500; a fork and reap costs 3-4 ms.
PARALLEL_ROWS = 256
# The cut falls on a multiple of _ROW_ALIGN rows. A gemm computes the last M mod g
# rows of an M-row product (g is its kernel's row group, 4 with OpenBLAS 0.3.31
# on x86-64) with a tail kernel whose bits differ, so only aligned cuts give
# the one-pass bits.
_ROW_ALIGN = 64
# The most processes per trajectory: the threshold and the gain were measured at 2.
_MAX_WORKERS = 2


def _blas_threads() -> int | None:
    """BLAS threads as OpenBLAS reads them at load: the first positive number among
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS, or None (one per CPU)."""
    for var in _BLAS_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            return n
    return None


def _row_workers() -> int:
    """Processes per large trajectory: min(_MAX_WORKERS, usable CPUs) with BLAS pinned
    to one thread and os.fork available, else 1. A multi-threaded BLAS already runs
    on the other CPUs."""
    if _blas_threads() != 1 or not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(_MAX_WORKERS, cpus)


_WORKERS = _row_workers()


def _in_row_halves(run, b: int) -> np.ndarray:
    """run(slice(0, b)), as two row halves in two processes for a large batch.

    With b >= PARALLEL_ROWS and _WORKERS = 2, a forked child runs the tail
    rows, run(slice(cut, b)), while this process runs the head rows; cut is
    the multiple of _ROW_ALIGN nearest b / 2, so every row keeps its one-pass
    bits. The child inherits what it reads, sends its result or its exception
    back pickled over a pipe and leaves with os._exit. If the head raises, its
    exception wins and the child is killed; the child is reaped either way.
    A process with other threads runs all rows itself: a lock that another
    thread holds at the fork would stay held in the child.
    """
    cut = round(b / _MAX_WORKERS / _ROW_ALIGN) * _ROW_ALIGN
    if b < PARALLEL_ROWS or _WORKERS < 2 or not 0 < cut < b or threading.active_count() > 1:
        return run(slice(0, b))
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare (EAGAIN, ENOMEM): run all rows here
        os.close(read_fd)
        os.close(write_fd)
        return run(slice(0, b))
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                message = (True, run(slice(cut, b)))
            except BaseException as exc:  # the parent raises it
                message = (False, exc)
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)  # all or nothing
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            head = run(slice(0, cut))
            message = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.waitpid(pid, 0)
    if not message:
        raise RuntimeError("the process running the tail rows ended without a result")
    ok, tail = pickle.loads(message)
    if not ok:
        raise tail
    return np.concatenate([head, tail])


class CondDenoiser:
    """3-layer MLP noise predictor f(x_t, t, cond) -> eps_hat.

    Input is the 2D point concatenated with a 16-d sinusoidal time
    embedding and a 16-d learned label embedding; label index
    `n_classes` is the null condition. Inference, features, their JVP
    and the training graph all come from the one forward pass `_cache`.
    """

    PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3", "label_emb")

    def __init__(self, rng: Rng, n_classes: int = 2, hidden_dim: int = 80, embed_dim: int = 16):
        self.n_classes = n_classes
        self.hidden_dim = hidden_dim
        self.embed_dim = embed_dim
        in_dim = 2 + 2 * embed_dim
        h = hidden_dim
        self.W1 = Tensor(rng.normal((in_dim, h)) * np.sqrt(2.0 / in_dim), requires_grad=True)
        self.b1 = Tensor(np.zeros(h), requires_grad=True)
        self.W2 = Tensor(rng.normal((h, h)) * np.sqrt(2.0 / h), requires_grad=True)
        self.b2 = Tensor(np.zeros(h), requires_grad=True)
        self.W3 = Tensor(rng.normal((h, 2)) * np.sqrt(2.0 / h), requires_grad=True)
        self.b3 = Tensor(np.zeros(2), requires_grad=True)
        self.label_emb = Tensor(rng.normal((n_classes + 1, embed_dim)), requires_grad=True)
        self._workspace: dict | None = None  # row count -> buffers, inside `trajectory`

    @property
    def null_id(self) -> int:
        return self.n_classes

    def parameters(self) -> list[Tensor]:
        return [getattr(self, name) for name in self.PARAM_NAMES]

    def _inputs_np(self, x: np.ndarray, t, cond,
                   inp: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Network input rows [x, time embedding, label embedding] and the label ids.

        A scalar t is embedded once and broadcast into every row; t of shape
        (b,) embeds one timestep per row. The rows go into `inp` if given.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        b, e = x.shape[0], self.embed_dim
        t = np.asarray(t)
        cond = np.broadcast_to(np.atleast_1d(np.asarray(cond, dtype=np.int64)), (b,))
        if inp is None:
            inp = np.empty((b, 2 + 2 * e))
        inp[:, :2] = x
        if t.dtype.kind in "iu" and t.size and 0 <= t.min() and t.max() < TIME_TABLE_SIZE:
            inp[:, 2:2 + e] = _time_table(e)[t]
        else:
            inp[:, 2:2 + e] = time_embedding(t, e)
        inp[:, 2 + e:] = self.label_emb.data[cond]
        return inp, cond

    def _cache(self, x, t, cond, bufs: tuple | None = None) -> dict:
        """The forward pass: hidden features h1, h2 and the output.

        SiLU is computed as a * sigmoid(a) with sigmoid = 1 / (1 + exp(-a)),
        in place. Without `bufs` every intermediate is kept, for the JVP and
        the backward: input rows, label ids, pre-activations a1, a2 and
        sigmoids s1, s2. With bufs = (inp, a1, a2, s, out), row buffers of
        the batch, the pass allocates nothing large: it fills them through
        out= and in-place ufuncs, h1 and h2 overwrite a1 and a2, and s
        holds each layer's sigmoid in turn.
        """
        keep = bufs is None
        inp, a1, a2, s, out = (None,) * 5 if keep else bufs
        inp, cond = self._inputs_np(x, t, cond, inp)
        c = {"inp": inp, "cond": cond} if keep else {}
        h = inp
        layers = ((self.W1, self.b1, a1), (self.W2, self.b2, a2))
        for i, (w, bias, a) in enumerate(layers, start=1):
            a = np.matmul(h, w.data, out=a)
            a += bias.data
            s = np.negative(a, out=None if keep else s)
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            if keep:
                c[f"a{i}"], c[f"s{i}"] = a, s
                h = a * s
            else:
                h = np.multiply(a, s, out=a)
            c[f"h{i}"] = h
        out = np.matmul(h, self.W3.data, out=out)
        out += self.b3.data
        c["out"] = out
        return c

    @contextmanager
    def trajectory(self):
        """Let _forward reuse its row buffers until the block ends: one DDIM trajectory."""
        outer, self._workspace = self._workspace, {}
        try:
            yield
        finally:
            self._workspace = outer

    def _forward(self, x, t, cond) -> dict:
        """h1, h2 and the output of a batch, from one `_cache` pass into row buffers.

        Inside `trajectory` the input, pre-activation and sigmoid buffers are
        kept and reused while the row count stays the same, so a trajectory
        allocates them once; the output buffer is fresh on every call.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        b, hd = x.shape[0], self.hidden_dim
        ws = self._workspace
        bufs = ws.get(b) if ws is not None else None
        if bufs is None:
            bufs = (np.empty((b, 2 + 2 * self.embed_dim)), np.empty((b, hd)), np.empty((b, hd)),
                    np.empty((b, hd)))
            if ws is not None:
                self._workspace = {b: bufs}
        return self._cache(x, t, cond, bufs + (np.empty((b, 2)),))

    def eps(self, x, t, cond) -> np.ndarray:
        """Noise prediction, batched, pure numpy (no graph)."""
        return self._forward(x, t, cond)["out"]

    def hidden(self, x, t, cond, layer: int = 2) -> np.ndarray:
        """Post-activation hidden features of the chosen layer (1 or 2)."""
        if layer not in (1, 2):
            raise InvalidInputError(f"layer must be 1 or 2, got {layer}")
        h = self._forward(x, t, cond)[f"h{layer}"]
        return h if self._workspace is None else h.copy()

    def feature_jvp(self, x, t, cond, v: np.ndarray, layer: int = 2) -> np.ndarray:
        """Directional derivative of hidden(layer) along v in data space, per point of x."""
        if layer not in (1, 2):
            raise InvalidInputError(f"layer must be 1 or 2, got {layer}")
        c = self._cache(x, t, cond)
        dh = _silu_deriv(c["a1"], c["s1"]) * (np.asarray(v, dtype=np.float64) @ self.W1.data[:2])
        if layer == 2:
            dh = _silu_deriv(c["a2"], c["s2"]) * (dh @ self.W2.data)
        return dh

    def eps_graph(self, x_t: np.ndarray, t: np.ndarray, cond: np.ndarray) -> Tensor:
        """Noise prediction as one tape node over the 7 parameters, for training.

        Its backward is the closed form of the MLP's reverse pass, the
        same arithmetic the per-op graph (concat, embedding, SiLU, affine
        maps) would replay, so gradients match it bitwise.
        """
        c = self._cache(x_t, t, cond)
        e = self.embed_dim

        def grads(g):
            d2 = (g @ self.W3.data.T) * _silu_deriv(c["a2"], c["s2"])
            d1 = (d2 @ self.W2.data.T) * _silu_deriv(c["a1"], c["s1"])
            d_label = np.zeros_like(self.label_emb.data)
            np.add.at(d_label, c["cond"], (d1 @ self.W1.data.T)[:, 2 + e:])
            return (c["inp"].T @ d1, d1.sum(axis=0), c["h1"].T @ d2, d2.sum(axis=0),
                    c["h2"].T @ g, g.sum(axis=0), d_label)

        return ad.fused(c["out"], self.parameters(), grads)


@dataclass
class TrainConfig:
    epochs: int = 1000
    batch_size: int = 128
    lr: float = 1e-3
    label_drop: float = 0.1


def q_sample(x0, t: int, eps, sched: NoiseSchedule):
    """Closed-form forward noising: sqrt(a_t) x0 + sqrt(1 - a_t) eps."""
    t_arr = np.atleast_1d(np.asarray(t))
    if np.any(t_arr < 1) or np.any(t_arr > sched.t_max):
        raise InvalidInputError(f"timestep out of range [1, {sched.t_max}]")
    a = sched.alpha_bar[t_arr]
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
    out = np.sqrt(a)[:, None] * x0 + np.sqrt(1.0 - a)[:, None] * eps
    return out[0] if out.shape[0] == 1 and np.isscalar(t) else out


def train_cdm(data: ToyDataset, sched: NoiseSchedule, cfg: TrainConfig, rng: Rng):
    """DDPM training of the conditional denoiser.

    Minimizes mean squared error between true and predicted noise, with
    labels replaced by the null condition at rate cfg.label_drop.
    Returns (model, per-epoch mean losses). The model holds the
    bias-corrected exponential average of the weights, taken at the end
    of each epoch with a decay that warms up to EMA_DECAY, not the last
    Adam iterate, whose class means drift from epoch to epoch at a
    constant learning rate; the losses are those of the live iterate.
    """
    if len(data) == 0:
        raise InvalidInputError("empty dataset")
    model = CondDenoiser(rng.split("init"))
    params = model.parameters()
    opt = ad.Adam(params, lr=cfg.lr)
    train_rng = rng.split("train")
    xs, ys = data.xs, data.ys
    n = len(data)
    losses = []
    averages = [np.zeros_like(p.data) for p in params]
    zero_share = 1.0  # weight the all-zero start still holds in the averages
    for epoch in range(cfg.epochs):
        order = train_rng.permutation(n)
        epoch_loss, batches = 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            b = len(idx)
            t = train_rng.integers(1, sched.t_max + 1, size=b)
            eps = train_rng.normal((b, 2))
            drop = train_rng.uniform(size=b) < cfg.label_drop
            cond = np.where(drop, model.null_id, ys[idx])
            x_t = q_sample(xs[idx], t, eps, sched)
            loss = ad.mse(model.eps_graph(x_t, t, cond), eps)
            if not np.isfinite(loss.item()):
                raise TrainingDivergedError(epoch)
            opt.zero_grad()
            loss.backward()
            opt.step()
            epoch_loss += loss.item()
            batches += 1
        losses.append(epoch_loss / batches)
        decay = min(EMA_DECAY, (1.0 + epoch) / (10.0 + epoch))
        zero_share *= decay
        for avg, p in zip(averages, params):
            avg *= decay
            avg += (1.0 - decay) * p.data
    if cfg.epochs > 0:
        for avg, p in zip(averages, params):
            p.data = avg / (1.0 - zero_share)
    return model, losses


def cfg_combine(eps_null: np.ndarray, eps_cond: np.ndarray, w: float) -> np.ndarray:
    """Guided prediction eps_null + w (eps_cond - eps_null).

    Written as (1-w) eps_null + w eps_cond so w = 0 returns the
    unconditional and w = 1 the conditional prediction bitwise.
    """
    return (1.0 - w) * eps_null + w * eps_cond


def guided_eps(model: CondDenoiser, x, t, cond, cfg_scale: float) -> np.ndarray:
    """Classifier-free-guided prediction at scale w = cfg_scale.

    w = 1 is the plain conditional prediction and w = 0 the plain
    unconditional one (single model evaluation each, no blending
    arithmetic); any other w blends the two branches.
    """
    cond_arr = np.atleast_1d(np.asarray(cond, dtype=np.int64))
    if cfg_scale == 1.0 or np.all(cond_arr == model.null_id):
        return model.eps(x, t, cond)
    if cfg_scale == 0.0:
        return model.eps(x, t, np.full_like(cond_arr, model.null_id))
    eps_null = model.eps(x, t, np.full_like(cond_arr, model.null_id))
    eps_cond = model.eps(x, t, cond)
    return cfg_combine(eps_null, eps_cond, cfg_scale)


def ddim_grid(sched: NoiseSchedule, top_t: int) -> list[int]:
    """Ascending timestep grid from 0 to top_t (inclusive), uniformly subsampled."""
    if top_t < 0 or top_t > sched.t_max:
        raise InvalidInputError(f"timestep out of range [0, {sched.t_max}]")
    base = np.unique(np.round(np.linspace(0, sched.t_max, sched.ddim_steps + 1)).astype(int))
    grid = sorted(set(g for g in base.tolist() if g < top_t) | {0, top_t})
    return grid


def _ddim_step(x: np.ndarray, eps_hat: np.ndarray, a_from: float, a_to: float) -> np.ndarray:
    """One deterministic (eta = 0) DDIM step between noise levels alpha_bar a_from and a_to."""
    x0_hat = (x - np.sqrt(1.0 - a_from) * eps_hat) / np.sqrt(a_from)
    return np.sqrt(a_to) * x0_hat + np.sqrt(1.0 - a_to) * eps_hat


def _decode(x, grid, cond, switch, model, sched, cfg_scale) -> np.ndarray:
    null = np.full(len(x), model.null_id, dtype=np.int64)
    with getattr(model, "trajectory", nullcontext)():
        for hi, lo in zip(reversed(grid[1:]), reversed(grid[:-1])):
            step_cond = cond if switch is None else np.where(hi > switch, null, cond)
            eps_hat = guided_eps(model, x, hi, step_cond, cfg_scale)
            x = _ddim_step(x, eps_hat, sched.alpha_bar[hi], sched.alpha_bar[lo])
    return x


def decode_batch(x: np.ndarray, t: int, cond, model: CondDenoiser, sched: NoiseSchedule,
                 cfg_scale: float = 1.0, te_switch=None) -> np.ndarray:
    """Deterministic DDIM decode of a batch from timestep t down to 0.

    With te_switch set (one timestep, or one per row), a row uses the null
    condition on the steps whose upper timestep exceeds its switch
    (two-stage sampling); otherwise cond is used throughout. A large batch
    runs as two row halves in two processes (_in_row_halves).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if t == 0:
        return x.copy()
    grid = ddim_grid(sched, t)
    b = x.shape[0]
    cond = np.broadcast_to(np.atleast_1d(np.asarray(cond, dtype=np.int64)), (b,))
    switch = None if te_switch is None else np.broadcast_to(np.asarray(te_switch), (b,))
    return _in_row_halves(lambda rows: _decode(
        x[rows], grid, cond[rows], None if switch is None else switch[rows],
        model, sched, cfg_scale), b)


def _invert(x, grid, cond, model, sched) -> np.ndarray:
    with getattr(model, "trajectory", nullcontext)():
        for lo, hi in zip(grid[:-1], grid[1:]):
            eps_hat = model.eps(x, max(lo, 1), cond)
            x = _ddim_step(x, eps_hat, sched.alpha_bar[lo], sched.alpha_bar[hi])
    return x


def invert_batch(x0: np.ndarray, target_t: int, cond, model: CondDenoiser,
                 sched: NoiseSchedule) -> np.ndarray:
    """Deterministic DDIM inversion of a batch from data space to target_t.

    Reverses the decode by evaluating the noise prediction at the
    current lower-noise state (timestep clamped to at least 1) and
    re-noising one grid step at a time. A large batch runs as two row
    halves in two processes (_in_row_halves).
    """
    x = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    if target_t == 0:
        return x.copy()
    grid = ddim_grid(sched, target_t)
    b = x.shape[0]
    cond = np.broadcast_to(np.atleast_1d(np.asarray(cond, dtype=np.int64)), (b,))
    return _in_row_halves(lambda rows: _invert(x[rows], grid, cond[rows], model, sched), b)


def two_stage_batch(x_T: np.ndarray, t_e, cond, model: CondDenoiser, sched: NoiseSchedule,
                    cfg_scale: float = 1.0) -> np.ndarray:
    """Decode x_T from T: null condition above t_e, the class condition at or below.

    t_e and cond are one value for every row or one per row.
    """
    t_e = np.asarray(t_e)
    if np.any(t_e < 0) or np.any(t_e > sched.t_max):
        raise InvalidInputError(f"t_e out of range [0, {sched.t_max}]")
    return decode_batch(x_T, sched.t_max, cond, model, sched, cfg_scale, te_switch=t_e)


def save_checkpoint(model: CondDenoiser, path: str) -> None:
    ad.save_params(path, CHECKPOINT_FORMAT,
                   {"n_classes": model.n_classes, "hidden_dim": model.hidden_dim,
                    "embed_dim": model.embed_dim}, model)


def load_checkpoint(path: str) -> CondDenoiser:
    return ad.load_params(path, CHECKPOINT_FORMAT, lambda **meta: CondDenoiser(Rng(0), **meta))
