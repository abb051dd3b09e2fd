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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, InvalidInputError, TrainingDivergedError
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
    ddim_eta: float = 0.0
    ddim_steps: int = 100


def linear_schedule(t_max: int = 1000, beta_start: float = 1e-4, beta_end: float = 0.02,
                    ddim_eta: float = 0.0, ddim_steps: int = 100) -> NoiseSchedule:
    beta = np.zeros(t_max + 1)
    beta[1:] = np.linspace(beta_start, beta_end, t_max)
    alpha_bar = np.cumprod(1.0 - beta)
    return NoiseSchedule(t_max=t_max, beta=beta, alpha_bar=alpha_bar,
                         ddim_eta=ddim_eta, ddim_steps=ddim_steps)


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

    @property
    def null_id(self) -> int:
        return self.n_classes

    def parameters(self) -> list[Tensor]:
        return [getattr(self, name) for name in self.PARAM_NAMES]

    def _inputs_np(self, x: np.ndarray, t, cond) -> tuple[np.ndarray, np.ndarray]:
        """Network input rows [x, time embedding, label embedding] and the label ids.

        A scalar t is embedded once and broadcast into every row; t of shape
        (b,) embeds one timestep per row.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        b, e = x.shape[0], self.embed_dim
        t = np.asarray(t)
        cond = np.broadcast_to(np.atleast_1d(np.asarray(cond, dtype=np.int64)), (b,))
        inp = np.empty((b, 2 + 2 * e))
        inp[:, :2] = x
        if t.dtype.kind in "iu" and t.size and 0 <= t.min() and t.max() < TIME_TABLE_SIZE:
            inp[:, 2:2 + e] = _time_table(e)[t]
        else:
            inp[:, 2:2 + e] = time_embedding(t, e)
        inp[:, 2 + e:] = self.label_emb.data[cond]
        return inp, cond

    def _cache(self, x, t, cond, keep: bool = False) -> dict:
        """The forward pass: hidden features h1, h2 and the output.

        SiLU is computed as a * sigmoid(a) with sigmoid = 1 / (1 + exp(-a)),
        in place. With keep=True the input rows, label ids, pre-activations
        a1, a2 and sigmoids s1, s2 are kept too, for the JVP and the backward.
        """
        inp, cond = self._inputs_np(x, t, cond)
        c = {"inp": inp, "cond": cond} if keep else {}
        h = inp
        for i, (w, bias) in enumerate(((self.W1, self.b1), (self.W2, self.b2)), start=1):
            a = h @ w.data
            a += bias.data
            s = np.negative(a)
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            if keep:
                c[f"a{i}"], c[f"s{i}"] = a, s
                h = a * s
            else:
                h = np.multiply(a, s, out=a)
            c[f"h{i}"] = h
        out = h @ self.W3.data
        out += self.b3.data
        c["out"] = out
        return c

    def eps(self, x, t, cond) -> np.ndarray:
        """Noise prediction, batched, pure numpy (no graph)."""
        return self._cache(x, t, cond)["out"]

    def hidden(self, x, t, cond, layer: int = 2) -> np.ndarray:
        """Post-activation hidden features of the chosen layer (1 or 2)."""
        if layer not in (1, 2):
            raise InvalidInputError(f"layer must be 1 or 2, got {layer}")
        return self._cache(x, t, cond)[f"h{layer}"]

    def feature_jvp(self, x, t, cond, v: np.ndarray, layer: int = 2) -> np.ndarray:
        """Directional derivative of hidden(layer) along v in data space, per point of x."""
        if layer not in (1, 2):
            raise InvalidInputError(f"layer must be 1 or 2, got {layer}")
        c = self._cache(x, t, cond, keep=True)
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
        c = self._cache(x_t, t, cond, keep=True)
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
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0


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
    opt = ad.Adam(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                  eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
    train_rng = rng.split("train")
    xs, ys = data.xs(), data.ys()
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
            pred = model.eps_graph(x_t, t, cond)
            diff = pred - Tensor(eps)
            loss = (diff * diff).mean()
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


def decode_batch(x: np.ndarray, t: int, cond, model: CondDenoiser, sched: NoiseSchedule,
                 cfg_scale: float = 1.0, rng: Rng | None = None,
                 te_switch: int | None = None) -> np.ndarray:
    """DDIM decode of a batch from timestep t down to 0.

    With te_switch set, steps whose upper timestep exceeds the switch
    use the null condition (two-stage sampling); otherwise cond is used
    throughout. eta > 0 adds per-step noise drawn from rng.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64)).copy()
    if t == 0:
        return x
    grid = ddim_grid(sched, t)
    cond_arr = np.broadcast_to(np.atleast_1d(np.asarray(cond, dtype=np.int64)), (x.shape[0],))
    null_arr = np.full(x.shape[0], model.null_id, dtype=np.int64)
    eta = sched.ddim_eta
    if eta != 0.0 and rng is None:
        raise InvalidInputError("eta > 0 requires an rng for the per-step noise")
    for hi, lo in zip(reversed(grid[1:]), reversed(grid[:-1])):
        step_cond = cond_arr
        if te_switch is not None and hi > te_switch:
            step_cond = null_arr
        eps_hat = guided_eps(model, x, hi, step_cond, cfg_scale)
        a_hi, a_lo = sched.alpha_bar[hi], sched.alpha_bar[lo]
        x0_hat = (x - np.sqrt(1.0 - a_hi) * eps_hat) / np.sqrt(a_hi)
        if eta != 0.0:
            xi = eta * np.sqrt((1.0 - a_lo) / (1.0 - a_hi)) * np.sqrt(1.0 - a_hi / a_lo)
        else:
            xi = 0.0
        x = np.sqrt(a_lo) * x0_hat + np.sqrt(max(1.0 - a_lo - xi * xi, 0.0)) * eps_hat
        if eta != 0.0:
            x = x + xi * rng.normal(x.shape)
    return x


def invert_batch(x0: np.ndarray, target_t: int, cond, model: CondDenoiser,
                 sched: NoiseSchedule) -> np.ndarray:
    """Deterministic DDIM inversion of a batch from data space to target_t.

    Reverses the eta = 0 decode by evaluating the noise prediction at the
    current lower-noise state (timestep clamped to at least 1) and
    re-noising one grid step at a time.
    """
    if sched.ddim_eta != 0.0:
        raise ContractError("inversion requires a deterministic schedule (eta = 0)")
    x = np.atleast_2d(np.asarray(x0, dtype=np.float64)).copy()
    if target_t == 0:
        return x
    grid = ddim_grid(sched, target_t)
    cond_arr = np.broadcast_to(np.atleast_1d(np.asarray(cond, dtype=np.int64)), (x.shape[0],))
    for lo, hi in zip(grid[:-1], grid[1:]):
        eps_hat = model.eps(x, max(lo, 1), cond_arr)
        a_lo, a_hi = sched.alpha_bar[lo], sched.alpha_bar[hi]
        x0_hat = (x - np.sqrt(1.0 - a_lo) * eps_hat) / np.sqrt(a_lo)
        x = np.sqrt(a_hi) * x0_hat + np.sqrt(1.0 - a_hi) * eps_hat
    return x


def two_stage_batch(n: int, t_e: int, cond: int, model: CondDenoiser, sched: NoiseSchedule,
                    rng: Rng, cfg_scale: float = 1.0) -> np.ndarray:
    """Sample n points: null condition above t_e, the class condition at or below."""
    if t_e < 0 or t_e > sched.t_max:
        raise InvalidInputError(f"t_e out of range [0, {sched.t_max}]")
    x_T = rng.normal((n, 2))
    return decode_batch(x_T, sched.t_max, cond, model, sched, cfg_scale, rng, te_switch=t_e)


def save_checkpoint(model: CondDenoiser, path: str) -> None:
    ad.save_params(path, CHECKPOINT_FORMAT,
                   {"n_classes": model.n_classes, "hidden_dim": model.hidden_dim,
                    "embed_dim": model.embed_dim}, model)


def load_checkpoint(path: str) -> CondDenoiser:
    return ad.load_params(path, CHECKPOINT_FORMAT, lambda **meta: CondDenoiser(Rng(0), **meta))
