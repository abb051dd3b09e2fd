"""The exact posterior noise prediction of the toy process, as a test oracle.

`exact_posterior_eps` is the Bayes-optimal E[eps | x_t] (the ideal
denoiser), and `ExactDenoiser` puts it behind the denoiser interface, so
the unchanged canonicalization, inversion and decoding run on it. No
pipeline stage calls them; criterion 1, `test_canon`, `test_toydata` and
`test_diffusion` compare the trained denoiser and the method against them.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from diffcanon.errors import InvalidInputError
from diffcanon.toydata import CLASS_SHIFT, CORE_HALF_WIDTH, NOISE_STD, SKEW_GAIN

# Quadrature for the exact posterior: Gauss-Legendre in u over its whole
# support (U_NODES nodes), composite Gauss-Legendre in eps_y (PANEL_NODES
# per panel) on panels that meet at the kink of |eps_y| at 0, each panel
# no wider than the smallest standard deviation the eps_y posterior can
# have at that timestep.
U_NODES = 12
PANEL_NODES = 6
_CHUNK_ELEMENTS = 1 << 20


def _eps_y_nodes(a: float):
    """Symmetric eps_y quadrature nodes on [-9 s, 9 s] and their log weights.

    The prior density is folded into the weights. Beyond 9 prior standard
    deviations it is below 1e-17 of its peak, which bounds the truncation
    error wherever class y can produce x_t.
    """
    s2 = NOISE_STD ** 2
    v = a * s2 + 1.0 - a
    sd = 1.0 / np.sqrt(1.0 / s2 + a / (1.0 - a) + SKEW_GAIN ** 2 * a / v)
    half = 9.0 * NOISE_STD
    n_panels = int(np.ceil(half / sd))
    width = half / n_panels
    nodes, weights = leggauss(PANEL_NODES)
    pos = (width * np.arange(n_panels)[:, None] + 0.5 * width * (nodes + 1.0)).ravel()
    w = np.tile(0.5 * width * weights, n_panels)
    nodes = np.concatenate([-pos[::-1], pos])
    log_w = np.log(np.concatenate([w[::-1], w])) - nodes ** 2 / (2.0 * s2)
    return nodes, log_w


def exact_posterior_eps(x_t, alpha_bar: float, y: int | None, with_jacobian: bool = False):
    """Bayes-optimal noise prediction E[eps | x_t] for the toy process.

    x_t = sqrt(a) x0 + sqrt(1 - a) eps with a = alpha_bar in (0, 1) and
    x0 drawn from class y, or from the two-class mixture when y is None.
    eps_x enters x0_1 linearly and is integrated in closed form (a
    Gaussian conditioned on x_t1); u and eps_y are integrated by
    quadrature, accurate to about 1e-10 wherever class y can produce x_t.
    (For a point far outside every allowed class at small t the posterior
    piles against an end of u's support, which the fixed u rule does not
    resolve.)

    Returns the (n, 2) posterior means and, with with_jacobian, also their
    exact (n, 2, 2) Jacobians with respect to x_t (Tweedie's formula for
    the same quadrature):
        (diag((1 - a) / v, 1) - Cov[e | x_t]) / sqrt(1 - a),
    where e is eps's conditional mean at one quadrature node, Cov is over
    the node posterior and v = a s^2 + 1 - a.
    """
    x = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
    a = float(alpha_bar)
    if not 0.0 < a < 1.0:
        raise InvalidInputError(f"alpha_bar must be in (0, 1), got {a}")
    if y not in (0, 1, None):
        raise InvalidInputError(f"class id must be 0, 1 or None, got {y}")
    shifts = CLASS_SHIFT * (np.arange(2) if y is None else np.array([y]))
    s2 = NOISE_STD ** 2
    v = a * s2 + 1.0 - a
    sa, sq = np.sqrt(a), np.sqrt(1.0 - a)
    e, log_we = _eps_y_nodes(a)
    u, u_weights = leggauss(U_NODES)
    # x0_1 less eps_x at each (class, u, eps_y) node
    m = (shifts[:, None, None] + CORE_HALF_WIDTH * u[None, :, None]
         + SKEW_GAIN * np.abs(e)[None, None, :])
    log_node = np.log(u_weights)[:, None] + log_we[None, :]
    eps = np.empty_like(x)
    jac = np.empty((x.shape[0], 2, 2))
    step = max(1, _CHUNK_ELEMENTS // m.size)
    for lo in range(0, x.shape[0], step):
        xb = x[lo:lo + step]
        r1 = xb[:, 0, None, None, None] - sa * m                  # (b, class, u, eps_y)
        r2 = xb[:, 1, None] - sa * e                              # (b, eps_y)
        log_w = (log_node - r1 * r1 / (2.0 * v)
                 - (r2 * r2 / (2.0 * (1.0 - a)))[:, None, None, :])
        w = np.exp(log_w - log_w.max(axis=(1, 2, 3), keepdims=True))
        w /= w.sum(axis=(1, 2, 3), keepdims=True)
        e1 = sq * r1 / v                                          # E[eps_x | node, x_t]
        e2 = r2 / sq                                              # eps_y at the node
        w_e = w.sum(axis=(1, 2))
        mean1 = np.einsum("bcuj,bcuj->b", w, e1)
        mean2 = np.einsum("bj,bj->b", w_e, e2)
        eps[lo:lo + step, 0], eps[lo:lo + step, 1] = mean1, mean2
        if with_jacobian:
            d1 = e1 - mean1[:, None, None, None]
            d2 = e2 - mean2[:, None]
            c11 = np.einsum("bcuj,bcuj->b", w, d1 * d1)
            c12 = np.einsum("bj,bj->b", (w * d1).sum(axis=(1, 2)), d2)
            c22 = np.einsum("bj,bj->b", w_e, d2 * d2)
            jb = jac[lo:lo + step]
            jb[:, 0, 0] = ((1.0 - a) / v - c11) / sq
            jb[:, 0, 1] = jb[:, 1, 0] = -c12 / sq
            jb[:, 1, 1] = (1.0 - c22) / sq
    return (eps, jac) if with_jacobian else eps


class ExactDenoiser:
    """The exact posterior noise prediction behind the denoiser interface.

    Exposes what canonicalization, inversion and decoding read from a
    trained CondDenoiser (buffers, eps, hidden, feature_jvp, n_classes,
    null_id), so the same pipeline runs on the Bayes-optimal denoiser.
    Its feature map is eps itself. `alpha_bar` is the schedule's
    alpha_bar array, indexed by timestep; t must be at least 1.
    """

    n_classes = 2
    null_id = 2

    def __init__(self, alpha_bar):
        self.alpha_bar = np.asarray(alpha_bar, dtype=np.float64)

    def _run(self, x, t, cond, with_jacobian: bool):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        b = x.shape[0]
        t = np.broadcast_to(np.atleast_1d(np.asarray(t, dtype=np.int64)), (b,))
        cond = np.broadcast_to(np.atleast_1d(np.asarray(cond, dtype=np.int64)), (b,))
        if np.any(t < 1) or np.any(t >= len(self.alpha_bar)):
            raise InvalidInputError(f"timestep out of range [1, {len(self.alpha_bar) - 1}]")
        if np.any((cond < 0) | (cond > self.null_id)):
            raise InvalidInputError(f"condition must be in [0, {self.null_id}]")
        eps = np.empty_like(x)
        jac = np.empty((b, 2, 2))
        for tv, c in sorted({(int(tv), int(c)) for tv, c in zip(t, cond)}):
            rows = (t == tv) & (cond == c)
            y = None if c == self.null_id else c
            out = exact_posterior_eps(x[rows], self.alpha_bar[tv], y, with_jacobian)
            if with_jacobian:
                eps[rows], jac[rows] = out
            else:
                eps[rows] = out
        return eps, jac

    def buffers(self, b: int) -> None:
        """No row buffers: the quadrature allocates its own."""
        return None

    def eps(self, x, t, cond, bufs=None) -> np.ndarray:
        return self._run(x, t, cond, False)[0]

    def hidden(self, x, t, cond) -> np.ndarray:
        return self.eps(x, t, cond)

    def feature_jvp(self, x, t, cond, v) -> np.ndarray:
        """Exact directional derivative of eps along v; one row per point of x."""
        jac = self._run(x, t, cond, True)[1]
        v = np.broadcast_to(np.asarray(v, dtype=np.float64), (jac.shape[0], 2))
        return np.einsum("bij,bj->bi", jac, v)
