import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_oracle as oracle
from diffcanon import autodiff as ad
from diffcanon import diffusion, distill
from diffcanon.errors import ContractError, InvalidInputError
from diffcanon.rng import Rng


def fd_grad(f, x, h=1e-6):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def test_quadratic_gradient():
    x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (x * x).sum().backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_linear_gradient_outer_structure():
    w = ad.Tensor(np.zeros((3, 2)), requires_grad=True)
    x = np.array([[5.0], [-7.0]])
    (w @ ad.Tensor(x)).sum().backward()
    assert np.array_equal(w.grad, np.tile(x.T, (3, 1)))


def test_backward_requires_scalar_root():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        (x * 2.0).backward()


def test_broadcast_bias_gradient():
    b = ad.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    x = ad.Tensor(np.ones((4, 3)))
    (x + b).sum().backward()
    assert np.allclose(b.grad, [4.0, 4.0, 4.0])


@pytest.mark.parametrize("op,dom", [
    (lambda t: oracle.relu(t).sum(), (0.2, 2.0)),
    (lambda t: oracle.silu(t).sum(), (-2.0, 2.0)),
    (lambda t: oracle.exp(t).sum(), (-1.5, 1.5)),
    (lambda t: oracle.log(t).sum(), (0.3, 3.0)),
    (lambda t: oracle.sqrt(t).sum(), (0.3, 3.0)),
    (lambda t: oracle.clamp_max(t, 0.5).sum(), (-1.0, 0.2)),
    (lambda t: oracle.logsumexp(t, axis=1).sum(), (-2.0, 2.0)),
    (lambda t: oracle.div(t, t * t + 1.0).mean(), (-2.0, 2.0)),
    (lambda t: oracle.power(oracle.neg(t), 3).sum(), (0.2, 2.0)),
    (lambda t: (oracle.transpose(t) @ t).sum(), (-1.0, 1.0)),
    (lambda t: t.mean(axis=0).sum(), (-1.0, 1.0)),
    (lambda t: t.sum(axis=1, keepdims=True).sum(), (-1.0, 1.0)),
])
def test_op_gradients_match_finite_differences(op, dom):
    rng = Rng(11)
    x0 = rng.uniform(dom[0], dom[1], size=(4, 3))
    t = ad.Tensor(x0.copy(), requires_grad=True)
    op(t).backward()

    def f(a):
        return op(ad.Tensor(a)).item()

    assert rel_err(t.grad, fd_grad(f, x0)) <= 1e-4


def test_concat_gradient_splits():
    a = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    b = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    (oracle.concat([a, b], axis=1) * 2.0).sum().backward()
    assert np.allclose(a.grad, 2.0) and np.allclose(b.grad, 2.0)
    assert a.grad.shape == (2, 2) and b.grad.shape == (2, 3)


def test_embedding_scatter_add():
    table = ad.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    idx = np.array([0, 2, 0])
    oracle.embedding(table, idx).sum().backward()
    assert np.allclose(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_logsumexp_handles_neg_inf_rows():
    x = np.array([[0.0, -np.inf], [1.0, 1.0]])
    t = ad.Tensor(x, requires_grad=True)
    out = oracle.logsumexp(t, axis=1)
    assert np.allclose(out.data, [0.0, 1.0 + np.log(2.0)])
    out.sum().backward()
    assert np.all(np.isfinite(t.grad))


def _mlp_loss(params, x, y):
    w1, b1, w2, b2, w3, b3 = params
    h1 = oracle.silu(ad.Tensor(x) @ w1 + b1)
    h2 = oracle.silu(h1 @ w2 + b2)
    out = h2 @ w3 + b3
    return oracle.power(out - ad.Tensor(y), 2).mean()


def test_mlp_gradients_on_100_random_instances():
    """Whole-network finite-difference agreement <= 1e-4 relative error."""
    rng = Rng(2024)
    worst = 0.0
    for trial in range(100):
        shapes = [(3, 5), (5,), (5, 4), (4,), (4, 2), (2,)]
        vals = [rng.normal(size=s) * 0.7 for s in shapes]
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 2))
        params = [ad.Tensor(v.copy(), requires_grad=True) for v in vals]
        _mlp_loss(params, x, y).backward()
        # check a few coordinates of every parameter against central differences
        for pi, v in enumerate(vals):
            flat = v.reshape(-1)
            for ci in rng.integers(0, flat.size, size=2):
                def f(c):
                    pert = [w.copy() for w in vals]
                    pert[pi].reshape(-1)[ci] = c
                    return _mlp_loss([ad.Tensor(w) for w in pert], x, y).item()
                h = 1e-6
                fd = (f(flat[ci] + h) - f(flat[ci] - h)) / (2 * h)
                got = params[pi].grad.reshape(-1)[ci]
                denom = max(abs(fd), abs(got), 1e-8)
                worst = max(worst, abs(fd - got) / denom)
    assert worst <= 1e-4, f"worst relative error {worst:.3e}"


def test_adam_descends_quadratic():
    x = ad.Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = ad.Adam([x], lr=0.1)
    for _ in range(300):
        loss = (x * x).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
    assert np.linalg.norm(x.data) < 1e-2


def test_sgd_momentum_descends_quadratic():
    x = ad.Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = ad.SgdMomentum([x], lr=0.05, momentum=0.9)
    for _ in range(300):
        loss = (x * x).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
    assert np.linalg.norm(x.data) < 1e-2


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_sum_then_backward_gives_ones(seed):
    x = ad.Tensor(Rng(seed).normal(size=(3, 2)), requires_grad=True)
    x.sum().backward()
    assert np.allclose(x.grad, np.ones((3, 2)))


def test_mse_node_matches_per_op_graph_bitwise():
    rng = Rng(62)
    x = ad.Tensor(rng.normal(size=(37, 3)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    target = rng.normal(size=(37, 2))
    results = []
    for mse in (oracle.mse, ad.mse):
        x.grad = w.grad = None
        loss = mse(x @ w, target)
        loss.backward()
        results.append((loss.data, x.grad, w.grad))
        assert oracle.reachable_nodes(loss) == (9 if mse is oracle.mse else 4)
    for got, want in zip(results[1], results[0]):
        assert got.shape == want.shape and np.array_equal(got, want)


# ---------------------------------------------------------------- flat optimizer state


def reference_adam(params, grads, state, t, lr, b1, b2, eps, wd):
    """Per-parameter Adam step, the loop the flat update replaces."""
    for p, g, (m, v) in zip(params, grads, state):
        if g is None:
            continue
        if wd:
            g = g + wd * p
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def reference_sgd(params, grads, bufs, lr, momentum):
    for p, g, b in zip(params, grads, bufs):
        if g is None:
            continue
        b *= momentum
        b += g
        p -= lr * b


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_flat_optimizers_match_per_parameter_reference(kind):
    rng = Rng(60)
    shapes = [(3, 4), (4,), (4, 2), (2,)]
    tensors = [ad.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    ref = [t.data.copy() for t in tensors]
    if kind == "adam":
        opt = ad.Adam(tensors, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6, weight_decay=0.05)
        state = [(np.zeros(s), np.zeros(s)) for s in shapes]
    else:
        opt = ad.SgdMomentum(tensors, lr=0.01, momentum=0.9)
        bufs = [np.zeros(s) for s in shapes]
    for step in range(1, 51):
        # the third parameter gets no gradient on every fourth step
        grads = [None if (i == 2 and step % 4 == 0) else rng.normal(size=s)
                 for i, s in enumerate(shapes)]
        opt.zero_grad()
        for t, g in zip(tensors, grads):
            t.grad = None if g is None else g.copy()
        opt.step()
        if kind == "adam":
            reference_adam(ref, grads, state, step, 0.01, 0.8, 0.99, 1e-6, 0.05)
        else:
            reference_sgd(ref, grads, bufs, 0.01, 0.9)
        for t, r in zip(tensors, ref):
            assert np.array_equal(t.data, r), f"step {step}"
    if kind == "adam":
        flat_m = np.concatenate([m.ravel() for m, _ in state])
        flat_v = np.concatenate([v.ravel() for _, v in state])
        assert np.array_equal(opt.m, flat_m) and np.array_equal(opt.v, flat_v)
    else:
        assert np.array_equal(opt.buf, np.concatenate([b.ravel() for b in bufs]))


# ---------------------------------------------------------------- checkpoint codec

CODECS = {
    "cdm": (diffusion.CondDenoiser, diffusion.save_checkpoint, diffusion.load_checkpoint),
    "student": (distill.StudentClassifier, distill.save_student, distill.load_student),
}


# each damage to a saved checkpoint and the message it is refused with
DAMAGE = {
    "format": "unexpected checkpoint format",
    "missing": "no parameter b3",
    "reshaped": "W1 has shape",
    "ragged": "W2 is not a numeric array",
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("kind", sorted(CODECS))
def test_checkpoint_loader_refuses_damaged_file(tmp_path, kind, damage):
    model_cls, save, load = CODECS[kind]
    path = tmp_path / "ckpt.json"
    save(model_cls(Rng(0)), str(path))
    payload = json.loads(path.read_text())
    params = payload["params"]
    if damage == "format":
        payload["format"] = "student-checkpoint-v1" if kind == "cdm" else "cdm-checkpoint-v1"
    elif damage == "missing":
        del params["b3"]
    elif damage == "reshaped":
        params["W1"] = params["W1"][:-1]
    else:
        params["W2"][0] = params["W2"][0][:-1]
    path.write_text(json.dumps(payload))
    with pytest.raises(InvalidInputError, match=DAMAGE[damage]):
        load(str(path))


@pytest.mark.parametrize("kind", sorted(CODECS))
def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, kind):
    model_cls, save, _ = CODECS[kind]
    path = tmp_path / "ckpt.json"
    save(model_cls(Rng(0)), str(path))
    before = path.read_bytes()
    broken = model_cls(Rng(1))
    param = getattr(broken, broken.PARAM_NAMES[-1])
    param.data = np.full(param.data.shape, object())  # fails inside json.dump
    with pytest.raises(TypeError):
        save(broken, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
