import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import exact_oracle
import tape_oracle as oracle
from diffcanon import autodiff as ad
from diffcanon import diffusion, toydata
from diffcanon.diffusion import (CondDenoiser, NoiseSchedule, TrainConfig, ddim_grid,
                                 decode_batch, guided_eps, invert_batch, linear_schedule,
                                 load_checkpoint, q_sample, save_checkpoint, time_embedding,
                                 train_cdm, two_stage_batch)
from diffcanon.errors import InvalidInputError
from diffcanon.rng import Rng

# ---------------------------------------------------------------- schedule


def test_schedule_consistency(schedule):
    recomputed = np.cumprod(1.0 - schedule.beta[1:])
    assert np.max(np.abs(recomputed - schedule.alpha_bar[1:])) <= 1e-12
    assert schedule.alpha_bar[0] == 1.0
    assert schedule.alpha_bar[schedule.t_max] < schedule.alpha_bar[1]


def test_schedule_beta_range(schedule):
    assert schedule.beta[1] == pytest.approx(1e-4)
    assert schedule.beta[schedule.t_max] == pytest.approx(0.02)


@pytest.mark.parametrize("t_max", [0, diffusion.T_MAX + 1])
def test_schedule_past_the_time_table_is_refused(t_max):
    # the denoiser's time table has a row for each timestep 0..T_MAX only
    with pytest.raises(InvalidInputError, match="t_max"):
        NoiseSchedule(t_max=t_max, beta=np.zeros(t_max + 1), alpha_bar=np.ones(t_max + 1),
                      ddim_steps=10)


# ---------------------------------------------------------------- q_sample


def test_q_sample_zero_noise(schedule):
    x0 = np.array([[2.0, -1.0]])
    out = q_sample(x0, np.array([500]), np.zeros((1, 2)), schedule)
    assert np.allclose(out, np.sqrt(schedule.alpha_bar[500]) * x0)


def test_q_sample_terminal_noise_dominates(schedule):
    x0 = np.array([[2.0, -1.0]])
    eps = np.array([[1.0, 1.0]])
    out = q_sample(x0, np.array([schedule.t_max]), eps, schedule)
    assert np.linalg.norm(out - eps) < 0.35  # alpha_bar(T) ~ 4e-5


def test_q_sample_quarter_alpha():
    sched = NoiseSchedule(t_max=1, beta=np.array([0.0, 0.75]),
                          alpha_bar=np.array([1.0, 0.25]), ddim_steps=1)
    out = q_sample(np.array([[1.0, 0.0]]), np.array([1]), np.array([[0.0, 1.0]]), sched)
    assert np.allclose(out, [[0.5, np.sqrt(0.75)]])


def test_q_sample_rejects_bad_timestep(schedule):
    with pytest.raises(InvalidInputError):
        q_sample(np.zeros((1, 2)), np.array([0]), np.zeros((1, 2)), schedule)


# ---------------------------------------------------------------- embeddings / model


def test_time_embedding_shape_and_uniqueness():
    ts = np.arange(0, 1001, 50)
    embs = time_embedding(ts)
    assert embs.shape == (len(ts), 16)
    assert len(np.unique(np.round(embs, 9), axis=0)) == embs.shape[0]


def test_feature_dims_and_determinism():
    model = CondDenoiser(Rng(0))
    x = np.array([0.3, -0.2])
    f1 = model.hidden(x, 100, 1)[0]
    f2 = model.hidden(x, 100, 1)[0]
    assert f1.shape == (80,)
    assert np.array_equal(f1, f2)


def test_features_differ_between_conditions(trained_model):
    x = np.array([2.0, 0.0])
    gap = np.linalg.norm(trained_model.hidden(x, 200, 0) - trained_model.hidden(x, 200, 1))
    assert gap > 0.0


def test_feature_jvp_matches_finite_difference(trained_model):
    x = np.array([0.5, 0.1])
    v = np.array([0.3, -0.7])
    h = 1e-6
    jv = trained_model.feature_jvp(x, 300, 1, v)
    fd = (trained_model.hidden(x + h * v, 300, 1)[0] -
          trained_model.hidden(x - h * v, 300, 1)[0]) / (2 * h)
    denom = max(np.linalg.norm(fd), 1e-12)
    assert np.linalg.norm(jv - fd) / denom <= 1e-6


def test_time_table_rows_equal_time_embedding():
    table = diffusion._time_table(16)
    assert table.shape == (diffusion.T_MAX + 1, 16)
    for t in range(diffusion.T_MAX + 1):
        assert np.array_equal(table[t], time_embedding(np.array([t]))[0]), t


@pytest.mark.parametrize("label", ["rows", 0, 1, CondDenoiser.null_id],
                         ids=["cond-per-row", "cond-0", "cond-1", "cond-null"])
@pytest.mark.parametrize("t", [0, 500, diffusion.T_MAX],
                         ids=["table-first", "table-middle", "table-last"])
@pytest.mark.parametrize("b", [1, 5, 503])
def test_scalar_timestep_equals_one_timestep_per_row(t, b, label):
    # a scalar t or label is embedded once and broadcast; it must give what t
    # and the label repeated for every row give, bit for bit, gradients included
    model = CondDenoiser(Rng(3))
    x = Rng(4).normal((b, 2))
    cond = np.arange(b) % (model.n_classes + 1) if label == "rows" else label
    rows, cond_rows = np.full(b, t), np.broadcast_to(cond, b).copy()
    v = np.array([0.6, -0.8])
    assert np.array_equal(model.eps(x, t, cond), model.eps(x, rows, cond_rows))
    assert np.array_equal(model.hidden(x, t, cond), model.hidden(x, rows, cond_rows))
    assert np.array_equal(model.feature_jvp(x, t, cond, v),
                          model.feature_jvp(x, rows, cond_rows, v))
    w = Rng(5).normal((b, 2))

    def graph(tt, cc):
        for p in model.parameters():
            p.grad = None
        out = model.eps_graph(x, tt, cc)
        oracle.sum_(out * ad.Tensor(w)).backward()
        return [out.data] + [p.grad for p in model.parameters()]

    for a, c in zip(graph(t, cond), graph(rows, cond_rows), strict=True):
        assert np.array_equal(a, c)


# ---------------------------------------------------------------- row halves


@pytest.fixture
def no_child_left():
    # every trajectory that forks reaps its child before it returns or raises
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks of this process; the split runs with two processes."""
    monkeypatch.setattr(diffusion, "_WORKERS", 2)
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


SPLIT_SCHED = linear_schedule(ddim_steps=10)


class StubDenoiser:
    """What a walk reads of a denoiser besides eps(x, t, cond, bufs): no row buffers."""
    n_classes, null_id = 2, 2

    def buffers(self, b):
        return None


def split_trajectory(kind, model, x, cond):
    if kind == "invert":
        return invert_batch(x, 700, cond, model, SPLIT_SCHED)
    if kind == "switch":
        te = Rng(12).integers(0, 701, size=len(x))
        return decode_batch(x, 700, cond, model, SPLIT_SCHED, cfg_scale=1.0, te_switch=te)
    return decode_batch(x, 700, cond, model, SPLIT_SCHED,
                        cfg_scale=3.0 if kind == "guided" else 1.0)


@pytest.mark.parametrize("kind", ["decode", "guided", "switch", "invert"])
def test_row_split_equals_one_pass(monkeypatch, forks, no_child_left, kind):
    # a trajectory of PARALLEL_ROWS rows or more runs its tail rows in a forked
    # child, cut at a multiple of _ROW_ALIGN rows; the result must be that of
    # one unsplit trajectory bit for bit, on either side of the threshold
    # (p + 10 rows would be cut at row 133 without the alignment)
    model = CondDenoiser(Rng(6))
    p = diffusion.PARALLEL_ROWS
    for b in (p - 1, p, p + 10, 2 * p + 1):
        x = Rng(7).normal((b, 2))
        cond = np.arange(b) % model.n_classes
        monkeypatch.setattr(diffusion, "_WORKERS", 1)
        want = split_trajectory(kind, model, x, cond)
        monkeypatch.setattr(diffusion, "_WORKERS", 2)
        forks.clear()
        got = split_trajectory(kind, model, x, cond)
        assert len(forks) == (b >= p), b
        assert got.shape == want.shape == (b, 2) and np.array_equal(got, want), b


@pytest.mark.parametrize("env, cpus, want", [
    ({}, 2, 1),                                                # BLAS on every CPU
    ({"OPENBLAS_NUM_THREADS": "4"}, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 64, diffusion._MAX_WORKERS),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),  # 0 falls through
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 1),
    ({"GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2, 2),
])
def test_rows_split_only_with_one_blas_thread(monkeypatch, env, cpus, want):
    # a multi-threaded BLAS already runs on the other CPUs, and the process
    # count is capped at the count the threshold was measured at
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert diffusion._row_workers() == want


def workers_in_fresh_process(env: dict, first: str = "") -> int:
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(diffusion.__file__)), base.get("PYTHONPATH", "")])
    code = f"{first}from diffcanon import diffusion; print(diffusion._WORKERS)"
    out = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                         capture_output=True, text=True, check=True, timeout=60)
    return int(out.stdout)


def test_blas_is_pinned_by_default_unless_the_caller_chose():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert workers_in_fresh_process({}) == min(diffusion._MAX_WORKERS, cpus)
    assert workers_in_fresh_process({"OMP_NUM_THREADS": "3"}) == 1
    # numpy loaded first has already started BLAS on every CPU: no pin, no split
    assert workers_in_fresh_process({}, first="import numpy; ") == 1


def test_bad_label_in_a_worker_slice_raises_as_in_one_pass(monkeypatch, forks, no_child_left):
    # the child runs the tail rows; its exception reaches the parent pickled
    model = CondDenoiser(Rng(9))
    b = 2 * diffusion.PARALLEL_ROWS
    x = Rng(10).normal((b, 2))
    cond = np.zeros(b, dtype=np.int64)
    cond[-1] = model.n_classes + 5
    monkeypatch.setattr(diffusion, "_WORKERS", 1)
    with pytest.raises(Exception) as one_pass:
        decode_batch(x, 100, cond, model, SPLIT_SCHED, cfg_scale=1.0)
    monkeypatch.setattr(diffusion, "_WORKERS", 2)
    with pytest.raises(Exception) as split:
        decode_batch(x, 100, cond, model, SPLIT_SCHED, cfg_scale=1.0)
    assert len(forks) == 1
    assert split.type is one_pass.type and str(split.value) == str(one_pass.value)


def test_head_rows_error_wins_and_the_child_is_reaped(forks, no_child_left):
    class HeadFails(StubDenoiser):
        def eps(self, x, t, cond, bufs):
            if cond[0] == 0:
                raise InvalidInputError("head rows")
            time.sleep(60)  # the tail rows: killed, not waited for
            raise RuntimeError("tail rows")

    b = 2 * diffusion.PARALLEL_ROWS
    cond = (np.arange(b) >= b // 2).astype(np.int64)
    start = time.monotonic()
    with pytest.raises(InvalidInputError, match="head rows"):
        decode_batch(np.zeros((b, 2)), 100, cond, HeadFails(), SPLIT_SCHED, cfg_scale=1.0)
    assert len(forks) == 1 and time.monotonic() - start < 30


def test_a_process_with_other_threads_runs_all_rows_itself(forks, no_child_left):
    model = CondDenoiser(Rng(16))
    x = Rng(17).normal((2 * diffusion.PARALLEL_ROWS, 2))
    want = decode_batch(x, 300, 1, model, SPLIT_SCHED, cfg_scale=1.0)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        got = decode_batch(x, 300, 1, model, SPLIT_SCHED, cfg_scale=1.0)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert len(forks) == 1 and np.array_equal(got, want)


def test_a_failed_fork_runs_all_rows_here(monkeypatch, no_child_left):
    model = CondDenoiser(Rng(18))
    x = Rng(19).normal((2 * diffusion.PARALLEL_ROWS, 2))
    monkeypatch.setattr(diffusion, "_WORKERS", 1)
    want = invert_batch(x, 300, 1, model, SPLIT_SCHED)
    monkeypatch.setattr(diffusion, "_WORKERS", 2)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert np.array_equal(invert_batch(x, 300, 1, model, SPLIT_SCHED), want)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_split_trajectory(forks, no_child_left):
    model = CondDenoiser(Rng(13))
    x = Rng(14).normal((2 * diffusion.PARALLEL_ROWS, 2))
    want = decode_batch(x, 300, 0, model, SPLIT_SCHED, cfg_scale=1.0)
    pid = os.fork()
    if pid == 0:
        try:
            got = decode_batch(x, 300, 0, model, SPLIT_SCHED, cfg_scale=1.0)
            os._exit(0 if np.array_equal(got, want) else 1)
        finally:
            os._exit(2)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its trajectory within 30 s")
    assert os.waitstatus_to_exitcode(status) == 0
    assert len(forks) == 2  # the parent's own split and the caller's fork


def test_a_walk_owns_its_buffers_and_every_returned_array_is_fresh():
    model = CondDenoiser(Rng(15))
    buffers, eps = model.buffers, model.eps
    asked, calls = [], []

    def counted_buffers(b):
        asked.append(buffers(b))
        return asked[-1]

    def recorded_eps(x, t, cond, bufs):
        calls.append((bufs, eps(x, t, cond, bufs)))
        return calls[-1][1]

    model.buffers, model.eps = counted_buffers, recorded_eps
    x = Rng(16).normal((diffusion.PARALLEL_ROWS - 1, 2))  # one process
    decode_batch(x, 500, 1, model, SPLIT_SCHED, cfg_scale=2.0)  # two eps calls per step
    assert len(asked) == 1
    bufs = asked[0]
    assert len(calls) == 2 * (len(ddim_grid(SPLIT_SCHED, 500)) - 1)
    assert all(b is bufs for b, _ in calls)
    outs = [out for _, out in calls]
    h = model.hidden(x, 500, 1)
    assert not any(np.shares_memory(r, buf) for r in (*outs, h) for buf in bufs)
    assert not np.shares_memory(outs[0], outs[1])  # one step's null and conditional call
    # the first step predicts at x itself, and buffers do not change the bits
    assert np.array_equal(outs[1], eps(x, 500, 1))
    assert np.array_equal(h, model._cache(x, 500, 1)["h2"])


def reference_eps_graph(model, x_t, t, cond):
    """The per-op tape graph the fused eps_graph node replaces."""
    x_in = ad.Tensor(np.atleast_2d(x_t))
    temb = ad.Tensor(time_embedding(t, model.embed_dim))
    lemb = oracle.embedding(model.label_emb, cond)
    inp = oracle.concat([x_in, temb, lemb], axis=1)
    h1 = oracle.silu(inp @ model.W1 + model.b1)
    h2 = oracle.silu(h1 @ model.W2 + model.b2)
    return h2 @ model.W3 + model.b3


def test_fused_eps_graph_matches_per_op_graph_bitwise():
    model = CondDenoiser(Rng(21))
    rng = Rng(22)
    b = 64
    x_t = rng.normal(size=(b, 2))
    t = rng.integers(1, 1001, size=b)
    eps = rng.normal(size=(b, 2))
    cond = rng.integers(0, model.n_classes, size=b)
    cond[::3] = model.null_id  # class and null labels in one batch
    results = []
    for graph in (reference_eps_graph, CondDenoiser.eps_graph):
        pred = graph(model, x_t, t, cond)
        loss = oracle.mse(pred, eps)
        for p in model.parameters():
            p.grad = None
        loss.backward()
        results.append((pred.data, [p.grad for p in model.parameters()]))
    (ref_out, ref_grads), (out, grads) = results
    assert np.array_equal(out, ref_out)
    assert len(grads) == 7
    for name, g, r in zip(["W1", "b1", "W2", "b2", "W3", "b3", "label_emb"], grads, ref_grads):
        assert g.shape == r.shape and np.array_equal(g, r), name
    assert np.array_equal(model.eps(x_t, t, cond), out)


# ---------------------------------------------------------------- training


def test_train_single_sample_loss_decreases():
    # each epoch is one gradient step here; the raw per-step loss is noisy
    # because t and the target noise are redrawn, so assert the trend of
    # the smoothed trajectory instead of individual steps
    data = toydata.ToyDataset(xs=np.array([[4.0, 0.0]]), ys=np.array([1]))
    sched = linear_schedule()
    _, losses = train_cdm(data, sched, TrainConfig(epochs=100, batch_size=1, lr=1e-3),
                          Rng(0))
    assert float(np.mean(losses[-25:])) < float(np.mean(losses[:25]))


def test_label_drop_one_makes_training_label_blind():
    # with drop probability 1 every label is replaced by the null id, so
    # training is bitwise blind to the dataset's labels: relabeling the
    # data and rerunning with the same rng gives identical parameters
    data = toydata.sample_dataset(64, Rng(2))
    relabeled = toydata.ToyDataset(xs=data.xs, ys=1 - data.ys)
    sched = linear_schedule()
    cfg = TrainConfig(epochs=2, label_drop=1.0)
    m1, log1 = train_cdm(data, sched, cfg, Rng(3))
    m2, log2 = train_cdm(relabeled, sched, cfg, Rng(3))
    assert log1 == log2
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a.data, b.data)


def test_full_run_loss_drops_10x(trained):
    _, losses = trained
    assert losses[-1] <= losses[0] / 10.0, (
        f"first-epoch loss {losses[0]:.4f} to last-epoch {losses[-1]:.4f}")


def test_frozen_batch_descent(trained_model, schedule, dataset):
    """One small gradient step on a frozen batch decreases that batch's loss."""
    import copy

    from diffcanon import autodiff as ad

    model = copy.deepcopy(trained_model)
    rng = Rng(11)
    xs = dataset.xs[:32]
    t = rng.integers(1, schedule.t_max + 1, size=32)
    eps = rng.normal(size=(32, 2))
    ab = schedule.alpha_bar[t][:, None]
    x_t = np.sqrt(ab) * xs + np.sqrt(1 - ab) * eps
    cond = dataset.ys[:32]

    def batch_loss(m):
        pred = m.eps_graph(x_t, t, cond)
        return oracle.mean(oracle.power(oracle.sub(pred, eps), 2))

    before = batch_loss(model).item()
    opt = ad.Adam(model.parameters(), lr=1e-5)
    loss = batch_loss(model)
    opt.zero_grad()
    loss.backward()
    opt.step()
    assert batch_loss(model).item() < before


def rmse(a, b) -> float:
    """Root mean squared distance between the rows of a and b."""
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))


def test_trained_eps_error_against_the_exact_posterior(trained_model, schedule, capsys):
    # The exact posterior E[eps | x_t] is the ideal denoiser; the true noise misses
    # it by the Bayes error. Up to t = 500 the trained denoiser must miss it by
    # less, under the label and under the null condition. Above, it does not
    # (at t = 1000 its error is tens of times the Bayes error), so there the
    # errors are only printed.
    points = toydata.sample_dataset(400, Rng(5).split("pts"))
    noise = Rng(5).split("noise").normal((400, 2))
    exact = exact_oracle.ExactDenoiser(schedule.alpha_bar)
    lines, worse = [], []
    for t in (10, 50, 100, 200, 300, 500, 700, 1000):
        x_t = q_sample(points.xs, np.array([t]), noise, schedule)
        line = f"t={t:4d}"
        for name, cond in (("label", points.ys), ("null", trained_model.null_id)):
            ideal = exact.eps(x_t, t, cond)
            model_err, bayes_err = rmse(trained_model.eps(x_t, t, cond), ideal), rmse(noise, ideal)
            line += f"  {name}: model {model_err:.4f} vs Bayes {bayes_err:.4f}"
            if t <= 500 and not model_err < bayes_err:
                worse.append((t, name, model_err, bayes_err))
        lines.append(line)
    with capsys.disabled():
        print("\nRMSE against the exact posterior eps:\n" + "\n".join(lines))
    assert not worse


# ---------------------------------------------------------------- ddim


def test_grid_endpoints(schedule):
    g = ddim_grid(schedule, 800)
    assert g[0] == 0 and g[-1] == 800
    assert sorted(g) == g and len(set(g)) == len(g)
    assert ddim_grid(schedule, 0) == [0]


def test_decode_at_t0_is_identity(trained_model, schedule):
    x = np.array([3.7, 0.05])
    out = decode_batch(x.copy(), 0, 1, trained_model, schedule, cfg_scale=1.0)[0]
    assert np.array_equal(out, x)


def test_single_step_exact_eps_recovers_x0(schedule):
    class StubModel(StubDenoiser):
        def eps(self, x, t, cond, bufs):
            return known_eps

    known_eps = np.array([[0.4, -0.9]])
    x0 = np.array([[4.1, 0.02]])
    t = 700
    x_t = q_sample(x0, np.array([t]), known_eps, schedule)
    sched_2step = NoiseSchedule(t_max=schedule.t_max, beta=schedule.beta,
                                alpha_bar=schedule.alpha_bar, ddim_steps=1)
    out = decode_batch(x_t, t, np.array([1]), StubModel(), sched_2step, cfg_scale=1.0)
    assert np.allclose(out, x0, atol=1e-10)


def test_invert_target_zero_identity(trained_model, schedule):
    x = np.array([4.0, 0.1])
    out = invert_batch(x.copy(), 0, 1, trained_model, schedule)
    assert np.array_equal(out, x[None, :])


def test_invert_zero_model_closed_form(schedule):
    class ZeroModel(StubDenoiser):
        def eps(self, x, t, cond, bufs):
            return np.zeros_like(x)

    x0 = np.array([[1.5, -2.5]])
    for target in (300, 1000):
        out = invert_batch(x0, target, np.array([1]), ZeroModel(), schedule)
        expected = np.sqrt(schedule.alpha_bar[target]) * x0
        assert np.max(np.abs(out - expected)) <= 1e-10


class RecordingModel(StubDenoiser):
    """Predicts zero noise and logs (t, cond per row) of every eps call."""

    def __init__(self):
        self.log = []

    def eps(self, x, t, cond, bufs):
        self.log.append((int(t), tuple(np.broadcast_to(cond, (len(x),)).tolist())))
        return np.zeros_like(x)


@pytest.mark.parametrize("walk", ["decode", "decode guided", "decode switched",
                                  "invert to t_e", "invert to t_r"])
def test_walk_evaluates_the_timestep_each_step_leaves(walk):
    # decode predicts at each upper grid point, the null condition above a
    # row's switch, null then conditional when guided; inversion predicts at
    # each lower grid point, clamped to at least 1
    x, cond, model = np.zeros((2, 2)), np.array([0, 1]), RecordingModel()
    if walk.startswith("invert"):
        target = 350 if walk == "invert to t_e" else 100
        invert_batch(x, target, cond, model, SPLIT_SCHED)
        want = [(max(lo, 1), (0, 1)) for lo in ddim_grid(SPLIT_SCHED, target)[:-1]]
    else:
        uppers = ddim_grid(SPLIT_SCHED, 1000)[:0:-1]
        if walk == "decode":
            decode_batch(x, 1000, cond, model, SPLIT_SCHED, cfg_scale=1.0)
            want = [(hi, (0, 1)) for hi in uppers]
        elif walk == "decode guided":
            decode_batch(x, 1000, cond, model, SPLIT_SCHED, cfg_scale=3.0)
            want = [call for hi in uppers for call in ((hi, (2, 2)), (hi, (0, 1)))]
        else:
            decode_batch(x, 1000, cond, model, SPLIT_SCHED, cfg_scale=1.0,
                         te_switch=np.array([300, 700]))
            want = [(hi, (2 if hi > 300 else 0, 2 if hi > 700 else 1)) for hi in uppers]
    assert model.log == want


def test_decode_deterministic_bitwise(trained_model, schedule):
    lat = np.array([[0.3, -1.2], [1.0, 0.4]])
    a = decode_batch(lat.copy(), 900, np.array([1, 0]), trained_model, schedule, cfg_scale=1.0)
    b = decode_batch(lat.copy(), 900, np.array([1, 0]), trained_model, schedule, cfg_scale=1.0)
    assert np.array_equal(a, b)


def test_roundtrip_error_small(trained_model, schedule, dataset):
    xs = dataset.xs[:100]
    ys = dataset.ys[:100]
    target = int(0.8 * schedule.t_max)
    lat = invert_batch(xs, target, ys, trained_model, schedule)
    back = decode_batch(lat, target, ys, trained_model, schedule, cfg_scale=1.0)
    rel = np.linalg.norm(back - xs, axis=1) / np.maximum(np.linalg.norm(xs, axis=1), 1e-12)
    assert float(np.median(rel)) <= 0.1


# ---------------------------------------------------------------- guidance


def test_cfg_w3_is_the_blend_of_null_and_conditional(trained_model):
    x = np.array([[0.7, -0.3], [3.9, 0.2]])
    cond = np.array([0, 1])
    got = guided_eps(trained_model, x, 400, cond, 3.0)
    null = np.full(2, trained_model.null_id)
    want = -2.0 * trained_model.eps(x, 400, null) + 3.0 * trained_model.eps(x, 400, cond)
    assert np.array_equal(got, want)


def test_cfg_w1_equals_plain_conditional(trained_model):
    x = np.array([[0.7, -0.3]])
    got = guided_eps(trained_model, x, 400, np.array([1]), 1.0)
    want = trained_model.eps(x, 400, np.array([1]))
    assert np.array_equal(got, want)


def test_cfg_w0_equals_unconditional(trained_model):
    x = np.array([[0.7, -0.3]])
    got = guided_eps(trained_model, x, 400, np.array([1]), 0.0)
    null = np.array([trained_model.null_id])
    want = trained_model.eps(x, 400, null)
    assert np.array_equal(got, want)


def test_two_stage_boundary_cases(trained_model, schedule):
    n, T = 8, schedule.t_max
    full_cond = two_stage_batch(Rng(31).normal((n, 2)), T, 1, trained_model, schedule)
    plain_cond = decode_batch(Rng(31).normal(size=(n, 2)), T,
                              np.full(n, 1), trained_model, schedule, cfg_scale=1.0)
    assert np.array_equal(full_cond, plain_cond)

    full_null = two_stage_batch(Rng(32).normal((n, 2)), 0, 1, trained_model, schedule)
    plain_null = decode_batch(Rng(32).normal(size=(n, 2)), T,
                              np.full(n, trained_model.null_id), trained_model, schedule,
                              cfg_scale=1.0)
    assert np.array_equal(full_null, plain_null)


def test_two_stage_accuracy_saturates(trained_model, schedule):
    accs = []
    for t_e in (0, 200, 400, 600, 800, 1000):
        xs = two_stage_batch(Rng(40).split(f"t{t_e}").normal((100, 2)), t_e, 1, trained_model,
                             schedule)
        accs.append(float(np.mean(toydata.bayes_rule(xs) == 1)))
    assert accs[0] < 0.9  # unconditional start is mixed
    assert all(a >= accs[-1] - 0.05 for a in accs[2:])  # saturated region


# ---------------------------------------------------------------- features / checkpoint


def test_checkpoint_round_trip_bitwise(trained_model, tmp_path):
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(trained_model, path)
    loaded = load_checkpoint(path)
    for a, b in zip(trained_model.parameters(), loaded.parameters()):
        assert np.array_equal(a.data, b.data)
    x = np.array([[1.0, -0.5]])
    assert np.array_equal(trained_model.eps(x, 321, np.array([1])),
                          loaded.eps(x, 321, np.array([1])))


def test_train_returns_bias_corrected_weight_average(monkeypatch):
    data = toydata.sample_dataset(64, Rng(4))
    sched = linear_schedule()

    def weights(epochs):
        model, losses = train_cdm(data, sched, TrainConfig(epochs=epochs), Rng(5))
        return [p.data for p in model.parameters()], losses

    cap = diffusion.EMA_DECAY
    averaged_1, _ = weights(1)
    averaged_3, log_avg = weights(3)
    averaged_40, _ = weights(40)
    # decay 0 keeps only the last epoch's weights: the live Adam iterate
    monkeypatch.setattr(diffusion, "EMA_DECAY", 0.0)
    live = [weights(k)[0] for k in range(1, 41)]
    log_live = weights(3)[1]
    assert log_avg == log_live  # the loss log is that of the live iterate

    # one epoch: the average is the live weights, up to rounding
    for a, b in zip(averaged_1, live[0]):
        assert np.allclose(a, b, rtol=1e-14, atol=1e-15)

    def reference(epochs):
        # the recursion spelled out; the warm-up reaches the cap 0.99 after 890 epochs
        avg, zero_share = [0.0] * len(live[0]), 1.0
        for k in range(epochs):
            d = min(cap, (1 + k) / (10 + k))
            zero_share *= d
            avg = [d * a + (1 - d) * w for a, w in zip(avg, live[k])]
        return [a / (1 - zero_share) for a in avg]

    for got_all, epochs in ((averaged_3, 3), (averaged_40, 40)):
        for got, want, last in zip(got_all, reference(epochs), live[epochs - 1]):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
            assert not np.allclose(got, last, rtol=1e-6, atol=0)
