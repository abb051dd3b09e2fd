import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracle
from diffcanon import toydata
from diffcanon.errors import InvalidInputError
from diffcanon.rng import Rng


def test_point_substitution_center():
    assert np.allclose(toydata.toy_point(1, 0.0, np.array([0.0, 0.0])), [4.0, 0.0])


def test_point_substitution_skewed():
    x = toydata.toy_point(1, 0.1, np.array([0.0, 0.1]))
    assert np.allclose(x, [4.4, 0.1])


def test_class0_center():
    assert np.allclose(toydata.toy_point(0, 0.0, np.array([0.0, 0.0])), [0.0, 0.0])


def test_noise_free_points_lie_on_segment():
    for y in (0, 1):
        for u in np.linspace(-0.1, 0.1, 11):
            x = toydata.toy_point(y, float(u), np.zeros((1, 2)))
            assert toydata.distance_to_core_segment(x, np.array([y])) == 0.0


def test_marginals_monte_carlo():
    data = toydata.sample_dataset(10000, Rng(123).split("data"))
    ys, xs = data.ys, data.xs
    frac1 = float(np.mean(ys == 1))
    assert abs(frac1 - 0.5) <= 0.02
    x2 = xs[:, 1]
    assert abs(float(np.mean(x2[ys == 1]))) < 0.01
    assert abs(float(np.std(x2)) - 0.1) <= 0.01


def test_distance_on_segment():
    assert toydata.distance_to_core_segment(np.array([[4.05, 0.0]]), np.array([1])) == 0.0


def test_distance_perpendicular_foot():
    assert toydata.distance_to_core_segment(np.array([[4.0, 0.2]]),
                                            np.array([1])) == pytest.approx([0.2])


def test_distance_endpoint_case():
    assert toydata.distance_to_core_segment(np.array([[4.3, 0.0]]),
                                            np.array([1])) == pytest.approx([0.2])


def scalar_distance_reference(x, y: int) -> float:
    """The one-point distance, as computed before point arrays were accepted."""
    center = toydata.CLASS_SHIFT * y
    x1 = float(np.clip(x[0], center - toydata.CORE_HALF_WIDTH, center + toydata.CORE_HALF_WIDTH))
    return float(np.hypot(x[0] - x1, x[1]))


def test_distance_of_point_arrays_equals_per_point_calls():
    rng = Rng(8)
    ys = rng.integers(0, 2, size=200)
    xs = np.stack([toydata.CLASS_SHIFT * ys + rng.uniform(-0.5, 0.5, size=200),
                   0.2 * rng.normal(size=200)], axis=1)
    hw = toydata.CORE_HALF_WIDTH
    ends = np.array([[-hw, 0.0], [hw, 0.3], [4.0 - hw, -0.2], [4.0 + hw, 0.0]])
    xs, ys = np.concatenate([xs, ends]), np.concatenate([ys, [0, 0, 1, 1]])
    d = toydata.distance_to_core_segment(xs, ys)
    assert d.shape == (len(xs),)
    for i in range(len(xs)):
        one = toydata.distance_to_core_segment(xs[i:i + 1], ys[i:i + 1])
        assert one.shape == (1,)
        assert d[i] == one[0] == scalar_distance_reference(xs[i], int(ys[i])), i
    with pytest.raises(InvalidInputError):
        toydata.distance_to_core_segment(xs[:3], np.array([0, 2, 1]))
    with pytest.raises(InvalidInputError):
        toydata.distance_to_core_segment(xs[:1], np.array([2]))


def test_failed_csv_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "toy_data.csv"
    data = toydata.sample_dataset(5, Rng(6))
    toydata.save_csv(data, str(path))
    before = path.read_bytes()
    # the third row cannot be formatted as a number, so the write fails part way
    xs = data.xs.astype(object)
    xs[2] = ["a", "b"]
    with pytest.raises(ValueError):
        toydata.save_csv(toydata.ToyDataset(xs=xs, ys=data.ys), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["toy_data.csv"]


def test_bayes_rule_on_noise_free_cores():
    xs = np.array([toydata.toy_point(y, u, np.zeros(2))
                   for y in (0, 1) for u in (-0.1, 0.0, 0.1)])
    ys = np.array([0, 0, 0, 1, 1, 1])
    assert np.array_equal(toydata.bayes_rule(xs), ys)


def test_dataset_deterministic():
    a = toydata.sample_dataset(200, Rng(5))
    b = toydata.sample_dataset(200, Rng(5))
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)


def test_csv_round_trip_stable(tmp_path):
    data = toydata.sample_dataset(50, Rng(6))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    toydata.save_csv(data, str(p1))
    loaded = toydata.load_csv(str(p1))
    assert np.array_equal(loaded.ys, data.ys)
    assert np.allclose(loaded.xs, data.xs, atol=5e-7)
    toydata.save_csv(loaded, str(p2))  # quantized data re-saves byte-identically
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_columns():
    data = toydata.sample_dataset(7, Rng(6))
    assert data.xs.shape == (7, 2) and data.xs.dtype == np.float64
    assert data.ys.shape == (7,) and data.ys.dtype == np.int64
    assert len(data) == 7


@pytest.mark.parametrize("row", ["1.0,2.0", "1.0,2.0,1,7", "1.0,abc,1", "nan,0.5,0",
                                 "1.0,inf,1", "4.0,0.0,2", "4.0,0.0,-1", "4.0,0.0,x"])
def test_load_csv_refuses_a_bad_row_by_line(tmp_path, row):
    path = tmp_path / "toy_data.csv"
    path.write_text(f"x1,x2,label\n0.0,0.0,0\n{row}\n4.0,0.0,1\n")
    with pytest.raises(InvalidInputError, match="line 3"):
        toydata.load_csv(str(path))


@pytest.mark.parametrize("text", ["", "\n", "0.1,0.0,0\n0.2,0.0,0\n4.0,0.0,1\n4.1,0.0,1\n0.0,0.1,0\n",
                                  "x1,x2,y\n0.0,0.0,0\n", "x1,x2\n0.0,0.0,0\n"],
                         ids=["empty", "blank-line", "five-rows-no-header", "label-named-y",
                              "short-header"])
def test_load_csv_refuses_a_file_without_its_header(tmp_path, text):
    # a first line that is not the header would be skipped as one
    path = tmp_path / "toy_data.csv"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match="line 1"):
        toydata.load_csv(str(path))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_distance_nonnegative_and_zero_only_near_segment(seed):
    rng = Rng(seed)
    x = rng.uniform(-6.0, 6.0, size=2)
    for y in (0, 1):
        d = toydata.distance_to_core_segment(x[None], np.array([y]))[0]
        assert d >= 0.0
        lo = 4.0 * y - 0.1
        hi = 4.0 * y + 0.1
        manual = np.hypot(max(lo - x[0], 0.0, x[0] - hi), abs(x[1]))
        assert d == pytest.approx(manual, abs=1e-12)


# ---------------------------------------------------------------- exact posterior


@pytest.fixture(scope="module")
def prior_draws():
    data = toydata.sample_dataset(200_000, Rng(71).split("prior"))
    return data.xs, data.ys


@pytest.mark.parametrize("t", [10, 100, 400])
def test_exact_posterior_matches_importance_weighted_monte_carlo(schedule, prior_draws, t):
    # self-normalized importance sampling with the prior as proposal:
    # E[eps | x_t] = sum_i w_i (x_t - sqrt(a) x0_i) / sqrt(1 - a), with
    # w_i proportional to N(x_t; sqrt(a) x0_i, (1 - a) I); nothing of the
    # quadrature (closed-form eps_x, nodes in u and eps_y) is shared
    x0_all, y_all = prior_draws
    a = schedule.alpha_bar[t]
    points = toydata.sample_dataset(40, Rng(t).split("points"))
    noise = Rng(t).split("noise").normal((40, 2))
    x_t_all = np.sqrt(a) * points.xs + np.sqrt(1 - a) * noise
    for y in (0, 1, None):
        x0 = x0_all if y is None else x0_all[y_all == y]
        x_t = (x_t_all if y is None else x_t_all[points.ys == y])[:4]
        got = exact_oracle.exact_posterior_eps(x_t, a, y)
        for i, xt in enumerate(x_t):
            eps_i = (xt - np.sqrt(a) * x0) / np.sqrt(1 - a)
            log_w = -0.5 * np.sum(eps_i ** 2, axis=1)
            w = np.exp(log_w - log_w.max())
            w /= w.sum()
            assert 1.0 / np.sum(w ** 2) >= 500  # effective number of draws
            mc = w @ eps_i
            se = np.sqrt((w ** 2) @ (eps_i - mc) ** 2)
            assert np.all(np.abs(got[i] - mc) <= 5 * se), (t, y, xt, got[i], mc, se)


def test_exact_posterior_mirror_symmetry(schedule):
    # the process is symmetric under x2 -> -x2, so eps_y is odd and eps_x even in x2
    xs = Rng(72).normal((40, 2)) * np.array([2.5, 0.3]) + np.array([2.0, 0.0])
    mirrored = xs * np.array([1.0, -1.0])
    for t in (1, 50, 500, 1000):
        for y in (0, 1, None):
            e = exact_oracle.exact_posterior_eps(xs, schedule.alpha_bar[t], y)
            m = exact_oracle.exact_posterior_eps(mirrored, schedule.alpha_bar[t], y)
            scale = max(1.0, float(np.max(np.abs(e))))
            assert np.max(np.abs(m[:, 0] - e[:, 0])) <= 1e-12 * scale
            assert np.max(np.abs(m[:, 1] + e[:, 1])) <= 1e-12 * scale


def test_exact_denoiser_jvp_matches_finite_difference(schedule):
    model = exact_oracle.ExactDenoiser(schedule.alpha_bar)
    # points each condition can produce; the unconditional one also gets
    # the point between the classes
    points = {0: [[0.1, -0.08], [0.35, 0.12]], 1: [[4.05, 0.04], [4.4, -0.15]]}
    points[model.null_id] = points[0] + points[1] + [[2.0, 0.5]]
    v = np.array([0.6, -0.8])
    h = 1e-6
    for t in (20, 300, 1000):
        for cond, xs in points.items():
            xs = np.array(xs)
            jv = model.feature_jvp(xs, t, cond, v)
            fd = (model.hidden(xs + h * v, t, cond) - model.hidden(xs - h * v, t, cond)) / (2 * h)
            for row in range(len(xs)):
                assert np.linalg.norm(jv[row] - fd[row]) <= 1e-6 * max(np.linalg.norm(fd[row]), 1.0)
            assert np.array_equal(model.feature_jvp(xs[0], t, cond, v)[0], jv[0])


def test_exact_denoiser_batches_mixed_timesteps_and_conditions(schedule):
    model = exact_oracle.ExactDenoiser(schedule.alpha_bar)
    xs = Rng(73).normal((6, 2)) + np.array([2.0, 0.0])
    t = np.array([5, 400, 5, 400, 900, 5])
    cond = np.array([0, 1, 2, 2, 1, 0])
    got = model.eps(xs, t, cond)
    for i in range(6):
        y = None if cond[i] == model.null_id else int(cond[i])
        want = exact_oracle.exact_posterior_eps(xs[i], schedule.alpha_bar[t[i]], y)
        assert np.allclose(got[i], want[0], rtol=0, atol=1e-12)
    assert np.array_equal(model.hidden(xs, t, cond), got)
    with pytest.raises(InvalidInputError):
        model.eps(xs[:1], 0, 1)
    with pytest.raises(InvalidInputError):
        model.eps(xs[:1], 10, 3)
    with pytest.raises(InvalidInputError):
        exact_oracle.exact_posterior_eps(xs, 1.0, 1)
