import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcanon import canon, toydata
from diffcanon.diffusion import decode_batch
from diffcanon.errors import DegenerateInputError, InvalidInputError
from diffcanon.rng import Rng

# ---------------------------------------------------------------- jacobian


class LinearFeatureModel:
    """Stub whose layer features are an exact linear map of the input."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=np.float64)
        self.n_classes = 2

    def hidden(self, x, t, cond, layer=2):
        return (np.atleast_2d(x) @ self.a.T)

    def feature_jvp(self, x, t, cond, v, layer=2):
        return np.tile(self.a @ np.asarray(v), (len(np.atleast_2d(x)), 1))


def test_jacobian_of_linear_model_is_exact():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    j = canon.jacobian(LinearFeatureModel(a), np.zeros((2, 2)), 100, 1)
    assert np.array_equal(j, np.stack([a, a]))


def test_jacobian_of_constant_model_is_zero():
    j = canon.jacobian(LinearFeatureModel(np.zeros((4, 2))), np.ones(2), 100, 1)
    assert np.array_equal(j, np.zeros((1, 4, 2)))


def test_jacobian_matches_finite_difference(trained_model):
    x = np.array([0.8, -0.4])
    j = canon.jacobian(trained_model, x, 500, 1)[0]
    h = 1e-5
    for col, e in enumerate(np.eye(2)):
        fd = (trained_model.hidden(x + h * e, 500, 1)[0] -
              trained_model.hidden(x - h * e, 500, 1)[0]) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(j[:, col] - fd) / denom <= 1e-3


def test_jacobian_rejects_timestep_zero(trained_model):
    with pytest.raises(InvalidInputError):
        canon.jacobian(trained_model, np.zeros(2), 0, 1)


# ---------------------------------------------------------------- directions / k


def test_directions_diagonal_case():
    basis = canon.extraneous_directions(np.diag([5.0, 1.0]), 2)
    assert np.allclose(np.abs(basis.v[:, 0]), [1.0, 0.0])
    assert np.allclose(basis.sigma, [5.0, 1.0])


def test_directions_n1_spectral_norm():
    j = Rng(3).normal(size=(6, 2))
    basis = canon.extraneous_directions(j, 1)
    assert basis.sigma[0] == pytest.approx(np.linalg.norm(j, ord=2), rel=1e-10)
    assert basis.v.shape == (2, 1)


def test_top_direction_maximizes_amplification():
    rng = Rng(17)
    j = rng.normal(size=(8, 4))
    basis = canon.extraneous_directions(j, 4)
    top_gain = np.linalg.norm(j @ basis.v[:, 0])
    for _ in range(1000):
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        assert np.linalg.norm(j @ u) <= top_gain + 1e-9


def test_evr_formula():
    basis = canon.ExtraneousBasis(v=np.eye(3), sigma=np.array([2.0, 1.0, 1.0]))
    assert np.allclose(canon.evr_sequence(basis), [4 / 6, 5 / 6, 1.0])


def test_evr_rank_one():
    basis = canon.ExtraneousBasis(v=np.eye(3), sigma=np.array([3.0, 0.0, 0.0]))
    assert np.allclose(canon.evr_sequence(basis), [1.0, 1.0, 1.0])


def test_evr_single():
    basis = canon.ExtraneousBasis(v=np.eye(1), sigma=np.array([1.0]))
    assert np.allclose(canon.evr_sequence(basis), [1.0])


def test_evr_all_zero_raises():
    basis = canon.ExtraneousBasis(v=np.eye(2), sigma=np.zeros(2))
    with pytest.raises(DegenerateInputError):
        canon.evr_sequence(basis)


def test_select_k_worked_examples():
    assert canon.select_k([0.2, 0.8, 0.9, 0.95, 1.0]) == 2
    assert canon.select_k([0.0, 1.0, 1.0, 1.0, 1.0]) == 2


def test_select_k_collinear_and_single():
    assert canon.select_k([0.25, 0.5, 0.75, 1.0]) == 1
    assert canon.select_k([1.0]) == 1


@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_select_k_always_in_range(vals):
    s = np.cumsum(np.sort(np.asarray(vals))[::-1])
    s = s / s[-1]
    k = canon.select_k(s)
    assert 1 <= k <= len(s)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_select_k_is_one_on_every_two_point_sequence(a, b):
    # both points lie on the chord, so the elbow is the first point: with
    # 2-D latents every sample loses exactly one direction
    assert canon.select_k([min(a, b), max(a, b)]) == 1


def test_stacked_calls_match_per_sample_calls():
    rng = Rng(29)
    j = rng.normal(size=(7, 8, 4))
    j[:, :, 2:] *= 0.01  # a clear elbow for some samples
    j[3] = 0.0
    j[3, :, 0] = 1.0     # rank one: EVR sequence [1, 1, 1, 1]
    x = rng.normal(size=(7, 4))
    basis = canon.extraneous_directions(j, 4)
    s = canon.evr_sequence(basis)
    k = canon.select_k(s)
    k[0] = 0
    out = canon.project_out(x, basis, k)
    for i in range(7):
        one = canon.extraneous_directions(j[i], 4)
        assert np.array_equal(basis.sigma[i], one.sigma)
        assert np.array_equal(basis.v[i], one.v)
        assert np.array_equal(s[i], canon.evr_sequence(one))
        assert k[i] == (0 if i == 0 else canon.select_k(s[i]))
        assert np.allclose(out[i], canon.project_out(x[i], one, k[i]), rtol=0, atol=1e-14)
    assert sorted(set(k.tolist()) - {0}) == [1, 2]


@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_evr_monotone_ending_at_one(sigmas):
    sig = np.sort(np.asarray(sigmas))[::-1]
    if np.sum(sig ** 2) == 0:
        return
    basis = canon.ExtraneousBasis(v=np.eye(len(sig)), sigma=sig)
    s = canon.evr_sequence(basis)
    assert np.all(np.diff(s) >= -1e-12)
    assert s[-1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- projection


def _basis(v):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    return canon.ExtraneousBasis(v=v, sigma=np.ones(v.shape[1]))


def test_project_k0_identity():
    x = np.array([3.0, -1.0])
    basis = _basis(np.array([1.0, 0.0]))
    assert np.array_equal(canon.project_out(x, basis, 0), x)


def test_project_axis():
    basis = _basis(np.array([1.0, 0.0]))
    assert np.allclose(canon.project_out(np.array([1.0, 0.0]), basis, 1), [0.0, 0.0])


def test_project_diagonal_direction():
    basis = _basis(np.array([1.0, 1.0]) / np.sqrt(2.0))
    out = canon.project_out(np.array([2.0, 0.0]), basis, 1)
    assert np.allclose(out, [1.0, -1.0], atol=1e-12)


def test_project_idempotent_orthogonal_norm():
    rng = Rng(23)
    for _ in range(50):
        m = rng.normal(size=(4, 4))
        q = np.linalg.qr(m)[0]
        k = int(rng.integers(1, 4))
        basis = canon.ExtraneousBasis(v=q[:, :3], sigma=np.array([3.0, 2.0, 1.0]))
        x = rng.normal(size=4)
        x1 = canon.project_out(x, basis, k)
        x2 = canon.project_out(x1, basis, k)
        assert np.linalg.norm(x2 - x1) <= 1e-10
        assert np.linalg.norm(x1) <= np.linalg.norm(x) + 1e-12
        for j in range(k):
            assert abs(np.dot(x1, basis.v[:, j])) <= 1e-10


def test_project_k_exceeds_basis_raises():
    basis = _basis(np.array([1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        canon.project_out(np.array([1.0, 1.0]), basis, 2)


# ---------------------------------------------------------------- saturation rule


def test_saturation_choice_rule_example():
    grid = [200, 400, 600, 800, 1000]
    accs = [0.5, 0.8, 0.95, 0.96, 0.95]
    assert canon.saturation_choice(grid, accs, 0.02) == 1000


def test_saturation_choice_constant_curve():
    assert canon.saturation_choice([100, 200, 300], [0.9, 0.9, 0.9], 0.02) == 300


def test_saturation_choice_drop_at_end():
    grid = [200, 400, 600, 800, 1000]
    accs = [0.5, 0.96, 0.95, 0.6, 0.6]
    assert canon.saturation_choice(grid, accs, 0.02) == 600


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_saturation_choice_recheckable(accs):
    grid = [100 * (i + 1) for i in range(len(accs))]
    chosen = canon.saturation_choice(grid, accs, 0.02)
    best = max(accs)
    assert chosen in grid
    idx = grid.index(chosen)
    assert accs[idx] >= best - 0.02
    assert all(a < best - 0.02 for a in accs[idx + 1:])


# ---------------------------------------------------------------- find_te / pipeline


@pytest.fixture(scope="module")
def te_reports(trained_model, schedule):
    grid = list(range(100, 1001, 100))
    return [canon.find_te(trained_model, schedule, toydata.bayes_rule, grid, 60,
                          Rng(seed).split("te")) for seed in (0, 1, 2)]


def test_find_te_stable_across_seeds(te_reports):
    grid = te_reports[0].grid
    chosen = [r.chosen for r in te_reports]
    idx = [grid.index(c) for c in chosen]
    assert max(idx) - min(idx) <= 1, f"chosen values spread too far: {chosen}"


def test_find_te_satisfies_saturation_rule(te_reports):
    for r in te_reports:
        assert r.chosen <= max(r.grid)
        assert r.chosen == canon.saturation_choice(r.grid, r.accuracies, r.tol)


@pytest.mark.parametrize("m", [200, 50])
def test_stacked_find_te_equals_per_block_decodes(trained_model, schedule, monkeypatch, m):
    # find_te decodes its (t_e, class) blocks stacked, at most _TE_ROWS rows at a
    # time; each block must come out as its own two-stage decode would. Rows in a
    # gemm's tail group take other last bits, so only m % 4 == 0 is bitwise.
    grid = [0, 200, 400, 600, 800, 1000]
    stacked = []

    def recorded(*args, **kwargs):
        stacked.append(two_stage(*args, **kwargs))
        return stacked[-1]

    two_stage = canon.two_stage_batch
    monkeypatch.setattr(canon, "two_stage_batch", recorded)
    report = canon.find_te(trained_model, schedule, toydata.bayes_rule, grid, m, Rng(21))
    assert len(stacked) == -(-len(grid) * 2 * m // canon._TE_ROWS)
    accuracies, blocks = [], []
    for t_e in grid:
        correct = 0
        for c in (0, 1):
            x_T = Rng(21).split(f"te-{t_e}-c{c}").normal((m, 2))
            blocks.append(decode_batch(x_T, schedule.t_max, c, trained_model, schedule,
                                       te_switch=t_e))
            correct += int(np.sum(toydata.bayes_rule(blocks[-1]) == c))
        accuracies.append(correct / (2 * m))
    assert report.accuracies == accuracies
    got, want = np.concatenate(stacked), np.concatenate(blocks)
    if m % 4 == 0:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12


def test_find_te_rejects_bad_grid(trained_model, schedule):
    with pytest.raises(InvalidInputError):
        canon.find_te(trained_model, schedule, toydata.bayes_rule, [], 10, Rng(0))
    with pytest.raises(InvalidInputError):
        canon.find_te(trained_model, schedule, toydata.bayes_rule, [500, 100], 10, Rng(0))


@pytest.fixture(scope="module")
def class1_bundles(trained_model, schedule, dataset):
    xs, ys = dataset.xs, dataset.ys
    x1 = xs[ys == 1][:100]
    y1 = ys[ys == 1][:100]
    bundles, x_te = canon.canonicalize_batch(x1, y1, trained_model, schedule, t_e=400)
    return x1, y1, bundles, x_te


def test_canonical_distance_not_worse_than_roundtrip(class1_bundles, trained_model,
                                                     schedule):
    x1, y1, bundles, x_te = class1_bundles
    base = decode_batch(x_te, 400, y1, trained_model, schedule)
    d_canon = np.median(toydata.distance_to_core_segment(bundles.canonical_sample, y1))
    d_base = np.median(toydata.distance_to_core_segment(base, y1))
    assert d_canon <= d_base


def test_bundle_fields_and_k(class1_bundles, schedule):
    x1, _, bundles, x_te = class1_bundles
    n = len(x1)
    assert x_te.shape == x1.shape
    assert len(bundles) == n
    assert np.array_equal(bundles.seed_sample_id, np.arange(n))
    assert np.all(bundles.t_e == 400)
    assert np.all(bundles.cond == 1)
    assert np.all((1 <= bundles.k) & (bundles.k <= 2))
    for name in ("seed_sample_id", "t_e", "k", "cond"):
        assert getattr(bundles, name).shape == (n,)
        assert getattr(bundles, name).dtype == np.int64
    assert bundles.latent.shape == bundles.canonical_sample.shape == (n, 2)
    assert bundles.canonical_feature.shape == (n, 80)


VECTOR_COLUMNS = ("latent", "canonical_sample", "canonical_feature")


def test_canonicalize_deterministic(trained_model, schedule, dataset):
    x = dataset.xs[dataset.ys == 1][:3]
    y = np.ones(3, dtype=np.int64)
    b1, x_te1 = canon.canonicalize_batch(x, y, trained_model, schedule, t_e=600)
    b2, x_te2 = canon.canonicalize_batch(x, y, trained_model, schedule, t_e=600)
    assert np.array_equal(x_te1, x_te2)
    for f in dataclasses.fields(canon.Bundles):
        assert np.array_equal(getattr(b1, f.name), getattr(b2, f.name)), f.name


def mixed_batch(dataset):
    xs, ys = dataset.xs, dataset.ys
    rows = np.concatenate([np.flatnonzero(ys == 0)[:5], np.flatnonzero(ys == 1)[:5]])
    return xs[rows], ys[rows]


@pytest.mark.parametrize("denoiser", ["trained", "exact"])
def test_canonicalize_batch_equals_per_row_calls(denoiser, trained_model, schedule, dataset):
    model = trained_model if denoiser == "trained" else toydata.ExactDenoiser(schedule.alpha_bar)
    x, y = mixed_batch(dataset)
    batch, _ = canon.canonicalize_batch(x, y, model, schedule, t_e=600)
    assert np.all(batch.k == 1)
    for i in range(len(x)):
        one, _ = canon.canonicalize_batch(x[i], y[i], model, schedule, t_e=600)
        assert len(one) == 1 and one.k[0] == 1
        for name in VECTOR_COLUMNS:
            assert np.allclose(getattr(batch, name)[i], getattr(one, name)[0],
                               rtol=0, atol=1e-12)


def test_canonicalize_blocks_do_not_change_the_result(trained_model, schedule, dataset,
                                                      monkeypatch):
    # not bitwise: BLAS sums a row of a 1-row block (row 9 here) in another
    # order than the same row inside a larger matrix product
    x, y = mixed_batch(dataset)
    whole, _ = canon.canonicalize_batch(x, y, trained_model, schedule, t_e=600)
    monkeypatch.setattr(canon, "_BLOCK_ROWS", 3)
    blocked, _ = canon.canonicalize_batch(x, y, trained_model, schedule, t_e=600)
    assert np.array_equal(whole.k, blocked.k)
    for name in VECTOR_COLUMNS:
        assert np.allclose(getattr(whole, name), getattr(blocked, name), rtol=0, atol=1e-12)


def test_bundles_jsonl_round_trip(class1_bundles, tmp_path):
    _, _, bundles, _ = class1_bundles
    path = str(tmp_path / "bundles.jsonl")
    canon.save_bundles(bundles, path)
    loaded = canon.load_bundles(path)
    assert len(loaded) == len(bundles)
    # every column, so that one added later cannot drop out of the file unnoticed
    for f in dataclasses.fields(canon.Bundles):
        a, b = getattr(bundles, f.name), getattr(loaded, f.name)
        assert b.dtype == a.dtype and b.shape == a.shape, f.name
        assert np.array_equal(a, b), f.name


def test_empty_bundle_file_loads_as_zero_rows(tmp_path):
    path = tmp_path / "bundles.jsonl"
    path.write_text("")
    assert len(canon.load_bundles(str(path))) == 0


def bundle_lines(bundles, tmp_path):
    path = tmp_path / "bundles.jsonl"
    canon.save_bundles(bundles, str(path))
    return path, [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("damage", ["not json", "not an object", "missing field",
                                    "fractional k", "null in latent", "NaN in feature"]
                         + [f"wider {name}" for name in VECTOR_COLUMNS])
def test_load_bundles_refuses_a_damaged_line(class1_bundles, tmp_path, damage):
    _, _, bundles, _ = class1_bundles
    path, records = bundle_lines(bundles, tmp_path)
    record = records[3]
    if damage == "not an object":
        record = [record]
    elif damage == "missing field":
        del record["cond"]
    elif damage == "fractional k":
        record["k"] = 1.5
    elif damage == "null in latent":
        record["latent"][0] = None
    elif damage == "NaN in feature":
        record["canonical_feature"][0] = float("nan")
    elif damage.startswith("wider"):
        record[damage.split()[1]].append(0.0)
    lines = [json.dumps(r, sort_keys=True) for r in records]
    lines[3] = json.dumps(record)[:-1] if damage == "not json" else json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError, match="line 4"):
        canon.load_bundles(str(path))


def test_failed_bundle_write_keeps_the_previous_file(class1_bundles, tmp_path):
    _, _, bundles, _ = class1_bundles
    path = tmp_path / "bundles.jsonl"
    canon.save_bundles(bundles, str(path))
    before = path.read_bytes()
    # the second row holds what JSON cannot encode, so the write fails on line 2
    latent = bundles.latent.astype(object)
    latent[1, 0] = object()
    with pytest.raises(TypeError):
        canon.save_bundles(dataclasses.replace(bundles, latent=latent), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["bundles.jsonl"]


# ---------------------------------------------------------------- feature quality


def test_feature_quality_separated_features():
    feats = np.array([[1.0, 0.0]] * 10 + [[0.0, 1.0]] * 10)
    labels = np.array([0] * 10 + [1] * 10)
    report = canon.feature_quality(feats, labels, 2, Rng(0))
    assert report.nmi == pytest.approx(1.0, abs=1e-12)
    assert report.within_class_var[0] == pytest.approx(0.0, abs=1e-12)


def test_feature_quality_random_features_low_nmi():
    rng = Rng(55)
    feats = rng.normal(size=(200, 6))
    labels = rng.integers(0, 2, size=200)
    report = canon.feature_quality(feats, labels, 2, Rng(1))
    assert report.nmi < 0.1


def test_feature_quality_requires_matching_k():
    feats = Rng(2).normal(size=(20, 3))
    labels = np.array([0, 1] * 10)
    with pytest.raises(InvalidInputError):
        canon.feature_quality(feats, labels, 3, Rng(0))
