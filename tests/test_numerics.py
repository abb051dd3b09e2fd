import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_oracle as oracle
from brute_oracle import brute_elbow, brute_nmi
from diffcanon import numerics
from diffcanon.errors import DegenerateInputError, InvalidInputError
from diffcanon.rng import Rng

# ---------------------------------------------------------------- svd


def test_svd_diagonal():
    res = numerics.svd(np.diag([3.0, 2.0]))
    assert np.allclose(res.sigma, [3.0, 2.0])
    assert np.allclose(np.abs(res.v), np.eye(2), atol=1e-12)


def test_svd_rank_one_column():
    res = numerics.svd(np.array([[3.0, 0.0], [4.0, 0.0]]))
    assert np.allclose(res.sigma, [5.0, 0.0], atol=1e-12)
    assert np.allclose(np.abs(res.v[:, 0]), [1.0, 0.0], atol=1e-12)


def test_svd_reconstruction_6x2():
    a = Rng(1).normal(size=(6, 2))
    res = numerics.svd(a)
    rec = res.u @ np.diag(res.sigma) @ res.v.T
    assert np.linalg.norm(rec - a) / np.linalg.norm(a) <= 1e-6


def test_svd_1000_random_matrices():
    """V orthonormal and reconstruction tight for shapes up to 32x32."""
    rng = Rng(42)
    for _ in range(1000):
        m = int(rng.integers(1, 33))
        n = int(rng.integers(1, 33))
        a = rng.normal(size=(m, n))
        res = numerics.svd(a)
        k = res.v.shape[1]
        assert np.all(np.diff(res.sigma) <= 1e-12) and np.all(res.sigma >= 0)
        assert np.linalg.norm(res.v.T @ res.v - np.eye(k)) <= 1e-8
        rec = res.u @ np.diag(res.sigma) @ res.v.T
        assert np.linalg.norm(rec - a) <= 1e-6 * max(np.linalg.norm(a), 1e-12)


def test_svd_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        numerics.svd(np.array([[1.0, np.nan]]))


# ---------------------------------------------------------------- kmeans


def test_kmeans_k_equals_n():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assignments, inertia = numerics.kmeans(pts, 3, Rng(0))
    assert len(set(assignments.tolist())) == 3
    assert inertia <= 1e-12


def test_kmeans_k1_centroid_is_mean():
    pts = Rng(3).normal(size=(50, 2))
    _, inertia = numerics.kmeans(pts, 1, Rng(0))
    expected = float(np.sum((pts - pts.mean(axis=0)) ** 2))
    assert abs(inertia - expected) <= 1e-8


def test_kmeans_two_blobs():
    rng = Rng(5)
    a = rng.normal(size=(40, 2)) * 0.1
    b = rng.normal(size=(40, 2)) * 0.1 + np.array([10.0, 10.0])
    pts = np.concatenate([a, b])
    assignments, _ = numerics.kmeans(pts, 2, Rng(1))
    first, second = assignments[:40], assignments[40:]
    assert len(set(first.tolist())) == 1
    assert len(set(second.tolist())) == 1
    assert first[0] != second[0]


def test_kmeans_deterministic():
    pts = Rng(9).normal(size=(60, 3))
    a1, i1 = numerics.kmeans(pts, 4, Rng(7))
    a2, i2 = numerics.kmeans(pts, 4, Rng(7))
    assert np.array_equal(a1, a2) and i1 == i2


def test_kmeans_inertia_nonincreasing_over_iterations():
    """Same seed with growing max_iter walks the same path, so the final
    inertia after m iterations is non-increasing in m."""
    pts = Rng(13).normal(size=(80, 2))
    inertias = [numerics.kmeans(pts, 3, Rng(2), max_iter=m)[1] for m in range(1, 12)]
    assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))


# ---------------------------------------------------------------- nmi


def test_nmi_permutation_relabel():
    labels = np.array([0, 0, 1, 1, 2, 2])
    relabeled = np.array([5, 5, 3, 3, 9, 9])
    assert numerics.nmi(relabeled, labels) == pytest.approx(1.0, abs=1e-12)


def test_nmi_single_cluster_zero():
    assert numerics.nmi(np.array([0, 0, 0, 0]), np.array([0, 0, 1, 1])) == 0.0


def test_nmi_worked_example():
    a, b = np.array([0, 0, 0, 1]), np.array([0, 0, 1, 1])
    val = numerics.nmi(a, b)
    assert val == pytest.approx(0.344, abs=5e-4)
    assert abs(val - brute_nmi(a, b)) <= 1e-10


def test_nmi_matches_bruteforce_oracle():
    rng = Rng(77)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        a = rng.integers(0, int(rng.integers(1, 6)) + 1, size=n)
        b = rng.integers(0, int(rng.integers(1, 6)) + 1, size=n)
        assert abs(numerics.nmi(a, b) - brute_nmi(a, b)) <= 1e-10


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_nmi_symmetric_and_bounded(seed):
    rng = Rng(seed)
    n = int(rng.integers(2, 25))
    a = rng.integers(0, 4, size=n)
    b = rng.integers(0, 4, size=n)
    ab, ba = numerics.nmi(a, b), numerics.nmi(b, a)
    assert abs(ab - ba) <= 1e-12
    assert 0.0 <= ab <= 1.0


# ---------------------------------------------------------------- linear_cka, the tape oracle's


def test_cka_self_is_one():
    x = Rng(8).normal(size=(12, 4))
    assert oracle.linear_cka(x, x) == pytest.approx(1.0, abs=1e-10)


def test_cka_orthogonal_and_scale_invariance():
    rng = Rng(21)
    x = rng.normal(size=(15, 5))
    q = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    y = 2.7 * x @ q
    assert abs(oracle.linear_cka(x, y) - 1.0) <= 1e-8
    z = rng.normal(size=(15, 3))
    assert abs(oracle.linear_cka(x, z) - oracle.linear_cka(x, 0.3 * z)) <= 1e-8


def test_cka_orthogonal_centered_columns():
    x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    y = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    assert oracle.linear_cka(x, y) == pytest.approx(0.0, abs=1e-12)


def test_cka_symmetric():
    rng = Rng(4)
    x, y = rng.normal(size=(10, 3)), rng.normal(size=(10, 6))
    assert abs(oracle.linear_cka(x, y) - oracle.linear_cka(y, x)) <= 1e-12


def test_cka_degenerate_raises():
    with pytest.raises(DegenerateInputError):
        oracle.linear_cka(np.ones((5, 2)), Rng(0).normal(size=(5, 2)))


# ---------------------------------------------------------------- elbow_index


def test_elbow_step_sequence():
    assert numerics.elbow_index(np.array([0.0, 1.0, 1.0, 1.0, 1.0])) == 1


def test_elbow_collinear_tie_break():
    assert numerics.elbow_index(np.array([0.0, 0.25, 0.5, 0.75, 1.0])) == 0


def test_elbow_worked_example():
    assert numerics.elbow_index(np.array([0.2, 0.8, 0.9, 0.95, 1.0])) == 1


def test_elbow_matches_bruteforce_on_1000_sequences():
    rng = Rng(101)
    for _ in range(1000):
        n = int(rng.integers(2, 20))
        s = np.sort(rng.uniform(0.0, 1.0, size=n))
        assert numerics.elbow_index(s) == brute_elbow(s)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=2, max_size=15))
@settings(max_examples=60, deadline=None)
def test_elbow_in_range_property(vals):
    s = np.sort(np.asarray(vals))
    idx = numerics.elbow_index(s)
    assert 0 <= idx < len(s)
    assert idx == brute_elbow(s)
