import math

import numpy as np
import pytest

import tape_oracle as oracle
from brute_oracle import brute_align, brute_cluster, central_differences, fd_on_tensor
from diffcanon import distill, toydata
from diffcanon.autodiff import Tensor
from diffcanon.canon import Bundles
from diffcanon.errors import ConfigError, InvalidInputError
from diffcanon.rng import Rng

# ---------------------------------------------------------------- batches


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def rand_batch(rng, b, d=4, classes=2):
    z = unit_rows(rng.normal(size=(b, d)))
    zc = unit_rows(rng.normal(size=(b, d)))
    labels = rng.integers(0, classes, size=b)
    return z, zc, labels


# ---------------------------------------------------------------- align loss


def test_align_uniform_similarities():
    z = np.tile([1.0, 0.0], (4, 1))
    labels = np.array([0, 0, 1, 1])
    val = distill.align_loss(Tensor(z), Tensor(z.copy()), labels, 0.1).item()
    assert val == pytest.approx(math.log(4.0), abs=1e-12)


def test_align_two_sample_worked_example():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1])
    val = distill.align_loss(Tensor(z), Tensor(z.copy()), labels, 0.1).item()
    expected = math.log1p(math.exp(-10.0))
    assert val == pytest.approx(expected, rel=1e-8)


def test_align_matches_double_loop_on_100_batches():
    rng = Rng(7)
    for _ in range(100):
        b = int(rng.integers(2, 33))
        z, zc, labels = rand_batch(rng, b)
        got = distill.align_loss(Tensor(z), Tensor(zc), labels, 0.1).item()
        assert abs(got - brute_align(z, zc, labels, 0.1)) <= 1e-8


def test_align_empty_batch_raises():
    with pytest.raises(InvalidInputError):
        distill.align_loss(Tensor(np.zeros((0, 2))), Tensor(np.zeros((0, 2))),
                           np.zeros(0, dtype=int), 0.1)


# ---------------------------------------------------------------- cluster loss


def test_cluster_one_per_class_zero_similarity():
    zc = np.array([[1.0, 0.0], [0.0, 1.0]])
    val = distill.cluster_loss(Tensor(zc), np.array([0, 1]), 0.1).item()
    assert val == pytest.approx(0.0, abs=1e-12)


def test_cluster_two_same_class_degenerates_to_zero():
    rng = Rng(9)
    zc = unit_rows(rng.normal(size=(2, 3)))
    val = distill.cluster_loss(Tensor(zc), np.array([1, 1]), 0.1).item()
    assert val == pytest.approx(0.0, abs=1e-12)


def test_cluster_mixed_batch_matches_double_loop():
    rng = Rng(12)
    zc = unit_rows(rng.normal(size=(4, 3)))
    labels = np.array([0, 0, 1, 1])
    got = distill.cluster_loss(Tensor(zc), labels, 0.1).item()
    assert abs(got - brute_cluster(zc, labels, 0.1)) <= 1e-8


def test_cluster_matches_double_loop_on_100_batches():
    rng = Rng(8)
    for _ in range(100):
        b = int(rng.integers(2, 33))
        _, zc, labels = rand_batch(rng, b, classes=3)
        got = distill.cluster_loss(Tensor(zc), labels, 0.1).item()
        assert abs(got - brute_cluster(zc, labels, 0.1)) <= 1e-8


def test_cluster_small_batch_raises():
    with pytest.raises(InvalidInputError):
        distill.cluster_loss(Tensor(np.ones((1, 2))), np.array([0]), 0.1)


# ---------------------------------------------------------------- cka distill loss


def test_cka_loss_maximal_alignment_clamped():
    rng = Rng(3)
    a = rng.normal(size=(10, 4))
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    val = distill.cka_distill_loss(Tensor(a @ q), Tensor(a @ q), a, 0.5).item()
    assert val == pytest.approx(math.log(1e-7), rel=1e-6)


def test_cka_loss_lambda_one_ignores_canonical_term():
    rng = Rng(4)
    z = rng.normal(size=(8, 3))
    a = rng.normal(size=(8, 5))
    v1 = distill.cka_distill_loss(Tensor(z), Tensor(rng.normal(size=(8, 3))), a, 1.0).item()
    v2 = distill.cka_distill_loss(Tensor(z), Tensor(rng.normal(size=(8, 3))), a, 1.0).item()
    assert v1 == v2 == pytest.approx(math.log(1.0 - oracle.linear_cka(z, a)), rel=1e-10)


def test_cka_loss_recombines_from_linear_cka():
    rng = Rng(5)
    for _ in range(20):
        z = rng.normal(size=(9, 4))
        zc = rng.normal(size=(9, 4))
        a = rng.normal(size=(9, 6))
        lam = float(rng.uniform(0.0, 1.0))
        got = distill.cka_distill_loss(Tensor(z), Tensor(zc), a, lam).item()
        want = (lam * math.log(1.0 - oracle.linear_cka(z, a)) +
                (1.0 - lam) * math.log(1.0 - oracle.linear_cka(zc, a)))
        assert abs(got - want) <= 1e-10
        assert got <= 0.0


def test_loss_signs_on_random_batches():
    rng = Rng(6)
    for _ in range(25):
        b = int(rng.integers(2, 16))
        z, zc, labels = rand_batch(rng, b)
        assert distill.align_loss(Tensor(z), Tensor(zc), labels, 0.1).item() >= 0.0
        # the contrastive cluster term is non-negative whenever every
        # anchor has at least one same-class peer
        if all(np.sum(labels == c) >= 2 for c in np.unique(labels)):
            assert distill.cluster_loss(Tensor(zc), labels, 0.1).item() >= -1e-9


# ---------------------------------------------------------------- gradients


def test_align_gradient_finite_difference():
    rng = Rng(31)
    z, zc, labels = rand_batch(rng, 6)
    assert fd_on_tensor(lambda t: distill.align_loss(t, Tensor(zc), labels, 0.1), z,
                        coords=8) <= 1e-4


def test_cluster_gradient_finite_difference():
    rng = Rng(32)
    _, zc, labels = rand_batch(rng, 6)
    assert fd_on_tensor(lambda t: distill.cluster_loss(t, labels, 0.1), zc, coords=8) <= 1e-4


def test_cka_gradient_finite_difference():
    rng = Rng(33)
    z = rng.normal(size=(7, 3))
    zc = rng.normal(size=(7, 3))
    a = rng.normal(size=(7, 4))
    assert fd_on_tensor(lambda t: distill.cka_distill_loss(t, Tensor(zc), a, 0.5), z,
                        coords=8) <= 1e-4


def test_total_loss_gradient_finite_difference(tiny_pool):
    rng = Rng(34)
    xs = rng.normal(size=(6, 2))
    labels = rng.integers(0, 2, size=6)
    cfg = distill.DistillConfig()
    student = distill.StudentClassifier(Rng(1))
    canon = canon_rows(tiny_pool, labels, rng)

    w1 = student.W1
    w0 = w1.data.copy()

    def f(vals):
        w1.data[...] = vals
        loss, _ = distill.total_loss(xs, labels, *canon, student, cfg)
        w1.data[...] = w0
        return loss.item()

    loss, _ = distill.total_loss(xs, labels, *canon, student, cfg)
    for p in student.parameters():
        p.grad = None
    loss.backward()
    grad = w1.grad.copy()
    worst = 0.0
    cis = Rng(0).integers(0, w0.size, size=6)
    for ci, fd in zip(cis, central_differences(f, w0, cis)):
        got = grad.reshape(-1)[ci]
        worst = max(worst, abs(fd - got) / max(abs(fd), abs(got), 1e-8))
    assert worst <= 1e-4


# ---------------------------------------------------------------- fused nodes vs tape oracle


def value_and_grads(build, arrays):
    """Value of build(*tensors) and d(value * R)/d(each input) for a fixed weighting R."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    weight = Rng(5).normal(size=out.shape) if out.shape else 1.0
    oracle.sum_(out * Tensor(weight)).backward()
    return out.data, [t.grad for t in tensors]


def assert_matches_oracle(name, arrays, *args):
    got, got_grads = value_and_grads(lambda *t: getattr(distill, name)(*t, *args), arrays)
    want, want_grads = value_and_grads(lambda *t: getattr(oracle, name)(*t, *args), arrays)
    assert np.max(np.abs(got - want)) <= 1e-12, name
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape and np.max(np.abs(g - w)) <= 1e-12, name
    return got_grads


def test_fused_l2_normalize_and_cross_entropy_match_tape_oracle():
    rng = Rng(70)
    assert_matches_oracle("l2_normalize", [rng.normal(size=(9, 5))])
    for b, c in ((1, 2), (16, 2), (16, 5)):
        assert_matches_oracle("cross_entropy", [3.0 * rng.normal(size=(b, c))],
                              rng.integers(0, c, size=b))


def test_fused_contrastive_terms_match_tape_oracle():
    rng = Rng(71)
    for b in (2, 7, 33, 128):
        z, zc, labels = rand_batch(rng, b, d=6, classes=3)
        assert_matches_oracle("align_loss", [z, zc], labels, 0.1)
        assert_matches_oracle("cluster_loss", [zc], labels, 0.1)
    # anchors 4 and 6 have no same-class peer: only their log-sum-exp remains
    labels = np.array([0, 0, 1, 1, 2, 0, 3])
    _, zc, _ = rand_batch(rng, len(labels), d=6)
    assert_matches_oracle("cluster_loss", [zc], labels, 0.1)
    assert_matches_oracle("align_loss", [zc, zc[::-1].copy()], labels, 0.1)


def test_fused_cka_matches_tape_oracle_and_clamps_to_zero_gradient():
    rng = Rng(72)
    for lam in (0.0, 0.3, 1.0):
        z, zc, teacher = (rng.normal(size=(12, 4)), rng.normal(size=(12, 4)),
                          rng.normal(size=(12, 7)))
        assert_matches_oracle("cka_distill_loss", [z, zc], teacher, lam)
    # z is the teacher rotated and slightly perturbed: its CKA is within
    # 1e-7 of 1 but below it, so only the clamp keeps the term at log(1e-7)
    teacher = rng.normal(size=(12, 4))
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    z = teacher @ q + 1e-4 * rng.normal(size=(12, 4))
    assert 1.0 - 1e-7 < oracle.linear_cka(z, teacher) < 1.0
    dz, dzc = assert_matches_oracle("cka_distill_loss",
                                    [z, rng.normal(size=(12, 4))], teacher, 0.5)
    assert np.all(dz == 0.0) and np.max(np.abs(dzc)) > 0.0


def test_fused_forward_matches_tape_oracle_with_input_gradient():
    rng = Rng(73)
    student = distill.StudentClassifier(Rng(74))
    for p in student.parameters():
        p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
    x = 2.0 * rng.normal(size=(40, 2))
    labels = rng.integers(0, 2, size=40)
    weight = rng.normal(size=(40, student.hidden_dim))
    results = []
    for forward in (lambda t: student.forward_graph(t), lambda t: oracle.forward_graph(student, t)):
        for p in student.parameters():
            p.grad = None
        x_t = Tensor(x.copy(), requires_grad=True)
        feats, logits = forward(x_t)
        loss = oracle.cross_entropy(logits, labels) + oracle.sum_(feats * Tensor(weight))
        loss.backward()
        results.append([feats.data, logits.data, x_t.grad]
                       + [p.grad for p in student.parameters()])
    for got, want in zip(*results):
        assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-12


def test_fused_total_loss_matches_tape_oracle(tiny_pool):
    rng = Rng(75)
    xs = rng.normal(size=(10, 2)) + np.array([2.0, 0.0])
    labels = rng.integers(0, 2, size=10)
    cfg = distill.DistillConfig(lambda_cs=0.7, lambda_cf=0.3, lambda_dist=2.0, lambda_cka=0.6)
    student = distill.StudentClassifier(Rng(76))
    canon = canon_rows(tiny_pool, labels, rng)
    results = []
    for build in (lambda: distill.total_loss(xs, labels, *canon, student, cfg)[0],
                  lambda: oracle.total_loss(xs, labels, *canon, student, cfg)):
        for p in student.parameters():
            p.grad = None
        loss = build()
        loss.backward()
        results.append([loss.data] + [p.grad for p in student.parameters()])
    for got, want in zip(*results):
        assert np.max(np.abs(got - want)) <= 1e-12


def test_distill_step_loss_reaches_at_most_32_tape_nodes(tiny_pool):
    # fused: 6 parameters, 2 inputs, 2 student forwards, the 2-op head,
    # 2 normalizations, 4 loss terms and their weighted sum; the per-op graph reaches 133
    rng = Rng(77)
    xs = rng.normal(size=(128, 2))
    labels = rng.integers(0, 2, size=128)
    student = distill.StudentClassifier(Rng(78))
    canon = canon_rows(tiny_pool, labels, rng)
    loss, _ = distill.total_loss(xs, labels, *canon, student, distill.DistillConfig())
    assert oracle.reachable_nodes(loss) <= 32
    plain, _ = distill.total_loss(xs, labels, None, None, student, distill.DistillConfig())
    assert oracle.reachable_nodes(plain) <= 11


# ---------------------------------------------------------------- total loss / pool


def pool_of(cond, latent=None, sample=None, feature=None):
    """A pool record of rows with these classes; vectors default to zeros."""
    cond = np.asarray(cond, dtype=np.int64)
    n = len(cond)
    return Bundles(
        seed_sample_id=np.arange(n), t_e=np.full(n, 400), k=np.ones(n, dtype=np.int64),
        cond=cond, latent=np.zeros((n, 2)) if latent is None else latent,
        canonical_sample=np.zeros((n, 2)) if sample is None else sample,
        canonical_feature=np.zeros((n, 80)) if feature is None else feature)


def canon_rows(pool, labels, rng):
    """The canonical samples and features of one same-class pool draw per label."""
    rows = distill.sample_bundles(pool, labels, rng)
    return pool.canonical_sample[rows], pool.canonical_feature[rows]


@pytest.fixture(scope="module")
def tiny_pool():
    rng = Rng(77)
    rows = []
    for i in range(8):
        cls = i % 2
        center = np.array([4.0, 0.0]) if cls else np.array([0.0, 0.0])
        rows.append((rng.normal(size=2), center + 0.05 * rng.normal(size=2),
                     rng.normal(size=80) + 3.0 * cls))
    latent, sample, feature = (np.stack(col) for col in zip(*rows))
    return pool_of(np.arange(8) % 2, latent=latent, sample=sample, feature=feature)


def test_pool_rows_per_class(tiny_pool):
    assert np.bincount(tiny_pool.cond).tolist() == [4, 4]


def test_total_loss_reduces_to_cross_entropy(tiny_pool):
    rng = Rng(41)
    xs = rng.normal(size=(8, 2))
    labels = rng.integers(0, 2, size=8)
    student = distill.StudentClassifier(Rng(2))
    cfg = distill.DistillConfig(lambda_cs=0.0, lambda_dist=0.0)
    canon = canon_rows(tiny_pool, labels, rng)
    with_terms, comps = distill.total_loss(xs, labels, *canon, student, cfg)
    plain, _ = distill.total_loss(xs, labels, None, None, student, cfg)
    assert with_terms.item() == pytest.approx(plain.item(), abs=1e-12)
    assert with_terms.item() == pytest.approx(comps["cls"], abs=1e-12)


def test_total_loss_recombination_identity(tiny_pool):
    rng = Rng(42)
    xs = rng.normal(size=(10, 2))
    labels = rng.integers(0, 2, size=10)
    student = distill.StudentClassifier(Rng(3))
    cfg = distill.DistillConfig(lambda_cs=0.7, lambda_cf=0.3, lambda_dist=2.0,
                                lambda_cka=0.6)
    canon = canon_rows(tiny_pool, labels, rng)
    total, c = distill.total_loss(xs, labels, *canon, student, cfg)
    manual = (c["cls"] + cfg.lambda_cs * (cfg.lambda_cf * c["align"] +
                                          (1 - cfg.lambda_cf) * c["cluster"])
              + cfg.lambda_dist * c["cka"])
    assert total.item() == pytest.approx(manual, abs=1e-12)


def test_missing_class_raises_named_config_error():
    pool = pool_of([0])
    with pytest.raises(ConfigError, match="class 1"):
        distill.sample_bundles(pool, np.array([0, 1]), Rng(0))


def test_pool_sampling_uniform_per_class(tiny_pool):
    rng = Rng(90)
    labels = np.ones(100, dtype=np.int64)
    counts = {row: 0 for row in np.flatnonzero(tiny_pool.cond == 1).tolist()}
    draws = 1000
    for _ in range(draws):
        for row in distill.sample_bundles(tiny_pool, labels, rng):
            counts[row] += 1
    n = draws * 100
    p = 1.0 / len(counts)
    sigma = math.sqrt(p * (1 - p) / n)
    for row, c in counts.items():
        assert abs(c / n - p) <= 3 * sigma + 1e-9, f"row {row} drawn non-uniformly"


def test_sample_bundles_matches_one_draw_per_element():
    # unequal class sizes, so each element's bound differs from its neighbour's, and
    # classes interleaved, so a class's k-th member is not row k
    cond = [1, 0, 1, 1, 2, 0, 1, 1, 0, 1, 1]
    pool = pool_of(cond)
    members = {c: [i for i, ci in enumerate(cond) if ci == c] for c in (0, 1, 2)}
    labels = Rng(91).integers(0, 3, size=500)
    fast, slow = Rng(92).split("pool"), Rng(92).split("pool")
    for _ in range(3):
        got = distill.sample_bundles(pool, labels, fast)
        want = [members[int(y)][int(slow.integers(0, len(members[int(y)])))] for y in labels]
        assert got == want
        assert all(type(row) is int for row in got)
    assert repr(fast._gen.bit_generator.state) == repr(slow._gen.bit_generator.state)
    assert fast.integers(0, 2**40) == slow.integers(0, 2**40)


# ---------------------------------------------------------------- training


def test_vanilla_student_reaches_95_clean():
    data = toydata.sample_dataset(600, Rng(1).split("data"))
    cfg = distill.DistillConfig(epochs=60)
    student, _ = distill.train_student(data, None, cfg, Rng(0).split("student"))
    held_out = toydata.sample_dataset(500, Rng(99))
    report = distill.evaluate(student, held_out, distill.AttackConfig(), Rng(98))
    assert report.clean_accuracy >= 0.95


def test_training_deterministic(tiny_pool):
    data = toydata.sample_dataset(200, Rng(2).split("data"))
    cfg = distill.DistillConfig(epochs=5)
    s1, log1 = distill.train_student(data, tiny_pool, cfg, Rng(5).split("s"))
    s2, log2 = distill.train_student(data, tiny_pool, cfg, Rng(5).split("s"))
    assert log1 == log2
    for a, b in zip(s1.parameters(), s2.parameters()):
        assert np.array_equal(a.data, b.data)


def test_training_rejects_partial_pool():
    data = toydata.sample_dataset(100, Rng(3).split("data"))
    only_zero = pool_of([0])
    with pytest.raises(ConfigError):
        distill.train_student(data, only_zero, distill.DistillConfig(epochs=1), Rng(0))


# ---------------------------------------------------------------- pgd / evaluate


def zeroed_student():
    s = distill.StudentClassifier(Rng(0))
    for p in s.parameters():
        p.data[...] = 0.0
    return s


def test_pgd_zero_gradient_stays_at_random_start():
    s = zeroed_student()
    x = Rng(1).normal(size=(5, 2))
    y = np.zeros(5, dtype=np.int64)
    atk = distill.AttackConfig(epsilon=0.1, steps=5, step_size=0.05)
    start_rng, attack_rng = Rng(50), Rng(50)
    expected_start = x + start_rng.uniform(-0.1, 0.1, size=x.shape)
    out = distill.pgd_attack(s, x, y, atk, attack_rng)
    assert np.array_equal(out, expected_start)
    assert np.max(np.abs(out - x)) <= 0.1


def test_pgd_single_step_zero_start_is_fgsm(trained_student):
    # one step is FGSM taken from the random start, then clipped to the ball
    x = np.array([[3.5, 0.2], [0.5, -0.1]])
    y = np.array([1, 0])
    atk = distill.AttackConfig(epsilon=0.1, steps=1, step_size=0.1)
    out = distill.pgd_attack(trained_student, x, y, atk, Rng(51))
    start = x + Rng(51).uniform(-0.1, 0.1, size=x.shape)
    x_t = Tensor(start.copy(), requires_grad=True)
    _, logits = trained_student.forward_graph(x_t)
    distill.cross_entropy(logits, y).backward()
    assert np.all(x_t.grad != 0)
    assert np.array_equal(out, np.clip(start + 0.1 * np.sign(x_t.grad), x - 0.1, x + 0.1))


def test_pgd_ball_constraint_1000_trials(trained_student):
    rng = Rng(60)
    atk = distill.AttackConfig(epsilon=0.1, steps=5, step_size=0.05)
    x = rng.normal(size=(1000, 2)) * 2.0 + np.array([2.0, 0.0])
    y = rng.integers(0, 2, size=1000)
    out = distill.pgd_attack(trained_student, x, y, atk, rng)
    assert np.max(np.abs(out - x)) <= 0.1 + 1e-9


def test_pgd_input_gradient_matches_finite_difference(trained_student):
    x0 = np.array([[2.2, 0.3]])
    y = np.array([1])
    x_t = Tensor(x0.copy(), requires_grad=True)
    _, logits = trained_student.forward_graph(x_t)
    distill.cross_entropy(logits, y).backward()

    def f(v):
        _, lg = trained_student.forward_graph(Tensor(v))
        return distill.cross_entropy(lg, y).item()

    for ci, fd in enumerate(central_differences(f, x0, range(2))):
        got = x_t.grad[0, ci]
        assert abs(fd - got) / max(abs(fd), abs(got), 1e-8) <= 1e-4


def test_pgd_matches_tape_oracle_on_trained_student(trained_student):
    rng = Rng(61)
    atk = distill.AttackConfig(epsilon=0.1, steps=5, step_size=0.05)
    x = rng.normal(size=(300, 2)) * 2.0 + np.array([2.0, 0.0])
    y = rng.integers(0, 2, size=300)
    got = distill.pgd_attack(trained_student, x, y, atk, Rng(62))
    want = oracle.pgd_attack(trained_student, x, y, atk, Rng(62))
    assert np.array_equal(got, want)


def test_attack_config_validation(trained_student):
    x = np.zeros((1, 2))
    y = np.zeros(1, dtype=np.int64)
    with pytest.raises(InvalidInputError):
        distill.pgd_attack(trained_student, x, y,
                           distill.AttackConfig(epsilon=0.0), Rng(0))
    with pytest.raises(InvalidInputError):
        distill.pgd_attack(trained_student, x, y,
                           distill.AttackConfig(steps=0), Rng(0))


def test_bayes_rule_student_is_perfect_on_cores():
    xs = [toydata.toy_point(y, u, np.zeros(2)) for y in (0, 1) for u in (-0.1, 0.0, 0.1)]
    assert np.array_equal(toydata.bayes_rule(np.stack(xs)), [0, 0, 0, 1, 1, 1])


def test_random_students_average_half_accuracy():
    data = toydata.sample_dataset(2000, Rng(8).split("data"))
    atk = distill.AttackConfig()
    accs = [distill.evaluate(distill.StudentClassifier(Rng(1000 + i)), data, atk,
                             Rng(2000 + i)).clean_accuracy
            for i in range(40)]
    assert abs(float(np.mean(accs)) - 0.5) <= 0.05


@pytest.fixture(scope="module")
def trained_student():
    data = toydata.sample_dataset(400, Rng(1).split("data"))
    cfg = distill.DistillConfig(epochs=40)
    student, _ = distill.train_student(data, None, cfg, Rng(0).split("student"))
    return student


def test_student_checkpoint_round_trip(trained_student, tmp_path):
    path = str(tmp_path / "student.json")
    distill.save_student(trained_student, path)
    loaded = distill.load_student(path)
    for a, b in zip(trained_student.parameters(), loaded.parameters()):
        assert np.array_equal(a.data, b.data)
    x = Rng(4).normal(size=(5, 2))
    assert np.array_equal(trained_student.predict(x), loaded.predict(x))
