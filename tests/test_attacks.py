import numpy as np
import pytest

from stpafl import attacks
from stpafl.attacks import AttackSpec
from stpafl.data import ClientPool, LabeledDataset


def small_dataset():
    X = np.array([[0.2, -0.3], [0.5, 0.9]])
    y = np.array([1, 2])
    return LabeledDataset(X, y, 3)


def one_client_pool(ds):
    """ds as the rows of client 0, the one client of a pool."""
    return ClientPool.from_partition(ds, [np.arange(len(ds))])


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec("replay")
    with pytest.raises(ValueError):
        AttackSpec("byzantine_gaussian", sigma=-1.0)
    with pytest.raises(ValueError):
        AttackSpec("ipm", epsilon=-0.5)
    with pytest.raises(ValueError):
        AttackSpec("noisy", low=1.0, high=-1.0)


def test_gaussian_sigma_zero():
    w = np.ones(5)
    assert np.array_equal(attacks.gaussian_byzantine_update(w, 0.0, 1), np.zeros(5))


def test_gaussian_statistics():
    # 1e5 draws of a dim-4 vector: per-coordinate mean within 4*sigma/sqrt(N),
    # std within 2% of sigma.
    sigma = 20.0
    draws = np.stack(
        [attacks.gaussian_byzantine_update(np.zeros(4), sigma, seed) for seed in range(100_000)]
    )
    tol = 4.0 * sigma / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0)) < tol)
    assert np.all(np.abs(draws.std(axis=0) - sigma) < 0.02 * sigma)


def test_gaussian_deterministic():
    w = np.zeros(8)
    a = attacks.gaussian_byzantine_update(w, 20.0, 123)
    b = attacks.gaussian_byzantine_update(w, 20.0, 123)
    assert np.array_equal(a, b)


def test_ipm_sign_flip():
    g = np.array([1.0, -2.0, 0.5])
    out = attacks.ipm_updates(np.array([g]), 1.0)
    assert np.array_equal(out, -g)


def test_ipm_epsilon_zero():
    out = attacks.ipm_updates(np.ones((1, 3)), 0.0)
    assert np.array_equal(out, np.zeros(3))


def test_ipm_negative_inner_product_with_mean():
    rng = np.random.default_rng(4)
    for _ in range(20):
        grads = np.stack([rng.standard_normal(6) for _ in range(5)])
        mean = grads.mean(axis=0)
        mal = attacks.ipm_updates(grads, 1.0)
        assert mal @ mean < 0


def test_ipm_empty_benign_set():
    # no honest rows: g = 0, so every malicious client submits w_t
    assert np.array_equal(attacks.ipm_updates(np.empty((0, 3)), 1.0), np.zeros(3))
    w = np.array([1.0, -2.0, 0.5])
    rows = np.full((2, 3), np.nan)
    assert np.array_equal(attacks.submissions(AttackSpec("ipm"), w, rows, [0, 1], None), [w, w])


def test_alie_hand_arithmetic():
    # coords {1, 3}: mean 2, population std 1, so 2 - 1.5*1 = 0.5
    out = attacks.alie_updates(np.array([[1.0], [3.0]]), 1.5)
    assert out[0] == pytest.approx(0.5)


def test_alie_zero_variance():
    g = np.array([2.0, -1.0])
    mal = attacks.alie_updates(np.stack([g, g.copy()]), 1.5)
    assert np.array_equal(mal, g)


def test_alie_population_variance():
    grads = np.array([[x] for x in (0.0, 1.0, 2.0, 3.0)])
    mal = attacks.alie_updates(grads, 1.0)
    # population std of {0,1,2,3} = sqrt(5)/2, not the sample std
    assert mal[0] == pytest.approx(1.5 - np.sqrt(5.0) / 2.0)


@pytest.mark.parametrize("n", [1, 2, 13])
@pytest.mark.parametrize("scale", [1.0, 1e150, 1e160], ids=["unit", "1e150", "1e160"])
@pytest.mark.parametrize("epsilon", [0.0, 1.5])
def test_alie_equals_mean_minus_std_bitwise(n, scale, epsilon):
    # Signed zeros in whole columns, in a column mixing both and in single
    # entries; at 1e160 the squared deviations overflow, so the std is inf.
    # tobytes tells -0.0 from 0.0.
    rng = np.random.default_rng(n)
    G = rng.standard_normal((n, 40)) * scale
    G[:, :4] = [0.0, -0.0, 0.0, -0.0]
    G[:, 2] = -0.0 if n == 1 else np.resize([0.0, -0.0], n)
    G[rng.random((n, 40)) < 0.2] = -0.0
    with np.errstate(over="ignore", invalid="ignore"):
        want = G.mean(axis=0) - epsilon * G.std(axis=0)
        got = attacks.alie_updates(G.copy(), epsilon)
    assert got.tobytes() == want.tobytes()


def test_alie_one_or_no_gradients():
    # one row has sigma 0, so g is that row; no rows give g = 0
    g = np.array([[2.0, -0.0, 1e-300]])
    assert np.array_equal(attacks.alie_updates(g, 1.5), g[0])
    assert np.array_equal(attacks.alie_updates(np.empty((0, 2)), 1.5), np.zeros(2))
    w = np.array([1.0, -2.0])
    rows = np.full((3, 2), np.nan)
    assert np.array_equal(attacks.submissions(AttackSpec("alie"), w, rows, [0, 1, 2], None), [w, w, w])


def test_omniscient_attacks_deterministic():
    rng = np.random.default_rng(9)
    grads = np.stack([rng.standard_normal(4) for _ in range(6)])
    assert np.array_equal(attacks.alie_updates(grads, 1.5), attacks.alie_updates(grads, 1.5))
    assert np.array_equal(attacks.ipm_updates(grads, 1.0), attacks.ipm_updates(grads, 1.0))


def test_apply_data_attack_label_flip():
    pool = one_client_pool(small_dataset())
    attacks.corrupt_pool(AttackSpec("label_flip", target=0), pool, 1, lambda cid: 0)
    (out,) = pool.stacks
    assert np.array_equal(out.labels[0], [0, 0])
    assert np.array_equal(out.features[0], small_dataset().features)


def test_apply_data_attack_noisy_stays_clipped():
    spec = AttackSpec("noisy", low=-1.4, high=1.4, clip_lo=-1.0, clip_hi=1.0)
    pool = one_client_pool(small_dataset())
    attacks.corrupt_pool(spec, pool, 1, lambda cid: 5)
    (out,) = pool.stacks
    assert out.features.min() >= -1.0
    assert out.features.max() <= 1.0
    assert len(out) == 2


@pytest.mark.parametrize("kind", ["none", "byzantine_gaussian", "ipm", "alie"])
def test_corrupt_pool_leaves_other_attacks_alone(kind):
    pool = one_client_pool(small_dataset())
    attacks.corrupt_pool(AttackSpec(kind), pool, 1, lambda cid: 0)
    (out,) = pool.stacks
    assert np.array_equal(out.features[0], small_dataset().features)
    assert np.array_equal(out.labels[0], small_dataset().labels)


def test_corrupt_pool_noise_bounds_and_zero_noise():
    ds = LabeledDataset(np.array([[0.5, -0.5], [1.5, -1.5]]), np.array([0, 0]), 1)
    noisy = one_client_pool(ds)
    spec = AttackSpec("noisy", low=-1.4, high=1.4, clip_lo=-1.0, clip_hi=1.0)
    attacks.corrupt_pool(spec, noisy, 1, lambda cid: 3)
    assert noisy.stacks[0].features.min() >= -1.0 and noisy.stacks[0].features.max() <= 1.0
    clipped = one_client_pool(ds)
    spec = AttackSpec("noisy", low=0.0, high=0.0, clip_lo=-1.0, clip_hi=1.0)
    attacks.corrupt_pool(spec, clipped, 1, lambda cid: 3)
    assert np.array_equal(clipped.stacks[0].features[0], np.clip(ds.features, -1.0, 1.0))


def test_corrupt_pool_flip_labels():
    ds = LabeledDataset(np.zeros((3, 1)), np.array([0, 1, 2]), 3)
    pool = one_client_pool(ds)
    attacks.corrupt_pool(AttackSpec("label_flip", target=0), pool, 1, lambda cid: 0)
    assert np.array_equal(pool.stacks[0].labels[0], [0, 0, 0])
    already = LabeledDataset(np.zeros((2, 1)), np.array([0, 0]), 3)
    pool = one_client_pool(already)
    attacks.corrupt_pool(AttackSpec("label_flip", target=0), pool, 1, lambda cid: 0)
    assert np.array_equal(pool.stacks[0].labels[0], already.labels)


def test_submissions_fill_the_leading_malicious_rows():
    w = np.array([1.0, 2.0])
    trained = np.array([[0.5, 1.0], [1.5, 3.0], [1.0, 0.0]])
    seed_of = lambda cid: 40 + cid
    rows = np.vstack([np.full((2, 2), np.nan), trained])
    gauss = attacks.submissions(AttackSpec("byzantine_gaussian"), w, rows, [0, 3], seed_of)
    assert gauss is rows
    assert np.array_equal(gauss[0], attacks.gaussian_byzantine_update(w, 20.0, 40))
    assert np.array_equal(gauss[1], attacks.gaussian_byzantine_update(w, 20.0, 43))
    assert np.array_equal(gauss[2:], trained)
    rows = np.vstack([np.full((1, 2), np.nan), trained])
    ipm = attacks.submissions(AttackSpec("ipm", epsilon=2.0), w, rows, [1], seed_of)
    assert np.array_equal(ipm[0], w - attacks.ipm_updates(w - trained, 2.0))
    assert np.array_equal(ipm[1:], trained)
    rows = np.vstack([np.full((2, 2), np.nan), trained])
    alie = attacks.submissions(AttackSpec("alie"), w, rows, [0, 1], seed_of)
    assert np.array_equal(alie[0], w - attacks.alie_updates(w - trained, 1.0))
    assert np.array_equal(alie[1], alie[0])
    assert np.array_equal(alie[2:], trained)
    rows = trained.copy()
    assert np.array_equal(attacks.submissions(AttackSpec("alie"), w, rows, [], seed_of), trained)
    assert np.array_equal(attacks.submissions(AttackSpec("label_flip"), w, rows, [0], seed_of), trained)
