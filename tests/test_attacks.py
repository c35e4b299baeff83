import numpy as np
import pytest

from stpafl import attacks
from stpafl.attacks import AttackSpec
from stpafl.data import LabeledDataset


def small_dataset():
    X = np.array([[0.2, -0.3], [0.5, 0.9]])
    y = np.array([1, 2])
    return LabeledDataset(X, y, 3)


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
    out = attacks.ipm_updates([g], 1.0, 2)
    assert len(out) == 2
    assert np.array_equal(out[0], -g)
    assert np.array_equal(out[1], -g)


def test_ipm_epsilon_zero():
    out = attacks.ipm_updates([np.ones(3)], 0.0, 1)
    assert np.array_equal(out[0], np.zeros(3))


def test_ipm_negative_inner_product_with_mean():
    rng = np.random.default_rng(4)
    for _ in range(20):
        grads = [rng.standard_normal(6) for _ in range(5)]
        mean = np.stack(grads).mean(axis=0)
        (mal,) = attacks.ipm_updates(grads, 1.0, 1)
        assert mal @ mean < 0


def test_ipm_empty_benign_set():
    with pytest.raises(ValueError):
        attacks.ipm_updates([], 1.0, 1)


def test_alie_hand_arithmetic():
    # coords {1, 3}: mean 2, population std 1, so 2 - 1.5*1 = 0.5
    out = attacks.alie_updates([np.array([1.0]), np.array([3.0])], 1.5, 3)
    assert len(out) == 3
    for g in out:
        assert g[0] == pytest.approx(0.5)


def test_alie_zero_variance():
    g = np.array([2.0, -1.0])
    (mal,) = attacks.alie_updates([g, g.copy()], 1.5, 1)
    assert np.array_equal(mal, g)


def test_alie_population_variance():
    grads = [np.array([x]) for x in (0.0, 1.0, 2.0, 3.0)]
    (mal,) = attacks.alie_updates(grads, 1.0, 1)
    # population std of {0,1,2,3} = sqrt(5)/2, not the sample std
    assert mal[0] == pytest.approx(1.5 - np.sqrt(5.0) / 2.0)


def test_alie_needs_two_gradients():
    with pytest.raises(ValueError):
        attacks.alie_updates([np.ones(2)], 1.5, 1)


def test_omniscient_attacks_deterministic():
    rng = np.random.default_rng(9)
    grads = [rng.standard_normal(4) for _ in range(6)]
    assert np.array_equal(attacks.alie_updates(grads, 1.5, 2)[0], attacks.alie_updates(grads, 1.5, 2)[0])
    assert np.array_equal(attacks.ipm_updates(grads, 1.0, 2)[0], attacks.ipm_updates(grads, 1.0, 2)[0])


def test_apply_data_attack_label_flip():
    out = attacks.apply_data_attack(AttackSpec("label_flip", target=0), small_dataset())
    assert np.array_equal(out.labels, [0, 0])
    assert np.array_equal(out.features, small_dataset().features)


def test_apply_data_attack_noisy_stays_clipped():
    spec = AttackSpec("noisy", low=-1.4, high=1.4, clip_lo=-1.0, clip_hi=1.0)
    out = attacks.apply_data_attack(spec, small_dataset(), seed=5)
    assert out.features.min() >= -1.0
    assert out.features.max() <= 1.0
    assert len(out) == 2


def test_apply_data_attack_rejects_model_attacks():
    with pytest.raises(ValueError):
        attacks.apply_data_attack(AttackSpec("ipm"), small_dataset())


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
    assert np.array_equal(ipm[0], w - attacks.ipm_updates(list(w - trained), 2.0, 1)[0])
    assert np.array_equal(ipm[1:], trained)
    rows = trained.copy()
    assert np.array_equal(attacks.submissions(AttackSpec("alie"), w, rows, [], seed_of), trained)
    assert np.array_equal(attacks.submissions(AttackSpec("label_flip"), w, rows, [0], seed_of), trained)
