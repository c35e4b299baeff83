import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stpafl import aggregation
from stpafl.aggregation import AggregationRule, apply_rule
from stpafl.vectors import ClientUpdate


def mk(models, counts=None):
    models = [np.asarray(m, dtype=np.float64) for m in models]
    if counts is None:
        counts = [1] * len(models)
    return [ClientUpdate(m, c) for m, c in zip(models, counts)]


# ---------------------------------------------------------------- oracles

def median_oracle(X):
    """Sort each coordinate by hand; average the middle pair when even."""
    n, d = X.shape
    out = np.empty(d)
    for j in range(d):
        col = sorted(X[:, j])
        if n % 2:
            out[j] = col[n // 2]
        else:
            out[j] = (col[n // 2 - 1] + col[n // 2]) / 2.0
    return out


def trimmed_oracle(X, gamma):
    n, d = X.shape
    k = int(np.floor(gamma * n))
    out = np.empty(d)
    for j in range(d):
        col = sorted(X[:, j])
        kept = col[k : n - k]
        out[j] = sum(kept) / len(kept)
    return out


def krum_oracle(X, f, m):
    """Exhaustive O(n^2) distance table, then literal score definition."""
    n = len(X)
    scores = []
    for i in range(n):
        dists = sorted(np.linalg.norm(X[i] - X[j]) for j in range(n) if j != i)
        scores.append(sum(dists[: n - f - 2]))
    order = sorted(range(n), key=lambda i: (scores[i], i))
    return order[:m]


def krum_scores_reference(updates, f):
    """Full n x n x d difference tensor, then per-row sorted partial sums."""
    X = np.stack([u.model for u in updates])
    n = X.shape[0]
    diffs = X[:, None, :] - X[None, :, :]
    D = np.sqrt((diffs * diffs).sum(axis=2))
    scores = np.empty(n)
    for k in range(n):
        others = np.delete(D[k], k)
        others.sort()
        scores[k] = others[: n - f - 2].sum()
    return scores


# ---------------------------------------------------------------- fed_avg

def test_fed_avg_single_update_identity():
    u = mk([[1.0, -2.0, 3.0]])
    assert np.array_equal(apply_rule(AggregationRule("fed_avg"), u), u[0].model)


def test_fed_avg_equal_counts():
    out = aggregation.fed_avg(mk([[1.0, 3.0], [3.0, 5.0]]))
    assert np.allclose(out, [2.0, 4.0])


def test_fed_avg_weighted():
    out = aggregation.fed_avg(mk([[0.0], [4.0]], counts=[1, 3]))
    assert np.allclose(out, [3.0])


# ---------------------------------------------------------------- median

def test_median_odd_outlier_robust():
    out = aggregation.coordinate_median(mk([[1.0], [2.0], [100.0]]))
    assert out[0] == 2.0


def test_median_even_count_convention():
    out = aggregation.coordinate_median(mk([[1.0], [3.0]]))
    assert out[0] == 2.0


def test_median_identical_fixpoint():
    u = mk([[1.0, 2.0]] * 5)
    assert np.array_equal(aggregation.coordinate_median(u), u[0].model)


# ---------------------------------------------------------------- trimmed mean

def test_trimmed_mean_drops_extremes():
    out = aggregation.trimmed_mean(mk([[0.0], [1.0], [2.0], [3.0], [1000.0]]), 0.2)
    assert out[0] == 2.0


def test_trimmed_mean_degenerate_trim_is_plain_mean():
    u = mk([[1.0], [2.0], [4.0]])
    out = aggregation.trimmed_mean(u, 0.1)  # floor(0.3) = 0
    assert out[0] == pytest.approx(7.0 / 3.0)


def test_trimmed_mean_gamma_bounds():
    u = mk([[1.0], [2.0]])
    with pytest.raises(ValueError):
        aggregation.trimmed_mean(u, 0.0)
    with pytest.raises(ValueError):
        aggregation.trimmed_mean(u, 0.5)


# ---------------------------------------------------------------- krum

def test_krum_identical_updates():
    u = mk([[2.0, -1.0]] * 5)
    scores = aggregation.krum_scores(u, 1)
    assert np.array_equal(scores, np.zeros(5))
    assert np.array_equal(aggregation.krum(u, 1, 1), u[0].model)


def test_krum_hand_example():
    # 1-D points {0, 0.1, 0.2, 100}, f=1, m=1: each score is the single
    # nearest-neighbor distance; slots 0-2 all score 0.1 but the outlier
    # scores 99.8, and the tie goes to the smallest slot.
    u = mk([[0.0], [0.1], [0.2], [100.0]])
    scores = aggregation.krum_scores(u, 1)
    assert np.allclose(scores, [0.1, 0.1, 0.1, 99.8])
    assert aggregation.krum_selection(u, 1, 1) == [0]
    assert np.array_equal(aggregation.krum(u, 1, 1), np.array([0.0]))


def test_krum_matches_oracle():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, 4))
    u = mk(list(X))
    assert aggregation.krum_selection(u, 2, 3) == krum_oracle(X, 2, 3)


@pytest.mark.parametrize(
    "n, d, f, integer",
    [
        pytest.param(3, 1, 0, False, id="3-1-0"),
        pytest.param(8, 5, 2, False, id="8-5-2"),
        pytest.param(20, 6210, 7, False, id="20-6210-7"),
        pytest.param(30, 210, 9, False, id="30-210-9"),
        # Integer rows: many tied distances and several duplicate rows, with f
        # at both ends of its range [0, n - 3].
        pytest.param(12, 3, 0, True, id="int-12-3-0"),
        pytest.param(12, 3, 9, True, id="int-12-3-9"),
        pytest.param(40, 2, 0, True, id="int-40-2-0"),
        pytest.param(40, 2, 37, True, id="int-40-2-37"),
    ],
)
def test_krum_scores_match_reference(n, d, f, integer):
    rng = np.random.default_rng(n * d)
    if integer:
        X = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        X[[3, 5, 8]] = X[1]
    else:
        X = rng.standard_normal((n, d))
        X[1] = X[0]  # a duplicate gives an exact zero distance
        X *= rng.uniform(0.1, 100.0, size=(n, 1))
    u = mk(list(X))
    got, want = aggregation.krum_scores(u, f), krum_scores_reference(u, f)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_krum_parameter_validation():
    u = mk([[0.0]] * 4)
    with pytest.raises(ValueError):
        aggregation.krum_scores(u, 2)  # n - f - 2 = 0
    with pytest.raises(ValueError):
        aggregation.krum_selection(u, 1, 2)  # m > n - f - 2


# ---------------------------------------------------------------- shared checks

def test_rule_validation():
    with pytest.raises(ValueError):
        AggregationRule("majority_vote")
    with pytest.raises(ValueError):
        AggregationRule("trimmed_mean")  # gamma required
    with pytest.raises(ValueError):
        AggregationRule("krum", f=1)  # m required
    with pytest.raises(ValueError):
        apply_rule(AggregationRule("stpa"), mk([[0.0]]))


def test_empty_and_mismatched_updates_rejected():
    with pytest.raises(ValueError):
        aggregation.fed_avg([])
    bad = [ClientUpdate([1.0], 1), ClientUpdate([1.0, 2.0], 1)]
    with pytest.raises(ValueError):
        aggregation.coordinate_median(bad)


def matrices(bound):
    """(n, d) float64 arrays, n in [1, 12], d in [1, 6], entries in [-bound, bound]."""
    return st.tuples(st.integers(1, 12), st.integers(1, 6)).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(-bound, bound))
    )


@settings(max_examples=60, deadline=None)
@given(matrices(1e6), st.data())
def test_permutation_invariance(X, data):
    perm = np.array(data.draw(st.permutations(range(len(X)))))
    a = aggregation.coordinate_median(mk(list(X)))
    b = aggregation.coordinate_median(mk(list(X[perm])))
    assert np.array_equal(a, b)
    a = aggregation.trimmed_mean(mk(list(X)), 0.2)
    b = aggregation.trimmed_mean(mk(list(X[perm])), 0.2)
    assert np.allclose(a, b, rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(matrices(1e3), st.data())
def test_translation_equivariance(X, data):
    c = data.draw(hnp.arrays(np.float64, X.shape[1], elements=st.floats(-1e3, 1e3)))
    for rule in (aggregation.coordinate_median, lambda u: aggregation.trimmed_mean(u, 0.2)):
        assert np.allclose(rule(mk(list(X + c))), rule(mk(list(X))) + c)


@st.composite
def rows_with_duplicates(draw):
    """(n, d) arrays, n in [1, 40], whose rows repeat a few drawn rows.

    Entries mix signed zeros, +-1e300 (a middle pair can overflow to inf) and
    ordinary floats.
    """
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    values = st.sampled_from([0.0, -0.0, 1e300, -1e300, 1.0, -1.0]) | st.floats(-1e300, 1e300)
    distinct = draw(hnp.arrays(np.float64, (draw(st.integers(1, n)), d), elements=values))
    picks = draw(hnp.arrays(np.int64, n, elements=st.integers(0, len(distinct) - 1)))
    return distinct[picks]


@settings(max_examples=150, deadline=None)
@given(rows_with_duplicates())
def test_median_equals_numpy_median_bitwise(X):
    with np.errstate(over="ignore"):
        got = aggregation.coordinate_median(mk(list(X)))
        want = np.median(X, axis=0)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_median_breakdown_against_minority_outliers():
    # 3 coordinated outliers out of 7 cannot move the coordinate median
    # outside the honest range.
    honest = [[1.0], [1.1], [0.9], [1.05]]
    u = mk(honest + [[1e6]] * 3)
    out = aggregation.coordinate_median(u)
    assert 0.9 <= out[0] <= 1.1


def test_random_instances_match_oracles():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(3, 15))
        d = int(rng.integers(1, 10))
        X = rng.standard_normal((n, d))
        u = mk(list(X))
        assert np.array_equal(aggregation.coordinate_median(u), median_oracle(X))
        gamma = float(rng.uniform(0.05, 0.45))
        if n - 2 * int(np.floor(gamma * n)) >= 1:
            got = aggregation.trimmed_mean(u, gamma)
            want = trimmed_oracle(X, gamma)
            assert np.allclose(got, want, rtol=0, atol=1e-12)
