import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stpafl import aggregation
from stpafl.aggregation import AggregationRule, ClientUpdate, apply_rule


def mk(models, counts=None):
    """The (n, d) submissions and their sample counts (1 each by default)."""
    X = np.array(models, dtype=np.float64)
    if counts is None:
        counts = [1] * len(X)
    return X, np.array(counts, dtype=np.int64)


def as_updates(X):
    """krum_scores' list form of the rows of X."""
    return [ClientUpdate(x) for x in X]


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


def krum_scores_reference(X, f):
    """Full n x n x d difference tensor, then per-row sorted partial sums."""
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
    X, counts = mk([[1.0, -2.0, 3.0]])
    assert np.array_equal(apply_rule(AggregationRule("fed_avg"), X, counts), X[0])


def test_fed_avg_equal_counts():
    out = aggregation.fed_avg(*mk([[1.0, 3.0], [3.0, 5.0]]))
    assert np.allclose(out, [2.0, 4.0])


def test_fed_avg_weighted():
    out = aggregation.fed_avg(*mk([[0.0], [4.0]], counts=[1, 3]))
    assert np.allclose(out, [3.0])


# ---------------------------------------------------------------- median

def test_median_odd_outlier_robust():
    out = aggregation.coordinate_median(mk([[1.0], [2.0], [100.0]])[0])
    assert out[0] == 2.0


def test_median_even_count_convention():
    out = aggregation.coordinate_median(mk([[1.0], [3.0]])[0])
    assert out[0] == 2.0


def test_median_identical_fixpoint():
    X, _ = mk([[1.0, 2.0]] * 5)
    assert np.array_equal(aggregation.coordinate_median(X), X[0])


# ---------------------------------------------------------------- trimmed mean

def test_trimmed_mean_drops_extremes():
    out = aggregation.trimmed_mean(mk([[0.0], [1.0], [2.0], [3.0], [1000.0]])[0], 0.2)
    assert out[0] == 2.0


def test_trimmed_mean_degenerate_trim_is_plain_mean():
    X, _ = mk([[1.0], [2.0], [4.0]])
    out = aggregation.trimmed_mean(X, 0.1)  # floor(0.3) = 0
    assert out[0] == pytest.approx(7.0 / 3.0)


def test_trimmed_mean_gamma_bounds():
    X, _ = mk([[1.0], [2.0]])
    with pytest.raises(ValueError):
        aggregation.trimmed_mean(X, 0.0)
    with pytest.raises(ValueError):
        aggregation.trimmed_mean(X, 0.5)


# ---------------------------------------------------------------- krum

def test_krum_identical_updates():
    X, _ = mk([[2.0, -1.0]] * 5)
    scores = aggregation.krum_scores(as_updates(X), 1)
    assert np.array_equal(scores, np.zeros(5))
    assert np.array_equal(aggregation.krum(X, 1, 1), X[0])


def test_krum_hand_example():
    # 1-D points {0, 0.1, 0.2, 100}, f=1, m=1: each score is the single
    # nearest-neighbor distance; slots 0-2 all score 0.1 but the outlier
    # scores 99.8, and the tie goes to the smallest slot.
    X, _ = mk([[0.0], [0.1], [0.2], [100.0]])
    scores = aggregation.krum_scores(as_updates(X), 1)
    assert np.allclose(scores, [0.1, 0.1, 0.1, 99.8])
    assert aggregation.krum_selection(X, 1, 1) == [0]
    assert np.array_equal(aggregation.krum(X, 1, 1), np.array([0.0]))


def test_krum_matches_oracle():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, 4))
    assert aggregation.krum_selection(X, 2, 3) == krum_oracle(X, 2, 3)


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
    got, want = aggregation.krum_scores(as_updates(X), f), krum_scores_reference(X, f)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # An unsorted subset whose first row is in the last peer block.
    rows = [n - 1, 0, 1]
    partial = aggregation.krum_scores(as_updates(X), f, rows)
    assert np.array_equal(partial[rows], want[rows])
    assert np.array_equal(np.signbit(partial[rows]), np.signbit(want[rows]))
    assert np.all(np.delete(partial, rows) == np.inf)


def test_client_update_dim():
    # The benchmark tracer sizes krum_scores' work from updates[0].dim.
    assert ClientUpdate(np.array([1.0, 2.0])).dim == 2


def test_krum_parameter_validation():
    X, _ = mk([[0.0]] * 4)
    with pytest.raises(ValueError):
        aggregation.krum_scores(as_updates(X), 2)  # n - f - 2 = 0
    with pytest.raises(ValueError):
        aggregation.krum_selection(X, 1, 2)  # m > n - f - 2


@st.composite
def krum_inputs(draw):
    """(X, f) where Gram-product scores alone can misorder or overflow.

    "ulps": copies of one row moved by a few ulps, so every distance is far
    below the product's rounding. "integer": duplicate small-integer rows with
    f at either end of [0, n - 3]. "huge": small integers times 1e160 or 1e300,
    moved by a relative 1e-9, where the product overflows.
    """
    kind = draw(st.sampled_from(["ulps", "integer", "huge"]))
    n, d = draw(st.integers(3, 12)), draw(st.integers(1, 8))
    small = hnp.arrays(np.int64, (n, d), elements=st.integers(-3, 3))
    if kind == "ulps":
        base = draw(hnp.arrays(np.float64, d, elements=st.floats(-1e6, 1e6)))
        X = base + np.spacing(base) * draw(small)
    elif kind == "integer":
        X = draw(small).astype(np.float64)
        X[draw(hnp.arrays(np.int64, n // 2, elements=st.integers(0, n - 1)))] = X[0]
    else:
        X = draw(st.sampled_from([1e160, 1e300])) * (draw(small) + 1e-9 * draw(small))
    f = draw(st.sampled_from([0, n - 3]) if kind == "integer" else st.integers(0, n - 3))
    return X, f


@settings(max_examples=150, deadline=None)
@given(krum_inputs(), st.data())
def test_krum_selection_equals_exact_order(Xf, data):
    X, f = Xf
    n = len(X)
    with np.errstate(over="ignore", invalid="ignore"):  # the exact codes overflow on huge rows
        want = krum_scores_reference(X, f)
        rows = data.draw(st.lists(st.integers(0, n - 1), unique=True).map(sorted))
        partial = aggregation.krum_scores(as_updates(X), f, rows)
        for m in range(1, n - f - 1):
            assert aggregation.krum_selection(X, f, m) == np.argsort(want, kind="stable")[:m].tolist()
    assert np.array_equal(partial[rows], want[rows])
    assert np.all(np.delete(partial, rows) == np.inf)


def test_krum_selection_rescores_only_rows_it_cannot_rule_out(monkeypatch):
    # Rows at clearly different scales have well-separated scores, so the
    # Gram bounds leave exactly the m best rows to be scored exactly.
    scored = []
    exact = aggregation.krum_scores

    def spy(updates, f, rows=None):
        scored.append(len(rows))
        return exact(updates, f, rows)

    monkeypatch.setattr(aggregation, "krum_scores", spy)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 6210)) * np.linspace(1.0, 3.0, 20)[:, None]
    for m in (1, 3):
        assert aggregation.krum_selection(X, 4, m) == krum_oracle(X, 4, m)
    assert scored == [1, 3]


def test_krum_selection_copies_no_submissions():
    X = np.random.default_rng(6).standard_normal((20, 6210))
    aggregation.krum_selection(X, 4, 2)
    tracemalloc.start()
    try:
        aggregation.krum_selection(X, 4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes


def test_krum_selection_on_overflowing_products_warns_nothing():
    # The Gram product overflows at this scale; the distances do not.
    rng = np.random.default_rng(8)
    X = 1e160 * (1 + 1e-9 * rng.standard_normal((10, 50)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = aggregation.krum_selection(X, 2, 3)
    assert got == np.argsort(krum_scores_reference(X, 2), kind="stable")[:3].tolist()


# ---------------------------------------------------------------- shared checks

def test_rule_validation():
    with pytest.raises(ValueError):
        AggregationRule("majority_vote")
    with pytest.raises(ValueError):
        AggregationRule("trimmed_mean")  # gamma required
    with pytest.raises(ValueError):
        AggregationRule("krum", f=1)  # m required
    with pytest.raises(ValueError):
        apply_rule(AggregationRule("stpa"), *mk([[0.0]]))


def test_empty_and_mismatched_updates_rejected():
    with pytest.raises(ValueError):
        aggregation.fed_avg(np.empty((0, 1)), np.empty(0, dtype=np.int64))


def matrices(bound):
    """(n, d) float64 arrays, n in [1, 12], d in [1, 6], entries in [-bound, bound]."""
    return st.tuples(st.integers(1, 12), st.integers(1, 6)).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(-bound, bound))
    )


@settings(max_examples=60, deadline=None)
@given(matrices(1e6), st.data())
def test_permutation_invariance(X, data):
    perm = np.array(data.draw(st.permutations(range(len(X)))))
    a = aggregation.coordinate_median(X)
    b = aggregation.coordinate_median(X[perm])
    assert np.array_equal(a, b)
    a = aggregation.trimmed_mean(X, 0.2)
    b = aggregation.trimmed_mean(X[perm], 0.2)
    assert np.allclose(a, b, rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(matrices(1e3), st.data())
def test_translation_equivariance(X, data):
    c = data.draw(hnp.arrays(np.float64, X.shape[1], elements=st.floats(-1e3, 1e3)))
    for rule in (aggregation.coordinate_median, lambda u: aggregation.trimmed_mean(u, 0.2)):
        assert np.allclose(rule(X + c), rule(X) + c)


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
        got = aggregation.coordinate_median(X)
        want = np.median(X, axis=0)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_median_breakdown_against_minority_outliers():
    # 3 coordinated outliers out of 7 cannot move the coordinate median
    # outside the honest range.
    honest = [[1.0], [1.1], [0.9], [1.05]]
    X, _ = mk(honest + [[1e6]] * 3)
    out = aggregation.coordinate_median(X)
    assert 0.9 <= out[0] <= 1.1


def test_random_instances_match_oracles():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(3, 15))
        d = int(rng.integers(1, 10))
        X = rng.standard_normal((n, d))
        assert np.array_equal(aggregation.coordinate_median(X), median_oracle(X))
        gamma = float(rng.uniform(0.05, 0.45))
        if n - 2 * int(np.floor(gamma * n)) >= 1:
            got = aggregation.trimmed_mean(X, gamma)
            want = trimmed_oracle(X, gamma)
            assert np.allclose(got, want, rtol=0, atol=1e-12)
