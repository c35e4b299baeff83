import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpafl import stpa
from stpafl.aggregation import AggregationRule
from stpafl.stpa import StpaConfig, cosine_similarity


def stacked(models):
    """The (n, d) submissions of the given models, and a sample count of 1 each."""
    X = np.array(models, dtype=np.float64)
    return X, np.ones(len(X), dtype=np.int64)


def mk(w_t, deltas):
    """Submissions whose pseudo-gradients w_t - x equal the given deltas, with their counts."""
    return stacked([w_t - d for d in deltas])


def planted_affinity(rng, sizes, within, cross):
    """Affinity matrix with two blocks at the given similarity levels."""
    n = sum(sizes)
    labels = np.array([0] * sizes[0] + [1] * sizes[1])
    perm = rng.permutation(n)
    labels = labels[perm]
    S = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            S[i, j] = within if labels[i] == labels[j] else cross
    np.fill_diagonal(S, 1.0)
    return S, labels


def minmax_bipartition_oracle(S):
    """Exhaustive search for the 2-split minimizing the max within-cluster
    distance 1 - s. Feasible for n <= 12."""
    n = S.shape[0]
    D = 1.0 - S
    best = None
    best_val = np.inf
    for bits in range(1, 2 ** (n - 1)):
        c1 = tuple(i for i in range(n) if bits >> i & 1)
        c2 = tuple(i for i in range(n) if not bits >> i & 1)
        val = 0.0
        for c in (c1, c2):
            for a, b in itertools.combinations(c, 2):
                val = max(val, D[a, b])
        if val < best_val:
            best_val = val
            best = (c1, c2)
    return frozenset([frozenset(best[0]), frozenset(best[1])])


def pairwise_affinity_reference(w_t, X):
    """One scalar cosine_similarity call per pair, diagonal 1."""
    deltas = [w_t - x for x in X]
    n = len(deltas)
    S = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            S[i, j] = S[j, i] = cosine_similarity(deltas[i], deltas[j])
    return S


def bipartition_reference(S):
    """Literal O(n^3) complete linkage: rescan every live cluster pair for the
    smallest (distance, min slot, min slot) key and shrink D after each merge."""
    n = S.shape[0]
    clusters = [(i,) for i in range(n)]
    D = 1.0 - S.astype(np.float64)
    np.fill_diagonal(D, np.inf)
    while len(clusters) > 2:
        m = len(clusters)
        best_key = None
        best_pair = None
        for a in range(m):
            for b in range(a + 1, m):
                key = (D[a, b], clusters[a][0], clusters[b][0])
                if best_key is None or key < best_key:
                    best_key = key
                    best_pair = (a, b)
        a, b = best_pair
        merged = tuple(sorted(clusters[a] + clusters[b]))
        new_row = np.maximum(D[a], D[b])
        keep = [i for i in range(m) if i != b]
        D = D[np.ix_(keep, keep)]
        row = np.delete(new_row, b)
        D[a, :] = row
        D[:, a] = row
        D[a, a] = np.inf
        clusters = [merged if i == a else clusters[i] for i in keep]
    return clusters[0], clusters[1]


def random_affinity(rng, n, levels=None):
    """Symmetric S with unit diagonal; levels > 0 quantises it to force ties."""
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    if levels:
        A = np.round(A * levels) / levels
    S = np.triu(A, 1)
    S = S + S.T
    np.fill_diagonal(S, 1.0)
    return S


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        StpaConfig(s_t=1.0)
    with pytest.raises(ValueError):
        StpaConfig(beta=1.0)
    with pytest.raises(ValueError):
        StpaConfig(eta0=0.0)
    with pytest.raises(ValueError):
        StpaConfig(inner_rule=AggregationRule("stpa"))


# ---------------------------------------------------------------- cosine

def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity(np.ones(2), np.ones(3))


def test_cosine_parallel():
    assert cosine_similarity(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_antiparallel():
    assert cosine_similarity(np.array([1.0, 2.0]), np.array([-1.0, -2.0])) == pytest.approx(-1.0)


def test_cosine_zero_norm_convention():
    assert cosine_similarity(np.zeros(2), np.array([1.0, 1.0])) == 0.0
    assert cosine_similarity(np.array([1.0, 1.0]), np.zeros(2)) == 0.0
    tiny = np.full(2, 1e-13)
    assert cosine_similarity(tiny, np.array([1.0, 1.0])) == 0.0


def test_cosine_clipped_to_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        assert -1.0 <= cosine_similarity(a, b) <= 1.0


# ---------------------------------------------------------------- affinity

def test_affinity_identical_models():
    w_t = np.array([1.0, 2.0])
    u = np.array([0.0, 1.0])
    X, _ = stacked([u] * 4)
    S = stpa.build_affinity(w_t, X)
    assert np.allclose(S, np.ones((4, 4)))


def test_affinity_antiparallel_blocks():
    w_t = np.zeros(3)
    g = np.array([1.0, -1.0, 2.0])
    X, _ = mk(w_t, [g, 2 * g, -g, -0.5 * g])
    S = stpa.build_affinity(w_t, X)
    want = np.array(
        [
            [1.0, 1.0, -1.0, -1.0],
            [1.0, 1.0, -1.0, -1.0],
            [-1.0, -1.0, 1.0, 1.0],
            [-1.0, -1.0, 1.0, 1.0],
        ]
    )
    assert np.allclose(S, want)


def test_affinity_zero_pseudo_gradient_row():
    w_t = np.array([1.0, 1.0])
    X, _ = stacked(
        [
            w_t,  # reports exactly w_t
            np.array([0.0, 0.0]),
            np.array([2.0, 2.0]),
        ]
    )
    S = stpa.build_affinity(w_t, X)
    assert S[0, 1] == 0.0 and S[0, 2] == 0.0
    assert S[0, 0] == 1.0


def test_affinity_scale_invariance():
    rng = np.random.default_rng(2)
    w_t = rng.standard_normal(6)
    deltas = [rng.standard_normal(6) for _ in range(5)]
    S1 = stpa.build_affinity(w_t, mk(w_t, deltas)[0])
    S2 = stpa.build_affinity(w_t, mk(w_t, [3.5 * d for d in deltas])[0])
    assert np.allclose(S1, S2)


@pytest.mark.parametrize(
    "n, zero_rows", [(2, ()), (2, (1,)), (7, (0, 4)), (40, ()), (100, (3,)), (4, (2,)), (5, (1,))]
)
def test_affinity_matches_pairwise_cosine(n, zero_rows):
    rng = np.random.default_rng(n)
    w_t = rng.standard_normal(210)
    deltas = rng.standard_normal((n, 210)) * rng.uniform(1e-3, 1e3, size=(n, 1))
    deltas[list(zero_rows)] *= 1e-20  # nonzero, but below ZERO_NORM_EPS
    X, _ = mk(w_t, list(deltas))
    S = stpa.build_affinity(w_t, X)
    want = pairwise_affinity_reference(w_t, X)
    assert np.max(np.abs(S - want)) <= 4e-15
    assert np.array_equal(S, S.T)
    for i in zero_rows:
        assert np.count_nonzero(S[i]) == 1 and S[i, i] == 1.0


def test_affinity_of_huge_finite_rows():
    # The squared norms of these rows overflow to inf, so they become zero
    # rows: similarity 0 to every other row, and no NaN anywhere in S.
    rng = np.random.default_rng(0)
    w_t = rng.standard_normal(210)
    deltas = rng.standard_normal((20, 210))
    huge = [0, 7, 13]
    deltas[huge] *= 1e160
    X, _ = mk(w_t, list(deltas))
    S = stpa.build_affinity(w_t, X)
    assert np.isfinite(S).all() and np.array_equal(S, S.T)
    assert np.array_equal(np.diag(S), np.ones(20))
    for i in huge:
        assert np.count_nonzero(S[i]) == 1
    rest = np.setdiff1d(np.arange(20), huge)
    want = pairwise_affinity_reference(w_t, X[rest])
    assert np.max(np.abs(S[np.ix_(rest, rest)] - want)) <= 4e-15


@pytest.mark.parametrize(
    "n, copies, d, attack",
    [(5, 2, 33, "ipm"), (20, 4, 33, "alie"), (20, 6, 6210, "ipm"), (100, 20, 210, "alie"), (100, 30, 210, "ipm")],
)
def test_duplicate_rows_partition_matches_pairwise(n, copies, d, attack):
    # ALIE and IPM attackers submit identical models, so S has exact ties
    # among their rows; the Gram path may round those copies differently.
    rng = np.random.default_rng(n + copies)
    w_t = rng.standard_normal(d)
    deltas = rng.standard_normal(d) + rng.standard_normal((n, d))
    if attack == "ipm":
        malicious = -0.5 * deltas.mean(axis=0)
    else:
        malicious = deltas.mean(axis=0) - deltas.std(axis=0)
    slots = rng.choice(n, copies, replace=False)
    deltas[slots] = malicious
    benign = np.setdiff1d(np.arange(n), slots)
    deltas[benign[1]] = deltas[benign[0]]  # and one duplicated benign pair
    X, _ = mk(w_t, list(deltas))
    S = stpa.build_affinity(w_t, X)
    want = pairwise_affinity_reference(w_t, X)
    c1, c2 = stpa.bipartition(S)
    assert (c1, c2) == bipartition_reference(want)
    assert set(slots.tolist()) <= set(c1) or set(slots.tolist()) <= set(c2)
    assert stpa.partition_round(S, 0.02).benign == stpa.partition_round(want, 0.02).benign


# ---------------------------------------------------------------- bipartition

def test_bipartition_two_slots():
    S = np.array([[1.0, 0.3], [0.3, 1.0]])
    assert stpa.bipartition(S) == ((0,), (1,))


def test_bipartition_two_clean_blocks():
    S = np.array(
        [
            [1.0, 1.0, -1.0, -1.0],
            [1.0, 1.0, -1.0, -1.0],
            [-1.0, -1.0, 1.0, 1.0],
            [-1.0, -1.0, 1.0, 1.0],
        ]
    )
    assert stpa.bipartition(S) == ((0, 1), (2, 3))


def test_bipartition_planted_blocks():
    rng = np.random.default_rng(0)
    S, labels = planted_affinity(rng, (13, 7), 0.9, -0.5)
    c1, c2 = stpa.bipartition(S)
    got = frozenset([frozenset(c1), frozenset(c2)])
    want = frozenset(
        [
            frozenset(np.flatnonzero(labels == 0).tolist()),
            frozenset(np.flatnonzero(labels == 1).tolist()),
        ]
    )
    assert got == want


def test_bipartition_matches_exhaustive_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n1 = int(rng.integers(2, 7))
        n2 = int(rng.integers(2, 6))
        within = float(rng.uniform(0.6, 0.95))
        cross = float(rng.uniform(-0.6, 0.1))
        S, _ = planted_affinity(rng, (n1, n2), within, cross)
        # jitter off-diagonal entries without closing the separation gap
        noise = rng.uniform(-0.02, 0.02, size=S.shape)
        noise = (noise + noise.T) / 2
        np.fill_diagonal(noise, 0.0)
        S = S + noise
        c1, c2 = stpa.bipartition(S)
        got = frozenset([frozenset(c1), frozenset(c2)])
        assert got == minmax_bipartition_oracle(S)


@pytest.mark.parametrize("levels", [None, 2, 4])
def test_bipartition_matches_reference(levels):
    rng = np.random.default_rng(17 + (levels or 0))
    for n in [2, 3, 4, 5, 8, 13, 21, 34, 100]:
        S = random_affinity(rng, n, levels)
        assert stpa.bipartition(S) == bipartition_reference(S)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=24).flatmap(
        lambda n: st.lists(
            st.sampled_from([-1.0, -0.5, 0.0, 0.02, 0.5, 1.0]) | st.floats(-1.0, 1.0),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        ).map(lambda upper: (n, upper))
    ),
    st.floats(-1.0, 1.0),
)
def test_bipartition_is_ordered_partition(case, s_t):
    n, upper = case
    S = np.zeros((n, n))
    S[np.triu_indices(n, 1)] = upper
    S = S + S.T
    np.fill_diagonal(S, 1.0)
    c1, c2 = stpa.bipartition(S)
    assert c1 and c2
    assert list(c1) == sorted(c1) and list(c2) == sorted(c2)
    assert sorted(c1 + c2) == list(range(n))
    assert c1[0] < c2[0]
    # The Krum inner-rule parse check relies on this lower bound.
    assert len(stpa.partition_round(S, s_t).benign) >= n // 2 + 1


# ---------------------------------------------------------------- split decision

def test_split_keeps_larger_cluster():
    S, labels = planted_affinity(np.random.default_rng(1), (13, 7), 0.9, -1.0)
    c1 = tuple(np.flatnonzero(labels == 0))
    c2 = tuple(np.flatnonzero(labels == 1))
    cross = stpa.cross_similarity(S, c1, c2)
    benign = stpa.split_decision(cross, c1, c2, 0.02)
    assert benign == tuple(sorted(c1))


def test_split_union_when_cross_high():
    S, labels = planted_affinity(np.random.default_rng(2), (3, 2), 0.9, 0.5)
    c1 = tuple(np.flatnonzero(labels == 0))
    c2 = tuple(np.flatnonzero(labels == 1))
    cross = stpa.cross_similarity(S, c1, c2)
    assert stpa.split_decision(cross, c1, c2, 0.02) == (0, 1, 2, 3, 4)


def test_split_boundary_is_strict():
    S, labels = planted_affinity(np.random.default_rng(3), (3, 2), 0.9, 0.02)
    c1 = tuple(np.flatnonzero(labels == 0))
    c2 = tuple(np.flatnonzero(labels == 1))
    cross = stpa.cross_similarity(S, c1, c2)
    assert stpa.split_decision(cross, c1, c2, 0.02) == (0, 1, 2, 3, 4)


def test_split_equal_sizes_keep_union():
    S, labels = planted_affinity(np.random.default_rng(4), (3, 3), 0.9, -0.8)
    c1 = tuple(np.flatnonzero(labels == 0))
    c2 = tuple(np.flatnonzero(labels == 1))
    cross = stpa.cross_similarity(S, c1, c2)
    assert stpa.split_decision(cross, c1, c2, 0.02) == (0, 1, 2, 3, 4, 5)


# ---------------------------------------------------------------- momentum

def test_momentum_first_round():
    g = np.array([2.0, -4.0])
    out = stpa.momentum_step(np.zeros(2), g, 0.5)
    assert np.allclose(out, 0.5 * g)


def test_momentum_no_memory():
    g = np.array([1.0, 1.0])
    state = np.array([9.0, 9.0])
    assert np.allclose(stpa.momentum_step(state, g, 0.0), g)


@pytest.mark.parametrize("T", range(1, 11))
def test_momentum_geometric_closed_form(T):
    g = np.array([3.0, -1.0, 0.5])
    state = np.zeros(3)
    for _ in range(T):
        state = stpa.momentum_step(state, g, 0.5)
    assert np.allclose(state, (1.0 - 0.5**T) * g, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- adaptive update

def test_adaptive_full_step_when_parallel():
    w_t = np.array([1.0, 1.0])
    v = np.array([0.2, -0.4])
    out = stpa.adaptive_update(w_t, v, 3.0 * v, 1.0, 1)
    assert out.alpha == pytest.approx(1.0)
    assert not out.discarded
    assert np.allclose(out.new_model, w_t - v)


def test_adaptive_discard_when_orthogonal():
    w_t = np.array([1.0, 1.0])
    out = stpa.adaptive_update(w_t, np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1.0, 1)
    assert out.alpha == 0.0
    assert out.discarded
    assert np.array_equal(out.new_model, w_t)


def test_adaptive_discard_on_zero_delta():
    w_t = np.array([2.0, 2.0])
    out = stpa.adaptive_update(w_t, np.ones(2), np.zeros(2), 1.0, 1)
    assert out.alpha == 0.0 and out.discarded


# ---------------------------------------------------------------- full round

def test_round_identical_models_hand_composed():
    # all clients report u != w_t: no split, median = u, delta = w_t - u,
    # v = 0.5 delta, alpha = 1, so w1 = w_t - 0.5 (w_t - u)
    w_t = np.array([2.0, 0.0, -2.0])
    u = np.array([1.0, 1.0, 1.0])
    X, counts = stacked([u] * 5)
    outcome, state = stpa.stpa_round(w_t, X, counts, np.zeros(3), StpaConfig())
    assert outcome.benign_count == 5
    assert outcome.alpha == pytest.approx(1.0)
    assert np.allclose(outcome.new_model, w_t - 0.5 * (w_t - u))
    assert np.allclose(state, 0.5 * (w_t - u))


def test_round_discard_advances_momentum():
    # choose prior v so the updated v anti-correlates with delta_w
    w_t = np.zeros(2)
    u = np.array([-1.0, -1.0])  # delta_w = w_t - u = (1, 1)
    delta = w_t - u
    prior = -4.0 * delta
    X, counts = stacked([u] * 3)
    outcome, state = stpa.stpa_round(w_t, X, counts, prior, StpaConfig())
    assert outcome.discarded
    assert outcome.alpha == pytest.approx(-1.0)
    assert np.array_equal(outcome.new_model, w_t)
    # v = 0.5 * (-4 delta) + 0.5 * delta = -1.5 delta, carried forward
    assert np.allclose(state, -1.5 * delta)


@pytest.mark.parametrize("prior_scale, discarded", [(1.0, False), (-4.0, True)])
def test_round_leaves_inputs_unchanged(prior_scale, discarded):
    # the prior v sets the gate: along the median step it accepts, against
    # it it discards
    rng = np.random.default_rng(23)
    w_t = rng.standard_normal(6)
    direction = rng.standard_normal(6)
    deltas = [direction + 0.1 * rng.standard_normal(6) for _ in range(5)]
    deltas += [-direction + 0.1 * rng.standard_normal(6) for _ in range(3)]
    X, counts = mk(w_t, deltas)
    v = prior_scale * direction
    before = [a.tobytes() for a in (w_t, v, X)]
    outcome, new_v = stpa.stpa_round(w_t, X, counts, v, StpaConfig())
    assert outcome.discarded is discarded
    assert new_v is not v
    assert [a.tobytes() for a in (w_t, v, X)] == before


def test_round_single_update():
    w_t = np.array([1.0, 0.0])
    X, counts = stacked([np.array([0.0, 0.0])])
    outcome, _ = stpa.stpa_round(w_t, X, counts, np.zeros(2), StpaConfig())
    assert outcome.benign_count == 1
    assert np.allclose(outcome.new_model, w_t - 0.5 * (w_t - X[0]))


def test_round_filters_coordinated_attackers():
    # 13 tightly clustered honest pseudo-gradients vs 7 attackers pushing
    # roughly the opposite direction: cross-similarity is clearly negative,
    # so the benign set is exactly the honest majority.
    rng = np.random.default_rng(21)
    dim = 30
    w_t = rng.standard_normal(dim)
    honest_dir = rng.standard_normal(dim)
    models = []
    for i in range(13):
        delta = honest_dir + 0.05 * rng.standard_normal(dim)
        models.append(w_t - delta)
    for i in range(13, 20):
        delta = -honest_dir + 0.05 * rng.standard_normal(dim)
        models.append(w_t - delta)
    S = stpa.build_affinity(w_t, stacked(models)[0])
    part = stpa.partition_round(S, 0.02)
    assert part.cross_similarity < 0.02
    assert set(part.benign) == set(range(13))


def test_round_uncoordinated_attackers_keep_union():
    # purely random attacker directions are near-orthogonal, not
    # anti-correlated, so the cross-similarity stays above the threshold and
    # every slot is kept (the inner median handles them instead).
    rng = np.random.default_rng(22)
    dim = 30
    w_t = rng.standard_normal(dim)
    honest_dir = rng.standard_normal(dim)
    models = []
    for i in range(13):
        delta = honest_dir + 0.05 * rng.standard_normal(dim)
        models.append(w_t - delta)
    for i in range(13, 20):
        models.append(rng.normal(0.0, 20.0, size=dim))
    S = stpa.build_affinity(w_t, stacked(models)[0])
    part = stpa.partition_round(S, 0.02)
    if part.cross_similarity >= 0.02:
        assert part.benign == tuple(range(20))
    else:
        assert set(range(13)) <= set(part.benign)


def test_round_reduces_to_inner_rule_direction():
    # with beta = 0 and eta0 = 1 the step is exactly alpha * median-delta
    w_t = np.zeros(2)
    deltas = [np.array([1.0, 0.0]), np.array([1.1, 0.1]), np.array([0.9, -0.1])]
    X, counts = mk(w_t, deltas)
    cfg = StpaConfig(beta=0.0, eta0=1.0)
    outcome, _ = stpa.stpa_round(w_t, X, counts, np.zeros(2), cfg)
    med = np.median(np.stack(deltas), axis=0)
    assert outcome.alpha == pytest.approx(1.0)
    assert np.allclose(outcome.new_model, w_t - med)
