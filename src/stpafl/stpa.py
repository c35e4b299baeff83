"""Spatial-temporal robust aggregation.

Each round: build the affinity matrix of pseudo-gradient cosine similarities,
split the roster in two with complete-linkage agglomeration, keep the larger
side when the clusters are clearly separated, aggregate the kept updates, and
gate the resulting step with a momentum-based speculation of the expected
descent direction. Cluster structure is never carried across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .aggregation import AggregationRule, apply_rule
from .vectors import ZERO_NORM_EPS, ClientUpdate, cosine_similarity

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
class MomentumState:
    v: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "MomentumState":
        return cls(np.zeros(dim))


@dataclass(frozen=True)
class ClusterPartition:
    c1: tuple
    c2: tuple
    cross_similarity: float
    benign: tuple


@dataclass(frozen=True)
class StepOutcome:
    new_model: np.ndarray
    alpha: float
    eta: float
    discarded: bool
    benign_count: int


# Up to this many slots, build_affinity makes one cosine_similarity call per
# pair; at this size that costs about as much as the stacked Gram path.
PAIRWISE_MAX_SLOTS = 4


def build_affinity(global_model: np.ndarray, updates: list[ClientUpdate]) -> np.ndarray:
    """Pairwise cosine similarities of pseudo-gradients w_t - w^i, diagonal 1.

    Rows with norm below ZERO_NORM_EPS get similarity 0 to every other row,
    as in cosine_similarity. The result is exactly symmetric.
    """
    n = len(updates)
    if n < 2:
        raise ValueError("need at least 2 updates to build an affinity matrix")
    if n <= PAIRWISE_MAX_SLOTS:
        deltas = [global_model - u.model for u in updates]
        S = np.ones((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                S[i, j] = S[j, i] = cosine_similarity(deltas[i], deltas[j])
        return S
    X = global_model - np.stack([u.model for u in updates])
    norms = np.linalg.norm(X, axis=1)
    live = norms >= ZERO_NORM_EPS
    norms[~live] = 1.0
    S = (X @ X.T) / np.outer(norms, norms)
    S[~live] = 0.0
    S[:, ~live] = 0.0
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


def momentum_step(state: MomentumState, delta_w: np.ndarray, beta: float) -> MomentumState:
    """v <- beta * v + (1 - beta) * delta_w."""
    return MomentumState(beta * state.v + (1.0 - beta) * delta_w)


def adaptive_update(
    w_t: np.ndarray,
    state_after: MomentumState,
    delta_w: np.ndarray,
    eta0: float,
) -> StepOutcome:
    """Step w_t - eta0 * alpha * v, or discard the round when alpha <= 0.

    alpha is the cosine agreement between the round's aggregated
    pseudo-gradient and the momentum speculation v (already updated).
    """
    alpha = cosine_similarity(delta_w, state_after.v)
    if alpha <= 0.0:
        return StepOutcome(w_t, alpha, 0.0, True, 0)
    eta = eta0 * alpha
    return StepOutcome(w_t - eta * state_after.v, alpha, eta, False, 0)


def stpa_round(
    w_t: np.ndarray,
    updates: list[ClientUpdate],
    state: MomentumState,
    cfg: StpaConfig,
) -> tuple[StepOutcome, MomentumState]:
    """One full round: spatial filter, inner aggregation, temporal gate.

    The returned momentum state carries the updated v even when the step is
    discarded.
    """
    if not updates:
        raise ValueError("empty update list")
    if len(updates) == 1:
        benign = (0,)
    else:
        S = build_affinity(w_t, updates)
        part = partition_round(S, cfg.s_t)
        benign = part.benign
    kept = [updates[k] for k in benign]
    aggregated = apply_rule(cfg.inner_rule, kept)
    delta_w = w_t - aggregated
    new_state = momentum_step(state, delta_w, cfg.beta)
    outcome = adaptive_update(w_t, new_state, delta_w, cfg.eta0)
    return replace(outcome, benign_count=len(benign)), new_state
