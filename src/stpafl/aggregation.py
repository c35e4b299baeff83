"""Baseline Byzantine-resilient aggregation rules over a round's (n, d) submissions."""

from dataclasses import dataclass

import numpy as np

RULE_KINDS = ("fed_avg", "coordinate_median", "trimmed_mean", "krum", "stpa")


@dataclass(frozen=True)
class AggregationRule:
    kind: str
    gamma: float | None = None  # trimmed_mean
    f: int | None = None  # krum
    m: int | None = None  # krum

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown aggregation rule: {self.kind}")
        if self.kind == "trimmed_mean":
            if self.gamma is None or not 0.0 < self.gamma < 0.5:
                raise ValueError("trimmed_mean requires gamma in (0, 0.5)")
        if self.kind == "krum":
            if self.f is None or self.f < 0:
                raise ValueError("krum requires f >= 0")
            if self.m is None or self.m < 1:
                raise ValueError("krum requires m >= 1")


def fed_avg(X: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of the rows of X weighted by each client's sample count."""
    counts = np.asarray(counts, dtype=np.float64)
    weights = counts / counts.sum()
    return weights @ X


def _trim(X: np.ndarray, k: int) -> np.ndarray:
    """Per coordinate: sort, drop k values from each end, mean the rest."""
    n = X.shape[0]
    return np.sort(X, axis=0)[k : n - k].mean(axis=0)


def coordinate_median(X: np.ndarray) -> np.ndarray:
    """Per-coordinate median; even counts average the two middle values.

    One full sort, then the mean of the middle one or two rows. That is the
    averaging np.median does, so results match it bit for bit (signed zeros
    included) on finite input, the only input run_round passes on; at roster
    sizes the sort is cheaper than np.median's partition.
    """
    return _trim(X, (len(X) - 1) // 2)


def trimmed_mean(X: np.ndarray, gamma: float) -> np.ndarray:
    """Per coordinate: drop floor(gamma*n) values from each end, mean the rest."""
    return _trim(X, int(np.floor(gamma * len(X))))


@dataclass(frozen=True)
class ClientUpdate:
    """One row of a round's submissions, as krum_scores takes them.

    krum_scores takes a list of these rather than the (n, d) array only because
    the benchmark tracer reads `updates[0].dim`.
    """

    model: np.ndarray

    @property
    def dim(self) -> int:
        return self.model.shape[0]


def krum_scores(updates: list[ClientUpdate], f: int, rows: np.ndarray) -> np.ndarray:
    """Per update, the sum of distances to its n-f-2 nearest peers; +inf outside `rows`."""
    n, d = len(updates), updates[0].dim
    models = [u.model for u in updates]
    D = np.empty((len(rows), n))
    block = max(1, 2**15 // d)  # rows per 256 KB scratch block: peers, then differences
    peers, diffs = np.empty((2, min(block, n), d))
    for j0 in range(0, n, block):
        k = min(block, n - j0)
        np.concatenate(models[j0 : j0 + k], out=peers[:k].reshape(-1))
        for r, i in enumerate(rows):
            diff = np.subtract(peers[:k], models[i], out=diffs[:k])
            np.multiply(diff, diff, out=diff)
            D[r, j0 : j0 + k] = np.sqrt(diff.sum(axis=1))
    # After the sort each row starts with its zero distance to itself; the
    # n - f - 2 nearest peers follow it.
    D.sort(axis=1)
    scores = np.full(n, np.inf)
    scores[rows] = D[:, 1 : n - f - 1].sum(axis=1)
    return scores


def krum_selection(X: np.ndarray, f: int, m: int) -> list[int]:
    """Indices of the m lowest-scoring rows of X; ties go to the earlier one.

    One Gram product bounds every row's score; only rows it cannot rule out are
    scored exactly, so the result is the one exact scores of every row give.
    """
    n, d = X.shape
    eps = np.finfo(np.float64).eps
    with np.errstate(all="ignore"):  # huge rows overflow; their bounds are not finite
        G = X @ X.T
        sq = G.diagonal()
        dist = np.sqrt(np.maximum(sq[:, None] + sq - 2 * G, 0.0))
        # At least twice the joint error of dist^2 and krum_scores' sums of squares,
        # underflow included. The doubled norms overflow before any distance can.
        E2 = (d + 8) * eps / 2 * (2 * np.sqrt(sq[:, None]) + 2 * np.sqrt(sq)) ** 2 + 4 * d * 5e-324
        # |sqrt(a) - sqrt(b)| <= min(sqrt(|a - b|), |a - b| / sqrt(a)), plus rounding.
        err = np.minimum(np.sqrt(E2), E2 / dist) + 4 * eps * dist
        # Sorted bounds bound the sorted distances; n eps covers both sums. A row's
        # own 0 lower bound is skipped; skipping the least upper bound only raises it.
        k = slice(1, n - f - 1)
        low = np.sort(np.maximum(dist - err, 0.0), axis=1)[:, k].sum(axis=1) * (1 - n * eps)
        high = np.sort(dist + err, axis=1)[:, k].sum(axis=1) * (1 + n * eps)
        ok = np.isfinite(dist + err).all(axis=1)
        rows = np.flatnonzero(~ok | (low <= np.sort(np.where(ok, high, np.inf))[m - 1]))
    updates = [ClientUpdate(x) for x in X]
    return np.argsort(krum_scores(updates, f, rows), kind="stable")[:m].tolist()


def krum(X: np.ndarray, f: int, m: int) -> np.ndarray:
    """Unweighted mean of the m lowest-scoring rows of X."""
    return X[krum_selection(X, f, m)].mean(axis=0)


def apply_rule(rule: AggregationRule, X: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Dispatch a baseline rule on the rows of X. The stpa rule is handled by the stpa module."""
    if rule.kind == "fed_avg":
        return fed_avg(X, counts)
    if rule.kind == "coordinate_median":
        return coordinate_median(X)
    if rule.kind == "trimmed_mean":
        return trimmed_mean(X, rule.gamma)
    if rule.kind == "krum":
        return krum(X, rule.f, rule.m)
    raise ValueError(f"rule {rule.kind} is not a baseline aggregator")
