"""Baseline Byzantine-resilient aggregation rules over a round's (n, d) submissions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vectors import ClientUpdate

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


def _check_roster(X: np.ndarray) -> None:
    if len(X) == 0:
        raise ValueError("empty update list")


def fed_avg(X: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of the rows of X weighted by each client's sample count."""
    _check_roster(X)
    counts = np.asarray(counts, dtype=np.float64)
    weights = counts / counts.sum()
    return weights @ X


def coordinate_median(X: np.ndarray) -> np.ndarray:
    """Per-coordinate median; even counts average the two middle values.

    One full sort, then the mean of the middle one or two rows. That is the
    averaging np.median does, so results match it bit for bit (signed zeros
    included) on finite input; at roster sizes the sort is cheaper than
    np.median's partition.
    """
    _check_roster(X)
    n = X.shape[0]
    S = np.sort(X, axis=0)
    return S[(n - 1) // 2 : n // 2 + 1].mean(axis=0)


def trimmed_mean(X: np.ndarray, gamma: float) -> np.ndarray:
    """Per coordinate: drop floor(gamma*n) values from each end, mean the rest."""
    if not 0.0 < gamma < 0.5:
        raise ValueError("gamma must be in (0, 0.5)")
    _check_roster(X)
    n = X.shape[0]
    k = int(np.floor(gamma * n))
    S = np.sort(X, axis=0)
    return S[k : n - k].mean(axis=0)


def krum_scores(updates: list[ClientUpdate], f: int) -> np.ndarray:
    """Score per update: sum of Euclidean distances to its n-f-2 nearest peers."""
    X = np.array([u.model for u in updates])
    n, d = X.shape
    if n - f - 2 < 1:
        raise ValueError(f"krum needs n - f - 2 >= 1, got n={n}, f={f}")
    D = np.zeros((n, n))
    # One buffer holds every row block of squared differences, so the loop
    # allocates no (n - 1) x d array per row.
    buf = np.empty((n - 1, d))
    for k in range(n - 1):
        diff = buf[: n - 1 - k]
        np.subtract(X[k + 1 :], X[k], out=diff)
        np.multiply(diff, diff, out=diff)
        D[k, k + 1 :] = D[k + 1 :, k] = np.sqrt(diff.sum(axis=1))
    # After the sort each row starts with a zero that stands for its own
    # diagonal entry; the n - f - 2 nearest peers follow it.
    D.sort(axis=1)
    return D[:, 1 : n - f - 1].sum(axis=1)


def krum_selection(X: np.ndarray, f: int, m: int) -> list[int]:
    """Indices of the m lowest-scoring rows of X; ties go to the earlier one."""
    n = len(X)
    if not 1 <= m <= n - f - 2:
        raise ValueError(f"krum needs 1 <= m <= n - f - 2, got m={m}, n={n}, f={f}")
    # krum_scores keeps its list argument: the benchmark's tracer reads the
    # first update's dim to size the Krum tensor.
    updates = [ClientUpdate(x, 1) for x in X]
    return np.argsort(krum_scores(updates, f), kind="stable")[:m].tolist()


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
