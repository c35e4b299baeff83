"""Flat parameter vectors, the zero-norm cosine convention and ClientUpdate.

Vectors are 1-D float64 numpy arrays. Cosine similarity follows a zero-norm
convention: a vector with norm below ZERO_NORM_EPS carries no directional
information and yields similarity 0, so downstream alpha <= 0 logic treats
such rounds as discardable instead of propagating NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Norms below this are treated as zero for cosine similarity.
ZERO_NORM_EPS = 1e-12


def as_vector(values) -> np.ndarray:
    """Coerce to a flat float64 vector, rejecting NaN/inf."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a flat vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN or infinity")
    return v


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between a and b, clamped to [-1, 1].

    Returns 0.0 if either vector has norm below ZERO_NORM_EPS.
    """
    _check_dims(a, b)
    na = math.sqrt(a @ a)
    nb = math.sqrt(b @ b)
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        return 0.0
    return min(max(float(a @ b) / (na * nb), -1.0), 1.0)


@dataclass(frozen=True)
class ClientUpdate:
    """One client's submitted local model for a round.

    slot is the position within the round's roster, not a persistent client
    identity.
    """

    round_index: int
    slot: int
    model: np.ndarray
    sample_count: int

    def __post_init__(self):
        if self.round_index < 0:
            raise ValueError("round_index must be nonnegative")
        if self.slot < 0:
            raise ValueError("slot must be nonnegative")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        object.__setattr__(self, "model", as_vector(self.model))

    @property
    def dim(self) -> int:
        return self.model.shape[0]
