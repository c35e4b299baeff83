"""Flat parameter vectors and ClientUpdate.

Vectors are 1-D float64 numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_vector(values) -> np.ndarray:
    """Coerce to a flat float64 vector, rejecting NaN/inf."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a flat vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector contains NaN or infinity")
    return v


@dataclass(frozen=True)
class ClientUpdate:
    """One client's submitted local model for a round, with its sample count."""

    model: np.ndarray
    sample_count: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        object.__setattr__(self, "model", as_vector(self.model))

    @property
    def dim(self) -> int:
        return self.model.shape[0]
