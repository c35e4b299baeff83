"""ClientUpdate: one submitted model with its sample count.

Rounds pass their submissions as one (n, d) array; krum_scores alone still
takes a list of these, whose models are views of that array's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClientUpdate:
    """One client's submitted local model for a round, with its sample count."""

    model: np.ndarray
    sample_count: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        object.__setattr__(self, "model", np.asarray(self.model, dtype=np.float64))

    @property
    def dim(self) -> int:
        return self.model.shape[0]
