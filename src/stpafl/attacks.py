"""Faulty and malicious client behaviors.

Data-level attacks (noisy, label_flip) corrupt a client's dataset once at
setup. Model-level attacks replace the submitted model: byzantine_gaussian
draws it at random, while the omniscient attacks (ipm, alie) read the round's
benign pseudo-gradients and are converted to models as w_t - g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data

ATTACK_KINDS = ("none", "byzantine_gaussian", "noisy", "label_flip", "ipm", "alie")

DATA_ATTACKS = ("noisy", "label_flip")
OMNISCIENT_ATTACKS = ("ipm", "alie")
MODEL_ATTACKS = ("byzantine_gaussian",) + OMNISCIENT_ATTACKS


@dataclass(frozen=True)
class AttackSpec:
    kind: str = "none"
    sigma: float = 20.0  # byzantine_gaussian
    low: float = -1.4  # noisy
    high: float = 1.4
    clip_lo: float = -1.0
    clip_hi: float = 1.0
    target: int = 0  # label_flip
    epsilon: float = 1.0  # ipm / alie

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind: {self.kind}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.high < self.low:
            raise ValueError("noise high must be >= low")
        if self.clip_hi <= self.clip_lo:
            raise ValueError("clip bounds must be ordered")
        if self.target < 0:
            raise ValueError("target must be nonnegative")


def gaussian_byzantine_update(w_t: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """A submitted 'model' drawn i.i.d. N(0, sigma^2) per coordinate."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, sigma, size=w_t.shape) if sigma > 0 else np.zeros_like(w_t)


def ipm_updates(benign_grads, epsilon: float, count: int) -> np.ndarray:
    """count identical rows of -epsilon * mean(benign gradients).

    benign_grads is a (n, d) array or a list of n vectors.
    """
    if len(benign_grads) == 0:
        raise ValueError("ipm needs a nonempty benign gradient set")
    if count < 1:
        raise ValueError("count must be >= 1")
    g = -epsilon * np.asarray(benign_grads).mean(axis=0)
    return np.repeat(g[None, :], count, axis=0)


def alie_updates(benign_grads, epsilon: float, count: int) -> np.ndarray:
    """count rows of mean - epsilon * std (population, per coordinate); input as ipm_updates."""
    if len(benign_grads) < 2:
        raise ValueError("alie needs at least 2 benign gradients")
    if count < 1:
        raise ValueError("count must be >= 1")
    G = np.asarray(benign_grads)
    g = G.mean(axis=0) - epsilon * G.std(axis=0)
    return np.repeat(g[None, :], count, axis=0)


def submissions(spec: AttackSpec, w_t, rows: np.ndarray, mal_ids: list, seed_of) -> np.ndarray:
    """Fill in the malicious clients' submitted models; returns rows.

    rows holds one model per selected client in ascending id order. Under a
    model-level attack the malicious mal_ids (the lowest ids) lead it, and the
    rows after them hold the honest clients' local models, which IPM and ALIE
    read; otherwise every selected client trained and rows is left as is.
    seed_of(cid) seeds a Gaussian replacement.
    """
    m = len(mal_ids)
    if spec.kind not in MODEL_ATTACKS or m == 0:
        return rows
    if spec.kind == "byzantine_gaussian":
        for k, cid in enumerate(mal_ids):
            rows[k] = gaussian_byzantine_update(w_t, spec.sigma, seed_of(cid))
    elif spec.kind == "ipm":
        np.subtract(w_t, ipm_updates(w_t - rows[m:], spec.epsilon, m), out=rows[:m])
    else:
        np.subtract(w_t, alie_updates(w_t - rows[m:], spec.epsilon, m), out=rows[:m])
    return rows


def apply_data_attack(
    spec: AttackSpec, dataset: data.LabeledDataset, seed: int = 0
) -> data.LabeledDataset:
    if spec.kind == "noisy":
        return data.apply_noise(dataset, spec.low, spec.high, spec.clip_lo, spec.clip_hi, seed)
    if spec.kind == "label_flip":
        return data.flip_labels(dataset, spec.target)
    raise ValueError(f"{spec.kind} is not a data-level attack")
