"""Faulty and malicious client behaviors: data-level and model-level attacks.

Data-level attacks (noisy, label_flip) corrupt the malicious clients' rows
of the stacked ClientPool once, in place, at setup. Model-level attacks
replace the submitted models each round: byzantine_gaussian draws each one at
random, while the omniscient attacks (ipm, alie) read the round's honest
pseudo-gradients and compute one g, which every malicious client submits as
w_t - g. They use whatever honest rows the round has: a cross-device roster
can draw one honest client or none, and with none g is 0, so the malicious
clients submit w_t.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import ClientPool

ATTACK_KINDS = ("none", "byzantine_gaussian", "noisy", "label_flip", "ipm", "alie")

MODEL_ATTACKS = ("byzantine_gaussian", "ipm", "alie")


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
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be nonnegative")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be nonnegative")
        if not -math.inf < self.low <= self.high < math.inf:
            raise ValueError("noise high must be >= low")
        if not self.clip_hi > self.clip_lo:
            raise ValueError("clip bounds must be ordered")
        if self.target < 0:
            raise ValueError("target must be nonnegative")


def gaussian_byzantine_update(w_t: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """A submitted 'model' drawn i.i.d. N(0, sigma^2) per coordinate."""
    return np.random.default_rng(seed).normal(0.0, sigma, size=w_t.shape)


def ipm_updates(G: np.ndarray, epsilon: float) -> np.ndarray:
    """The IPM pseudo-gradient -epsilon * mean(G) of the (n, d) honest ones G; 0 if n is 0."""
    if len(G) == 0:
        return np.zeros(G.shape[1])
    return -epsilon * G.mean(axis=0)


def alie_updates(G: np.ndarray, epsilon: float) -> np.ndarray:
    """The ALIE pseudo-gradient mean(G) - epsilon * std(G) (population std) per coordinate.

    One honest row has std 0, so g is that row; with none, g is 0. These are
    the operations G.mean(axis=0) and G.std(axis=0) run, in the same order,
    with the mean computed once for both.
    """
    n = len(G)
    if n == 0:
        return np.zeros(G.shape[1])
    mean = np.add.reduce(G, axis=0)
    mean /= n
    sq = G - mean
    np.square(sq, out=sq)
    std = np.add.reduce(sq, axis=0)
    std /= n
    np.sqrt(std, out=std)
    std *= epsilon
    return np.subtract(mean, std, out=mean)


def submissions(spec: AttackSpec, w_t, rows: np.ndarray, mal_ids: list, seed_of) -> np.ndarray:
    """Fill in the malicious clients' submitted models; returns rows.

    rows holds one model per selected client in ascending id order. Under a
    model-level attack the malicious mal_ids (the lowest ids) lead it, and the
    rows after them hold the honest clients' local models, from which IPM and
    ALIE compute the one w_t - g all malicious clients send. Otherwise rows is
    left as is. seed_of(cid) seeds a Gaussian replacement.
    """
    m = len(mal_ids)
    if spec.kind not in MODEL_ATTACKS or m == 0:
        return rows
    if spec.kind == "byzantine_gaussian":
        for k, cid in enumerate(mal_ids):
            rows[k] = gaussian_byzantine_update(w_t, spec.sigma, seed_of(cid))
    elif spec.kind == "ipm":
        rows[:m] = w_t - ipm_updates(w_t - rows[m:], spec.epsilon)
    else:
        rows[:m] = w_t - alie_updates(w_t - rows[m:], spec.epsilon)
    return rows


def corrupt_pool(spec: AttackSpec, pool: ClientPool, n_malicious: int, seed_of):
    """Corrupt the rows of clients [0, n_malicious) in pool's stacks, in place.

    noisy: x <- clip(x + u, clip_lo, clip_hi), u ~ Uniform(low, high) per element
    drawn from seed_of(cid); label_flip: every label becomes target, which
    simulation.check_data keeps below the class count; others: nothing.
    """
    for stack in pool.stacks:
        for k in np.flatnonzero(stack.ids < n_malicious):
            if spec.kind == "noisy":
                rng = np.random.default_rng(seed_of(int(stack.ids[k])))
                u = rng.uniform(spec.low, spec.high, size=stack.features[k].shape)
                np.clip(stack.features[k] + u, spec.clip_lo, spec.clip_hi, out=stack.features[k])
            elif spec.kind == "label_flip":
                stack.labels[k] = spec.target
