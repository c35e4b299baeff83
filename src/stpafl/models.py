"""Small differentiable classifiers with analytic gradients.

Both model families operate on a single flat float64 parameter vector with a
fixed, documented packing order, so aggregation rules can treat client
submissions as plain vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClientStack, LabeledDataset


@dataclass(frozen=True)
class TrainConfig:
    local_steps: int = 5
    local_lr: float = 0.01
    batch_size: int | None = None  # None = full batch

    def __post_init__(self):
        if self.local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if self.local_lr <= 0:
            raise ValueError("local_lr must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _T(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _affine(inputs: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """inputs @ weight.T + bias, batched over leading axes, as a fresh array."""
    out = inputs @ _T(weight)
    out += bias[..., None, :]
    return out


def _softmax_residual(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(mean cross-entropy)/d(logits) = (softmax - onehot(y)) / n_samples.

    Overwrites logits, which must be a fresh C-contiguous array.
    """
    P = logits
    P -= P.max(axis=-1, keepdims=True)
    np.exp(P, out=P)
    P /= P.sum(axis=-1, keepdims=True)
    flat = P.reshape(-1, P.shape[-1])
    flat[np.arange(len(flat)), y.reshape(-1)] -= 1.0
    P /= y.shape[-1]
    return P


class LinearSoftmaxModel:
    """Multinomial logistic regression. Packing order: W row-major, then b.

    unpack, pack, logits and gradient also take a leading batch axis: params
    (K, dim) with features (K, N, F) and labels (K, N) act as K models.
    """

    def __init__(self, n_features: int, n_classes: int):
        self.n_features = n_features
        self.n_classes = n_classes

    @property
    def dim(self) -> int:
        return self.n_classes * self.n_features + self.n_classes

    @property
    def width(self) -> int:
        """Widest per-sample activation: the logits."""
        return self.n_classes

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        bound = 1.0 / np.sqrt(self.n_features)
        return rng.uniform(-bound, bound, size=self.dim)

    def unpack(self, params: np.ndarray):
        cut = self.n_classes * self.n_features
        W = params[..., :cut].reshape(params.shape[:-1] + (self.n_classes, self.n_features))
        b = params[..., cut:]
        return W, b

    def pack(self, W: np.ndarray, b: np.ndarray) -> np.ndarray:
        lead = b.shape[:-1]
        return np.concatenate([W.reshape(lead + (-1,)), b], axis=-1)

    def logits(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        W, b = self.unpack(params)
        return _affine(X, W, b)

    def gradient(self, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        P = _softmax_residual(self.logits(params, X), y)
        dW = _T(P) @ X
        db = P.sum(axis=-2)
        return self.pack(dW, db)


class MlpModel:
    """One-hidden-layer tanh network. Packing order: w1, b1, w2, b2.

    Takes a leading batch axis like LinearSoftmaxModel.
    """

    def __init__(self, n_features: int, hidden: int, n_classes: int):
        self.n_features = n_features
        self.hidden = hidden
        self.n_classes = n_classes

    @property
    def dim(self) -> int:
        return (
            self.hidden * self.n_features
            + self.hidden
            + self.n_classes * self.hidden
            + self.n_classes
        )

    @property
    def width(self) -> int:
        """Widest per-sample activation: the hidden layer."""
        return self.hidden

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        b1 = 1.0 / np.sqrt(self.n_features)
        b2 = 1.0 / np.sqrt(self.hidden)
        return np.concatenate(
            [
                rng.uniform(-b1, b1, size=self.hidden * self.n_features + self.hidden),
                rng.uniform(-b2, b2, size=self.n_classes * self.hidden + self.n_classes),
            ]
        )

    def unpack(self, params: np.ndarray):
        h, f, c = self.hidden, self.n_features, self.n_classes
        lead = params.shape[:-1]
        i = 0
        w1 = params[..., i : i + h * f].reshape(lead + (h, f))
        i += h * f
        b1 = params[..., i : i + h]
        i += h
        w2 = params[..., i : i + c * h].reshape(lead + (c, h))
        i += c * h
        b2 = params[..., i : i + c]
        return w1, b1, w2, b2

    def pack(self, w1, b1, w2, b2) -> np.ndarray:
        lead = b1.shape[:-1]
        return np.concatenate(
            [w1.reshape(lead + (-1,)), b1, w2.reshape(lead + (-1,)), b2], axis=-1
        )

    def _hidden(self, w1, b1, X) -> np.ndarray:
        hidden = _affine(X, w1, b1)
        return np.tanh(hidden, out=hidden)

    def logits(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self.unpack(params)
        return _affine(self._hidden(w1, b1, X), w2, b2)

    def gradient(self, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self.unpack(params)
        hidden = self._hidden(w1, b1, X)
        P = _softmax_residual(_affine(hidden, w2, b2), y)
        dw2 = _T(P) @ hidden
        db2 = P.sum(axis=-2)
        dpre = P @ w2
        slope = hidden * hidden
        np.subtract(1.0, slope, out=slope)
        dpre *= slope  # tanh' = 1 - tanh^2
        dw1 = _T(dpre) @ X
        db1 = dpre.sum(axis=-2)
        return self.pack(dw1, db1, dw2, db2)


def make_model(kind: str, n_features: int, n_classes: int, hidden: int = 200):
    if kind == "linear":
        return LinearSoftmaxModel(n_features, n_classes)
    if kind == "mlp":
        return MlpModel(n_features, hidden, n_classes)
    raise ValueError(f"unknown model kind: {kind}")


def loss(model, params: np.ndarray, dataset: LabeledDataset) -> float:
    """Mean softmax cross-entropy over the dataset."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    logp = _log_softmax(model.logits(params, dataset.features))
    return float(-logp[np.arange(len(dataset)), dataset.labels].mean())


def gradient(model, params: np.ndarray, dataset: LabeledDataset) -> np.ndarray:
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    return model.gradient(params, dataset.features, dataset.labels)


# Element budget for one training block: the most clients whose widest
# activation (clients x rows x model.width float64s) stays within it train in
# one stacked call. Measured: 16k puts each 100-client linear round in one
# block and keeps 200-wide MLP clients of 100 rows one per block, where bigger
# blocks were slower than per-client calls.
BLOCK_ELEMENTS = 16_384


def block_clients(model, n_rows: int) -> int:
    """Clients per training block for clients of n_rows samples each."""
    return max(1, BLOCK_ELEMENTS // max(1, n_rows * model.width))


def local_train(
    model,
    params: np.ndarray,
    dataset: LabeledDataset | ClientStack,
    cfg: TrainConfig,
    seed=0,
) -> np.ndarray:
    """Run cfg.local_steps gradient-descent steps at rate cfg.local_lr.

    dataset is one client (returns (dim,)) or a ClientStack of K clients,
    each starting from params (returns (K, dim)). seed is read only for
    minibatches: an int for one client, one int per client of a stack.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    X, y = dataset.features, dataset.labels
    p = np.broadcast_to(params, y.shape[:-1] + params.shape).copy()
    if cfg.batch_size is None:
        for _ in range(cfg.local_steps):
            p -= cfg.local_lr * model.gradient(p, X, y)
        return p
    n = y.shape[-1]
    size = min(cfg.batch_size, n)
    rngs = [np.random.default_rng(s) for s in (seed if y.ndim > 1 else [seed])]
    for _ in range(cfg.local_steps):
        idx = np.stack([rng.choice(n, size=size, replace=False) for rng in rngs])
        idx = idx.reshape(y.shape[:-1] + (size,))
        Xb = np.take_along_axis(X, idx[..., None], axis=-2)
        yb = np.take_along_axis(y, idx, axis=-1)
        p -= cfg.local_lr * model.gradient(p, Xb, yb)
    return p


def evaluate_error(model, params: np.ndarray, dataset: LabeledDataset) -> float:
    """Percentage of misclassified samples; argmax ties go to the smallest class."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    pred = np.argmax(model.logits(params, dataset.features), axis=1)
    return float(100.0 * np.mean(pred != dataset.labels))
