"""A small softmax classifier with analytic gradients, and local training.

The linear model and the MLP are one Model, with zero or one hidden tanh
layer. It operates on a single flat float64 parameter vector with a fixed,
documented packing order, so aggregation rules can treat client submissions
as plain vectors.
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


def _T(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _affine(inputs: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """inputs @ weight.T + bias, batched over leading axes, as a fresh array."""
    out = inputs @ _T(weight)
    out += bias[..., None, :]
    return out


def _sum_rows(P: np.ndarray) -> np.ndarray:
    """The sum of the rows of P, added in the order np.sum(axis=-1) adds a row.

    That order is numpy's pairwise summation of a contiguous row of n terms:
    below 8 terms one after another; up to 128 terms eight accumulators that
    take every eighth term, combined as ((0+1)+(2+3))+((4+5)+(6+7)), then the
    terms past the last multiple of 8 one after another; above 128 the sums of
    two halves, split at n // 2 rounded down to a multiple of 8. Floating-point
    addition is not associative, so any other order changes the last bits of
    the softmax and with them every trained model. np.sum starts from +0.0,
    which only shows in a sum of -0.0 terms: the `+ 0.0` copies give +0.0 too.
    """
    n = len(P)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_rows(P[:half]) + _sum_rows(P[half:])
    if n < 8:
        s, rest = P[0] + 0.0, P[1:]
    else:
        r = P[:8] + 0.0
        for i in range(8, n - n % 8, 8):
            r += P[i : i + 8]
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        s, rest = r[0] + r[1], P[n - n % 8 :]
    for row in rest:
        s += row
    return s


def _softmax_residual(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(mean cross-entropy)/d(logits) = (softmax - onehot(y)) / n_samples.

    Overwrites logits, which must be a fresh C-contiguous array, and returns
    it. The work runs class-major, on a (C, M) copy of the M rows of logits.
    Row-major, the max and the sum reduce the short class axis (10 wide here)
    once per row, M times per call, and that per-row cost dominated a linear
    gradient step; class-major, each step is a few calls over rows of length
    M. _sum_rows keeps the normalising sums equal to np.sum(axis=-1) bit for
    bit, so trained models do not change.
    """
    flat = logits.reshape(-1, logits.shape[-1])
    P = flat.T.copy()
    P -= P.max(axis=0)
    np.exp(P, out=P)
    P /= _sum_rows(P)
    P[y.reshape(-1), np.arange(P.shape[1])] -= 1.0
    np.divide(P.T, y.shape[-1], out=flat)
    return logits


class Model:
    """Softmax classifier: affine layers with tanh between them.

    Layer sizes run n_features, *hidden, n_classes; with no hidden layer this
    is multinomial logistic regression. Packing order: each layer's weight
    (out, in) row-major, then its bias, layer by layer.

    unpack, pack, logits and gradient also take a leading batch axis: params
    (K, dim) with features (K, N, F) and labels (K, N) act as K models.
    """

    def __init__(self, n_features: int, n_classes: int, hidden: tuple[int, ...] = ()):
        sizes = (n_features, *hidden, n_classes)
        # Per layer: weight shape (out, in), weight start, bias start, bias end.
        # Computed once, since unpack runs on every gradient step.
        self._layers = []
        end = 0
        for n_out, n_in in zip(sizes[1:], sizes[:-1]):
            start, end = end, end + n_out * n_in + n_out
            self._layers.append(((n_out, n_in), start, end - n_out, end))
        self.dim = end
        self.width = max(sizes[1:])  # widest per-sample activation; sizes training blocks

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.concatenate(
            [
                rng.uniform(-1.0 / np.sqrt(n_in), 1.0 / np.sqrt(n_in), size=end - start)
                for (_, n_in), start, _, end in self._layers
            ]
        )

    def unpack(self, params: np.ndarray) -> list[np.ndarray]:
        """[W1, b1, W2, b2, ...] as views of params."""
        lead = params.shape[:-1]
        layers = []
        for shape, start, cut, end in self._layers:
            layers += [params[..., start:cut].reshape(lead + shape), params[..., cut:end]]
        return layers

    def pack(self, *layers: np.ndarray) -> np.ndarray:
        lead = layers[1].shape[:-1]
        return np.concatenate([a.reshape(lead + (-1,)) for a in layers], axis=-1)

    @staticmethod
    def _forward(layers, X):
        """The input of every layer (X, then each tanh activation) and the logits."""
        inputs = [X]
        for W, b in zip(layers[0:-2:2], layers[1:-2:2]):
            hidden = _affine(inputs[-1], W, b)
            inputs.append(np.tanh(hidden, out=hidden))
        return inputs, _affine(inputs[-1], layers[-2], layers[-1])

    def logits(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        return self._forward(self.unpack(params), X)[1]

    def gradient(self, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        layers = self.unpack(params)
        inputs, logits = self._forward(layers, X)
        delta = _softmax_residual(logits, y)
        grads = [None] * len(layers)
        for k in reversed(range(len(inputs))):  # layer k: layers[2k] @ inputs[k] + layers[2k+1]
            h = inputs[k]
            grads[2 * k] = _T(delta) @ h
            grads[2 * k + 1] = delta.sum(axis=-2)
            if k:
                delta = delta @ layers[2 * k]
                slope = h * h
                np.subtract(1.0, slope, out=slope)
                delta *= slope  # tanh' = 1 - tanh^2
        return self.pack(*grads)


def make_model(kind: str, n_features: int, n_classes: int, hidden: int = 200) -> Model:
    if kind not in ("linear", "mlp"):
        raise ValueError(f"unknown model kind: {kind}")
    return Model(n_features, n_classes, (hidden,) if kind == "mlp" else ())


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
