"""A small softmax classifier with analytic gradients, and local training.

The linear model and the MLP are one Model, with zero or one hidden tanh
layer. It operates on a single flat float64 parameter vector with a fixed,
documented packing order, so aggregation rules can treat client submissions
as plain vectors.
"""

from __future__ import annotations

import math
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


def _affine(inputs: np.ndarray, weight: np.ndarray, bias: np.ndarray, out: np.ndarray) -> np.ndarray:
    """inputs @ weight.T + bias, batched over leading axes, written into out."""
    np.matmul(inputs, _T(weight), out=out)
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


def _softmax_residual(logits: np.ndarray, y: np.ndarray, P: np.ndarray | None = None) -> np.ndarray:
    """d(mean cross-entropy)/d(logits) = (softmax - onehot(y)) / n_samples.

    Overwrites logits, which must be a C-contiguous array, and returns it. The
    work runs class-major, on a (C, M) copy of the M rows of logits, made in P
    if given and in a fresh array if not. Row-major, the max and the sum
    reduce the short class axis (10 wide here) once per row, M times per
    call, and that per-row cost dominated a linear gradient step;
    class-major, each step is a few calls over rows of length M. _sum_rows
    keeps the normalising sums equal to np.sum(axis=-1) bit for bit, so
    trained models do not change.
    """
    flat = logits.reshape(-1, logits.shape[-1])
    if P is None:
        P = np.empty(flat.T.shape)
    P[...] = flat.T
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

    unpack, logits and gradient also take a leading batch axis: params
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

    def buffers(self, shape: tuple[int, ...]) -> tuple:
        """Scratch for gradient on labels of this shape, lead + (N,).

        (outs, deltas, P, grad, grads): each layer's output, (…, N, n_out),
        which holds the tanh activations and the logits; one backpropagated
        residual per hidden layer, shaped like its output; the (C, M)
        class-major softmax copy; the (…, dim) packed gradient, and its
        unpack views, which the backward pass writes.
        """
        outs = [np.empty(shape + (n_out,)) for (n_out, _), *_ in self._layers]
        deltas = [np.empty_like(h) for h in outs[:-1]]
        P = np.empty((outs[-1].shape[-1], math.prod(shape)))
        grad = np.empty(shape[:-1] + (self.dim,))
        return outs, deltas, P, grad, self.unpack(grad)

    @staticmethod
    def _forward(layers, X, outs):
        """Write each layer's output into outs: the tanh activations, then the logits."""
        h = X
        for W, b, out in zip(layers[0:-2:2], layers[1:-2:2], outs):
            h = np.tanh(_affine(h, W, b, out), out=out)
        return _affine(h, layers[-2], layers[-1], outs[-1])

    def logits(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        outs = [np.empty(X.shape[:-1] + (n_out,)) for (n_out, _), *_ in self._layers]
        return self._forward(self.unpack(params), X, outs)

    def gradient(self, params: np.ndarray, X: np.ndarray, y: np.ndarray, buffers=None) -> np.ndarray:
        """d(mean cross-entropy)/d(params), packed like params.

        Written into buffers, from self.buffers(y.shape), when given: the
        result is then buffers' gradient array, which the next call with the
        same buffers overwrites. Without buffers every array is fresh.
        """
        outs, deltas, P, grad, grads = self.buffers(y.shape) if buffers is None else buffers
        layers = self.unpack(params)
        delta = _softmax_residual(self._forward(layers, X, outs), y, P)
        inputs = [X, *outs[:-1]]
        for k in reversed(range(len(inputs))):  # layer k: layers[2k] @ inputs[k] + layers[2k+1]
            h = inputs[k]
            np.matmul(_T(delta), h, out=grads[2 * k])
            np.sum(delta, axis=-2, out=grads[2 * k + 1])
            if k:
                delta = np.matmul(delta, layers[2 * k], out=deltas[k - 1])
                h *= h  # the activation's last use: it becomes tanh' = 1 - tanh^2
                np.subtract(1.0, h, out=h)
                delta *= h
        return grad


def make_model(kind: str, n_features: int, n_classes: int, hidden: int = 200) -> Model:
    if kind not in ("linear", "mlp"):
        raise ValueError(f"unknown model kind: {kind}")
    return Model(n_features, n_classes, (hidden,) if kind == "mlp" else ())


# Element budget for one training block: the most clients whose widest
# activation (clients x rows x model.width float64s) stays within it train in
# one stacked call. It puts every 100-client linear round in one block and
# 200-wide MLP clients of 100 rows three to a block. While every gradient
# step allocated fresh block-sized temporaries, blocks of three were no
# faster than blocks of one: the same minimum time, a higher median, from
# allocator churn. With local_train's buffers reused across steps, three to a
# block cut the Krum workload's perfbench round_ms_p90 by about 11%.
# Thirteen to a block trained slower than three (20.1 vs 16.0 ms a round,
# interleaved), likely because its buffers outgrow the 2 MB per-core L2.
BLOCK_ELEMENTS = 65_536


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
    lead, n = y.shape[:-1], y.shape[-1]
    p = np.broadcast_to(params, lead + params.shape).copy()
    size = n if cfg.batch_size is None else min(cfg.batch_size, n)
    # One set of block-sized buffers serves every step of this call.
    buffers = model.buffers(lead + (size,))
    if cfg.batch_size is not None:
        rngs = [np.random.default_rng(s) for s in (seed if lead else [seed])]
    for _ in range(cfg.local_steps):
        Xb, yb = X, y
        if cfg.batch_size is not None:
            idx = np.stack([rng.choice(n, size=size, replace=False) for rng in rngs])
            idx = idx.reshape(lead + (size,))
            Xb = np.take_along_axis(X, idx[..., None], axis=-2)
            yb = np.take_along_axis(y, idx, axis=-1)
        g = model.gradient(p, Xb, yb, buffers)
        np.multiply(cfg.local_lr, g, out=g)
        p -= g
    return p


def evaluate_error(model, params: np.ndarray, dataset: LabeledDataset) -> float:
    """Percentage of misclassified samples; argmax ties go to the smallest class."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    pred = np.argmax(model.logits(params, dataset.features), axis=1)
    return float(100.0 * np.mean(pred != dataset.labels))
