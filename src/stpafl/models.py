"""A small softmax classifier with analytic gradients, and local training.

The linear model and the MLP are one Model, with zero or one hidden tanh
layer. It operates on a single flat float64 parameter vector with a fixed,
documented packing order, so aggregation rules can treat client submissions
as plain vectors.
"""

import math
import threading
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
        if not 0 < self.local_lr < math.inf:
            raise ValueError("local_lr must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class ModelConfig:
    kind: str = "linear"  # linear | mlp
    hidden: int = 200

    def __post_init__(self):
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"unknown model kind: {self.kind}")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")


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


def _label_index(y: np.ndarray) -> np.ndarray:
    """The flat positions in the (C, M) class-major P of the M labels y, lead + (N,)."""
    M = y.size
    return y.swapaxes(0, -1).reshape(-1) * M + np.arange(M)


def _softmax_residual(logits: np.ndarray, labels: np.ndarray, P: np.ndarray) -> np.ndarray:
    """d(mean cross-entropy)/d(logits) = (softmax - onehot(y)) / n_samples.

    labels is _label_index(y). Overwrites logits and returns it. logits must be
    sample-major, as Model.buffers, its only source, lays it out: in another
    layout the residual would land in a reshape copy and be lost. The work runs
    class-major, on a (C, M) copy of the M rows of logits, made in P. Row-major,
    the max and the sum reduce the short class axis once per row, M times per
    call, and that per-row cost dominated a linear gradient step; class-major,
    each step is a few calls over rows of length M, and the division by
    n_samples runs on contiguous P before one transposed copy back. _sum_rows
    keeps the normalising sums equal to np.sum(axis=-1) bit for bit, so trained
    models do not change.
    """
    flat = logits.swapaxes(0, -2).reshape(-1, logits.shape[-1])
    P[...] = flat.T
    P -= np.maximum.reduce(P, axis=0)
    np.exp(P, out=P)
    P /= _sum_rows(P)
    P.reshape(-1)[labels] -= 1.0
    P /= logits.shape[-2]
    flat[...] = P.T
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

    def init_params(self, rng: "np.random.Generator") -> np.ndarray:  # see simulation.ExperimentState
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

        (outs, scratch, P, grad, grads): each layer's output, (…, N, n_out),
        which holds the tanh activations and the logits, and then the hidden
        layers' backpropagated residuals; one client's (N, n_out) product per
        hidden layer, which the backward pass forms one client at a time; the
        (C, M) class-major softmax copy; the (…, dim) packed gradient, and its
        unpack views, which the backward pass writes. The logits are a
        sample-major (N, …, C) array seen through swapaxes(0, -2), so the
        bias gradient sums contiguous rows; the hidden outputs stay
        row-major, which the MLP and ALIE steps run faster on.
        """
        outs = [np.empty(shape + (n_out,)) for (n_out, _), *_ in self._layers[:-1]]
        scratch = [np.empty(h.shape[-2:]) for h in outs]
        dims = [*shape, self._layers[-1][0][0]]
        dims[0], dims[-2] = dims[-2], dims[0]
        outs.append(np.empty(dims).swapaxes(0, -2))
        P = np.empty((outs[-1].shape[-1], math.prod(shape)))
        grad = np.empty(shape[:-1] + (self.dim,))
        return outs, scratch, P, grad, self.unpack(grad)

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
        buffers = self.buffers(y.shape) if buffers is None else buffers
        return self._gradient(self.unpack(params), X, _label_index(y), buffers)

    def _gradient(self, layers, X, labels, buffers) -> np.ndarray:
        """gradient on unpack(params) and _label_index(y), into buffers."""
        outs, scratch, P, grad, grads = buffers
        delta = _softmax_residual(self._forward(layers, X, outs), labels, P)
        inputs = [X, *outs[:-1]]
        for k in reversed(range(len(inputs))):  # layer k: layers[2k] @ inputs[k] + layers[2k+1]
            h = inputs[k]
            np.matmul(_T(delta), h, out=grads[2 * k])
            np.add.reduce(delta, axis=-2, out=grads[2 * k + 1])
            if k:
                h *= h  # the activation's last use: it becomes tanh' = 1 - tanh^2
                np.subtract(1.0, h, out=h)
                # tanh' times delta @ W, one client at a time: the dgemm a batched matmul runs for it
                for i in np.ndindex(h.shape[:-2]):
                    h[i] *= np.matmul(delta[i], layers[2 * k][i], out=scratch[k - 1])
                delta = h  # the residual, where the activation was
        return grad


def make_model(cfg: ModelConfig, n_features: int, n_classes: int) -> Model:
    return Model(n_features, n_classes, (cfg.hidden,) if cfg.kind == "mlp" else ())


# Element budget for one training block: the most clients whose widest
# activation (clients x rows x model.width float64s) stays within it train in
# one stacked call. It puts every 100-client linear round in one block and
# 200-wide MLP clients of 100 rows three to a block. While every gradient
# step allocated fresh block-sized temporaries, blocks of three were no
# faster than blocks of one: the same minimum time, a higher median, from
# allocator churn. With local_train's buffers reused across steps, three to a
# block cut the Krum workload's perfbench round_ms_p90 by about 11%.
# Thirteen to a block trained slower than three (20.1 vs 16.0 ms a round,
# interleaved), likely because its buffers outgrow the 2 MB per-core L2. That
# holds with local_train's helper thread too: two blocks train at once, one
# per core, so each block still has one core's L2 to itself.
BLOCK_ELEMENTS = 65_536


def block_clients(model, n_rows: int) -> int:
    """Clients per training block for clients of n_rows samples each."""
    return max(1, BLOCK_ELEMENTS // max(1, n_rows * model.width))


def local_train(
    model, params: np.ndarray, stack: ClientStack, cfg: TrainConfig, seeds=None, out=None
) -> np.ndarray:
    """Run cfg.local_steps gradient-descent steps at rate cfg.local_lr.

    Each of the K clients of stack starts from params; returns (K, dim), in
    out when given. seeds, one per client, draw the minibatches and are read
    only for them.

    The clients train in blocks of block_clients. With two or more blocks,
    one helper thread and this one each take the next untrained block until
    none is left. A block writes only its own rows of the result, and a
    client's model depends neither on its block nor on the thread, so the
    result is the same bits either way. An error in either thread is raised
    here once the helper is joined.
    """
    K, n = stack.labels.shape
    p = np.empty((K,) + params.shape) if out is None else out
    p[...] = params
    step = block_clients(model, n)
    starts = iter(range(0, K, step))  # both threads draw from it; next runs under the GIL

    def train():
        for a in starts:
            block = slice(a, a + step)
            _descend(model, p[block], stack.take(block), cfg, None if seeds is None else seeds[block])

    if K <= step:
        train()
        return p
    errors = []

    def helper():
        try:
            train()
        except BaseException as exc:  # re-raised below, once the helper is joined
            errors.append(exc)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        train()
    finally:
        thread.join()
    if errors:
        raise errors[0]
    return p


def _descend(model, p: np.ndarray, block: ClientStack, cfg: TrainConfig, seeds) -> None:
    """local_train's steps for one block: p, (k, dim), descends in place."""
    X, y = block.features, block.labels
    k, n = y.shape
    size = n if cfg.batch_size is None else min(cfg.batch_size, n)
    # One set of block-sized buffers, p's views and, on full batches, the
    # label index serve every step of this block.
    buffers = model.buffers((k, size))
    layers = model.unpack(p)
    if cfg.batch_size is None:
        Xb, labels = X, _label_index(y)
    else:
        rngs = [np.random.default_rng(s) for s in seeds]
    for _ in range(cfg.local_steps):
        if cfg.batch_size is not None:
            idx = np.stack([rng.choice(n, size=size, replace=False) for rng in rngs])
            Xb = np.take_along_axis(X, idx[..., None], axis=-2)
            labels = _label_index(np.take_along_axis(y, idx, axis=-1))
        g = model._gradient(layers, Xb, labels, buffers)
        np.multiply(cfg.local_lr, g, out=g)
        p -= g


def evaluate_error(model, params: np.ndarray, dataset: LabeledDataset) -> float:
    """Percentage of misclassified samples; argmax ties go to the smallest class."""
    pred = np.argmax(model.logits(params, dataset.features), axis=1)
    # np.mean's float64 count over n, as one exact count and one division.
    return float(100.0 * (np.count_nonzero(pred != dataset.labels) / len(pred)))
