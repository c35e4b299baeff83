import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from stpafl import models, simulation
from stpafl.attacks import AttackSpec
from stpafl.data import ClientStack, LabeledDataset, partition_iid
from stpafl.models import Model, ModelConfig, TrainConfig
from stpafl.simulation import BlobsDataConfig, ScenarioConfig, derive_seed


def cross_entropy(model, params, dataset):
    """Mean softmax cross-entropy: the loss Model.gradient differentiates."""
    z = model.logits(params, dataset.features)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(dataset)), dataset.labels].mean())


def fd_gradient(model, params, dataset, h=1e-5):
    """Central finite differences on the mean cross-entropy loss."""
    g = np.empty_like(params)
    for i in range(len(params)):
        up = params.copy()
        dn = params.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (cross_entropy(model, up, dataset) - cross_entropy(model, dn, dataset)) / (2 * h)
    return g


def pack(model, *layers):
    """The parameter vector holding these layers, written through unpack's views."""
    p = np.full(layers[1].shape[:-1] + (model.dim,), np.nan)
    for view, layer in zip(model.unpack(p), layers, strict=True):
        view[...] = layer
    return p


def random_dataset(rng, n, d, c):
    X = rng.standard_normal((n, d))
    y = rng.integers(0, c, size=n)
    return LabeledDataset(X, y, c)


def one_client(dataset):
    """dataset as the one-client ClientStack local_train takes."""
    return ClientStack(np.arange(1), dataset.features[None], dataset.labels[None])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(local_steps=0)
    with pytest.raises(ValueError):
        TrainConfig(local_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_packing_round_trip():
    lin = Model(4, 3)
    rng = np.random.default_rng(0)
    p = lin.init_params(rng)
    assert p.shape == (lin.dim,)
    W, b = lin.unpack(p)
    assert np.array_equal(pack(lin, W, b), p)

    mlp = Model(4, 3, (6,))
    q = mlp.init_params(rng)
    assert q.shape == (mlp.dim,)
    assert np.array_equal(pack(mlp, *mlp.unpack(q)), q)


def test_loss_uniform_predictor():
    # all-zero parameters predict the uniform distribution: loss = ln(C)
    for c in (2, 5, 10):
        model = Model(3, c)
        ds = random_dataset(np.random.default_rng(c), 30, 3, c)
        assert cross_entropy(model, np.zeros(model.dim), ds) == pytest.approx(np.log(c))


def test_loss_confident_correct_prediction():
    model = Model(1, 2)
    ds = LabeledDataset(np.array([[1.0]]), np.array([0]), 2)
    # large margin toward the true class drives the loss toward 0
    p = pack(model, np.array([[50.0], [-50.0]]), np.zeros(2))
    assert cross_entropy(model, p, ds) < 1e-8


def test_loss_duplication_invariance():
    model = Model(2, 3)
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, 10, 2, 3)
    doubled = LabeledDataset(
        np.vstack([ds.features, ds.features]), np.concatenate([ds.labels, ds.labels]), 3
    )
    p = model.init_params(rng)
    assert cross_entropy(model, p, ds) == pytest.approx(cross_entropy(model, p, doubled))


def test_linear_gradient_hand_case():
    # zero params, one sample x, true class 0 of 2: softmax is (1/2, 1/2), so
    # the class-0 weight-row gradient is (1/2 - 1) x = -x/2 and class 1 gets +x/2.
    model = Model(3, 2)
    x = np.array([0.4, -1.0, 2.0])
    ds = LabeledDataset(x[None, :], np.array([0]), 2)
    g = model.gradient(np.zeros(model.dim), ds.features, ds.labels)
    dW, db = model.unpack(g)
    assert np.allclose(dW[0], -0.5 * x)
    assert np.allclose(dW[1], 0.5 * x)
    assert np.allclose(db, [-0.5, 0.5])


def test_gradient_zero_at_confident_optimum():
    model = Model(1, 2)
    ds = LabeledDataset(np.array([[1.0], [-1.0]]), np.array([0, 1]), 2)
    p = pack(model, np.array([[60.0], [-60.0]]), np.zeros(2))
    assert np.linalg.norm(model.gradient(p, ds.features, ds.labels)) < 1e-10


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(42)
    model = models.make_model(ModelConfig(kind, hidden=5), 4, 3)
    for _ in range(5):
        ds = random_dataset(rng, 12, 4, 3)
        p = rng.standard_normal(model.dim) * 0.5
        g = model.gradient(p, ds.features, ds.labels)
        fd = fd_gradient(model, p, ds)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-30)
        assert rel < 1e-6


def test_two_hidden_layers_gradient_and_width():
    # The backward loop past one hidden layer, with a hidden layer narrower
    # than the logits; width is the widest layer output.
    rng = np.random.default_rng(43)
    model = Model(4, 3, (5, 2))
    assert model.dim == 5 * 4 + 5 + 2 * 5 + 2 + 3 * 2 + 3
    assert model.width == 5 and Model(4, 6, (3,)).width == 6
    ds = random_dataset(rng, 12, 4, 3)
    p = rng.standard_normal(model.dim) * 0.5
    fd = fd_gradient(model, p, ds)
    g = model.gradient(p, ds.features, ds.labels)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6
    assert np.array_equal(pack(model, *model.unpack(p)), p)


def sample_major(a):
    """A copy of a laid out as Model.buffers lays out the logits."""
    return np.ascontiguousarray(a.swapaxes(0, -2)).swapaxes(0, -2)


def reference_gradient(model, params, X, y):
    """Reference: the gradient as it was computed with a fresh array per operation."""
    layers = model.unpack(params)
    inputs = [X]
    for W, b in zip(layers[0:-2:2], layers[1:-2:2]):
        inputs.append(np.tanh(inputs[-1] @ models._T(W) + b[..., None, :]))
    logits = inputs[-1] @ models._T(layers[-2]) + layers[-1][..., None, :]
    # Row-major again after the softmax, so the backward pass below runs on
    # the layout it always had, whatever layout Model.gradient uses.
    P = np.empty((logits.shape[-1], y.size))
    delta = np.ascontiguousarray(models._softmax_residual(sample_major(logits), models._label_index(y), P))
    grads = [None] * len(layers)
    for k in reversed(range(len(inputs))):
        h = inputs[k]
        grads[2 * k] = models._T(delta) @ h
        grads[2 * k + 1] = delta.sum(axis=-2)
        if k:
            delta = (delta @ layers[2 * k]) * (1.0 - h * h)
    return pack(model, *grads)


def assert_gradient_into_buffers_bitwise(rng, F, C, hidden, lead, n):
    model = Model(F, C, hidden)
    X = rng.standard_normal(lead + (n, F))
    y = rng.integers(0, C, size=lead + (n,))
    buffers = model.buffers(y.shape)
    for _ in range(2):  # the second call runs on buffers the first one filled
        p = rng.standard_normal(lead + (model.dim,))
        fresh = model.gradient(p, X, y)
        into = model.gradient(p, X, y, buffers)
        assert into is buffers[3]
        assert np.array_equal(into, fresh)
        assert np.array_equal(fresh, reference_gradient(model, p, X, y))


@pytest.mark.parametrize("hidden", [(), (9,), (7, 5)], ids=["linear", "one_hidden", "two_hidden"])
@pytest.mark.parametrize("lead", [(), (4,), (2, 3)], ids=["one_model", "block", "two_lead_axes"])
@pytest.mark.parametrize("n", [12, 3], ids=["full_batch", "minibatch"])
def test_gradient_into_buffers_equals_fresh_arrays_bitwise(hidden, lead, n):
    rng = np.random.default_rng(len(hidden) * 100 + len(lead) * 10 + n)
    assert_gradient_into_buffers_bitwise(rng, 6, 4, hidden, lead, n)


@pytest.mark.parametrize(
    "hidden,lead,n",
    [((), (66,), 20), ((), (13,), 10), ((200,), (3,), 100)],
    ids=["device_linear", "alie_linear", "krum_mlp"],
)
def test_gradient_into_buffers_bitwise_at_workload_block_shapes(hidden, lead, n):
    # The benchmark workloads' training blocks: F = 20, C = 10. The packed
    # gradient compared below holds every bias row.
    rng = np.random.default_rng(lead[0] * 1000 + n)
    assert_gradient_into_buffers_bitwise(rng, 20, 10, hidden, lead, n)


def test_fresh_gradient_is_not_overwritten_by_a_later_call():
    rng = np.random.default_rng(44)
    model = Model(5, 3, (8,))
    X, y = rng.standard_normal((2, 10, 5)), rng.integers(0, 3, size=(2, 10))
    p, q = rng.standard_normal((2, 2, model.dim))
    g = model.gradient(p, X, y)
    kept = g.copy()
    model.gradient(q, X, y)
    model.gradient(q, X, y, model.buffers(y.shape))
    assert np.array_equal(g, kept)


def test_local_train_blocks_of_1_3_and_13_clients_bit_equal():
    # The Krum workload's shape: 13 honest MLP clients of 100 rows, F = 20,
    # 200 hidden units, C = 10.
    rng = np.random.default_rng(45)
    model = Model(20, 10, (200,))
    K = 13
    stack = ClientStack(
        np.arange(K), rng.standard_normal((K, 100, 20)), rng.integers(0, 10, size=(K, 100))
    )
    cfg = TrainConfig(local_steps=3, local_lr=0.05)
    p0 = model.init_params(rng)
    trained = {
        step: np.concatenate(
            [models.local_train(model, p0, stack.take(np.arange(a, min(a + step, K))), cfg)
             for a in range(0, K, step)]
        )
        for step in (1, 3, 13)
    }
    assert np.array_equal(trained[1], trained[3])
    assert np.array_equal(trained[1], trained[13])


def test_mlp_residual_scratch_is_one_client_sized():
    # The Krum workload's clients, two blocks of three. Each block's hidden
    # activation (3, 100, 200) also holds its residual; the product delta @ W
    # goes through one client's (100, 200) scratch. With a block-sized
    # residual per block the traced peak read 2340 KiB, with the scratch
    # 1715 KiB: the gap is 2 blocks x 2 clients x 100 x 200 float64s.
    model = Model(20, 10, (200,))
    assert [s.shape for s in model.buffers((3, 100))[1]] == [(100, 200)]
    rng = np.random.default_rng(46)
    K = 6
    stack = ClientStack(
        np.arange(K), rng.standard_normal((K, 100, 20)), rng.integers(0, 10, size=(K, 100))
    )
    assert models.block_clients(model, 100) == 3
    p0 = model.init_params(rng)
    out = np.empty((K, model.dim))
    cfg = TrainConfig(local_steps=2, local_lr=0.05)
    tracemalloc.start()
    try:
        models.local_train(model, p0, stack, cfg, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 1024


def test_local_train_zero_steps_rejected_and_descends():
    rng = np.random.default_rng(5)
    model = Model(3, 2)
    ds = random_dataset(rng, 20, 3, 2)
    p0 = model.init_params(rng)
    cfg = TrainConfig(local_steps=1, local_lr=0.01)
    (p1,) = models.local_train(model, p0, one_client(ds), cfg)
    assert cross_entropy(model, p1, ds) <= cross_entropy(model, p0, ds)
    # and the input vector is not mutated
    (p1b,) = models.local_train(model, p0, one_client(ds), cfg)
    assert np.array_equal(p1, p1b)


def test_local_train_minibatch_deterministic_by_seed():
    rng = np.random.default_rng(6)
    model = Model(3, 2)
    ds = random_dataset(rng, 30, 3, 2)
    p0 = model.init_params(rng)
    cfg = TrainConfig(local_steps=3, local_lr=0.05, batch_size=8)
    a = models.local_train(model, p0, one_client(ds), cfg, [9])
    b = models.local_train(model, p0, one_client(ds), cfg, [9])
    c = models.local_train(model, p0, one_client(ds), cfg, [10])
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_evaluate_error_perfect_and_constant():
    model = Model(1, 2)
    ds = LabeledDataset(np.array([[1.0], [-1.0]]), np.array([0, 1]), 2)
    perfect = pack(model, np.array([[10.0], [-10.0]]), np.zeros(2))
    assert models.evaluate_error(model, perfect, ds) == 0.0
    # constant classifier on balanced 2-class data: 50% error
    constant = pack(model, np.zeros((2, 1)), np.array([5.0, 0.0]))
    assert models.evaluate_error(model, constant, ds) == 50.0


@pytest.mark.parametrize("n", [1, 3, 7, 49, 1000])
def test_evaluate_error_equals_mean_of_mismatches_bitwise(n):
    # Small integer logits, so rows hold exact ties, and NaN entries, which
    # argmax takes as the largest; a stand-in model returns them as they are.
    rng = np.random.default_rng(n)
    logits = rng.integers(0, 3, size=(n, 4)).astype(np.float64)
    logits[rng.random((n, 4)) < 0.1] = np.nan
    y = rng.integers(0, 4, size=n)
    want = 100 * np.mean(np.argmax(logits, 1) != y)

    class Fixed:
        def logits(self, params, X):
            return logits.copy()

    got = models.evaluate_error(Fixed(), None, LabeledDataset(np.zeros((n, 1)), y, 4))
    assert type(got) is float
    assert np.float64(got).tobytes() == want.tobytes()


def test_evaluate_error_tie_break_to_class_zero():
    model = Model(2, 3)
    ds = LabeledDataset(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([0, 1, 2]), 3)
    # all-zero params tie every class; argmax picks class 0
    err = models.evaluate_error(model, np.zeros(model.dim), ds)
    assert err == pytest.approx(100.0 * 2 / 3)


def softmax_residual_reference(logits, y):
    """Reference: the row-wise _softmax_residual the class-major one replaced."""
    P = logits
    P -= P.max(axis=-1, keepdims=True)
    np.exp(P, out=P)
    P /= P.sum(axis=-1, keepdims=True)
    flat = P.reshape(-1, P.shape[-1])
    flat[np.arange(len(flat)), y.reshape(-1)] -= 1.0
    P /= y.shape[-1]
    return P


@pytest.mark.parametrize("M", [2, 9, 300])
def test_sum_rows_equals_np_sum_bitwise(M):
    # Every class count from 1 to 300 crosses numpy's pairwise-sum cutoffs
    # (8 terms, 128-term blocks, the split of 129 and more).
    rng = np.random.default_rng(M)
    for C in range(1, 301):
        shape = (M, C)
        A = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        A[rng.random(shape) < 0.1] = 0.0
        A[rng.random(shape) < 0.1] = -0.0
        A[0] = -0.0  # np.sum gives +0.0
        A[1, ::2] = -0.0
        A[1, 1::2] = 0.0
        want = A.sum(axis=-1)
        got = models._sum_rows(np.ascontiguousarray(A.T))
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), f"C={C}"


@pytest.mark.parametrize("C", [2, 3, 10, 17, 130])
@pytest.mark.parametrize(
    "lead",
    [(40,), (1, 100), (81, 20), (6, 3)],
    ids=["one_client", "mlp_block", "full_batch_block", "minibatch_block"],
)
def test_softmax_residual_equals_row_wise_reference(lead, C):
    rng = np.random.default_rng(C * 1000 + len(lead))
    logits = rng.standard_normal(lead + (C,)) * 10.0 ** rng.integers(-3, 3, size=lead + (C,))
    flat = logits.reshape(-1, C)
    flat[0, -1] = np.inf
    flat[1, 0] = -np.inf
    flat[2, 1] = np.nan
    flat[3] = -np.inf
    y = rng.integers(0, C, size=lead)
    got = sample_major(logits)
    with np.errstate(invalid="ignore"):  # inf - inf in the rows made nonfinite above
        want = softmax_residual_reference(logits.copy(), y)
        assert models._softmax_residual(got, models._label_index(y), np.empty((C, y.size))) is got
    assert np.array_equal(got, want, equal_nan=True)


def per_client_train(model, params, dataset, cfg, seed=0):
    """Reference: the one-client-at-a-time training loop the stacked path replaced."""
    rng = np.random.default_rng(seed)
    p = params.copy()
    for _ in range(cfg.local_steps):
        if cfg.batch_size is None:
            X, y = dataset.features, dataset.labels
        else:
            idx = rng.choice(len(dataset), size=min(cfg.batch_size, len(dataset)), replace=False)
            X, y = dataset.features[idx], dataset.labels[idx]
        p -= cfg.local_lr * model.gradient(p, X, y)
    return p


def client_rows(stack, k, n_classes):
    return LabeledDataset(stack.features[k], stack.labels[k], n_classes)


STACK_CASES = [
    # (model kind, clients, rows, batch_size)
    ("linear", 1, 12, None),
    ("linear", 7, 12, None),
    ("linear", 7, 12, 5),
    ("linear", 3, 4, 9),  # batch larger than a client: every row, shuffled
    ("mlp", 1, 10, None),
    ("mlp", 5, 10, None),
    ("mlp", 5, 10, 3),
    # Block shapes of the benchmark workloads: ALIE's 13 honest clients of 10
    # rows, a device block of 66 clients of 20 rows, an MLP block of 3 of 100.
    ("linear", 13, 10, None),
    ("linear", 13, 10, 4),
    ("linear", 66, 20, None),
    ("mlp", 3, 100, None),
    ("mlp", 3, 100, 32),
]


@pytest.mark.parametrize("kind,K,N,batch", STACK_CASES)
def test_stacked_local_train_equals_per_client_loop(kind, K, N, batch):
    rng = np.random.default_rng(K * 100 + N)
    model = models.make_model(ModelConfig(kind, hidden=9), 6, 4)
    stack = ClientStack(
        np.arange(K), rng.standard_normal((K, N, 6)), rng.integers(0, 4, size=(K, N))
    )
    cfg = TrainConfig(local_steps=3, local_lr=0.1, batch_size=batch)
    p0 = model.init_params(rng)
    seeds = [1000 + k for k in range(K)]
    out = models.local_train(model, p0, stack, cfg, seeds)
    assert out.shape == (K, model.dim)
    for k in range(K):
        ref = per_client_train(model, p0, client_rows(stack, k, 4), cfg, seeds[k])
        assert out[k].tobytes() == ref.tobytes()


def two_size_round(kind, batch, monkeypatch):
    """A round of 8 of 12 clients in sizes 10 and 11, two clients to a block.

    130 rows over 12 clients give sizes 10 and 11; a small budget splits each
    size group into several blocks with a ragged last one.
    """
    cfg = ScenarioConfig(
        scenario="cross_device", n_clients=12, n_malicious=0, clients_per_round=8,
        rounds=1, seed=2, model=ModelConfig(kind, hidden=7),
        train=TrainConfig(local_steps=2, local_lr=0.05, batch_size=batch),
        data=BlobsDataConfig(n_classes=5, dim=4, samples_per_class=26, test_samples_per_class=2),
    )
    train, _ = simulation.build_data(cfg)
    pool = simulation.setup_client_datasets(cfg, train)
    assert [s.labels.shape[1] for s in pool.stacks] == [10, 11]
    model = models.make_model(ModelConfig(kind, hidden=7), 4, 5)
    monkeypatch.setattr(models, "BLOCK_ELEMENTS", 2 * 11 * model.width)
    assert models.block_clients(model, 10) == 2 and models.block_clients(model, 11) == 2
    w = model.init_params(np.random.default_rng(0))
    return cfg, pool, model, w, [0, 2, 3, 5, 6, 7, 8, 11]


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("batch", [None, 3])
def test_train_clients_blocks_and_two_sizes_equal_per_client_loop(kind, batch, monkeypatch):
    cfg, pool, model, w, ids = two_size_round(kind, batch, monkeypatch)
    helpers = []

    class SpyThread(threading.Thread):
        def start(self):
            helpers.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", SpyThread)
    out = np.empty((len(ids), model.dim))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
    try:
        simulation.train_clients(model, w, pool, ids, cfg, 4, out=out)
    finally:
        sys.setswitchinterval(interval)
    # One helper per size group of two or more blocks, joined before the return.
    assert len(helpers) == sum(np.isin(s.ids, ids).sum() > 2 for s in pool.stacks) >= 1
    assert not any(h.is_alive() for h in helpers)
    rows = {int(c): (s, k) for s in pool.stacks for k, c in enumerate(s.ids)}
    for i, cid in enumerate(ids):
        stack, k = rows[cid]
        ref = per_client_train(
            model, w, client_rows(stack, k, 5), cfg.train, derive_seed(cfg.seed, 4, 4, cid)
        )
        assert out[i].tobytes() == ref.tobytes()


@pytest.mark.parametrize("where", ["helper", "main"])
def test_train_clients_raises_a_block_error_after_joining_the_helper(where, monkeypatch):
    cfg, pool, model, w, ids = two_size_round("mlp", None, monkeypatch)
    ids = [cid for cid in ids if cid in pool.stacks[1].ids]  # one group of four blocks
    assert len(ids) == 7
    gradient = model._gradient
    barrier = threading.Barrier(2, timeout=10)
    entered = set()

    def failing(*args):
        if threading.get_ident() not in entered:
            entered.add(threading.get_ident())
            barrier.wait()  # each thread holds a block
            if (threading.current_thread() is threading.main_thread()) == (where == "main"):
                raise ArithmeticError(f"block failed on the {where} thread")
            # Keep the helper busy past the main thread's error, so an error
            # raised before the join would leave it running.
            time.sleep(0.05)
        return gradient(*args)

    monkeypatch.setattr(model, "_gradient", failing)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match=f"^block failed on the {where} thread$"):
        simulation.train_clients(model, w, pool, ids, cfg, 4, out=np.empty((len(ids), model.dim)))
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "n_clients,samples_per_class,n_trained",
    # ALIE's 13 honest clients of 10 rows; a device round's 66 of 20 rows.
    [(20, 20, 13), (300, 600, 66)],
    ids=["alie", "device"],
)
def test_single_block_rounds_start_no_thread(n_clients, samples_per_class, n_trained, monkeypatch):
    cfg = ScenarioConfig(
        scenario="cross_silo", n_clients=n_clients, n_malicious=0, clients_per_round=n_clients,
        rounds=1, seed=0, data=BlobsDataConfig(samples_per_class=samples_per_class),
    )
    train, _ = simulation.build_data(cfg)
    pool = simulation.setup_client_datasets(cfg, train)
    model = models.make_model(cfg.model, train.n_features, train.n_classes)
    assert len(pool.stacks) == 1
    assert models.block_clients(model, pool.stacks[0].labels.shape[1]) >= n_trained

    def no_thread(*args, **kwargs):
        raise AssertionError("a single-block round started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    ids = list(range(n_clients - n_trained, n_clients))
    w = model.init_params(np.random.default_rng(1))
    simulation.train_clients(model, w, pool, ids, cfg, 0, out=np.empty((n_trained, model.dim)))


def corrupted(spec, dataset, seed):
    """Reference: a data-level attack applied to one client's own dataset."""
    if spec.kind == "noisy":
        u = np.random.default_rng(seed).uniform(spec.low, spec.high, size=dataset.features.shape)
        noisy = np.clip(dataset.features + u, spec.clip_lo, spec.clip_hi)
        return LabeledDataset(noisy, dataset.labels, dataset.n_classes)
    flipped = np.full_like(dataset.labels, spec.target)
    return LabeledDataset(dataset.features, flipped, dataset.n_classes)


@pytest.mark.parametrize("attack", ["noisy", "label_flip"])
def test_pool_rows_equal_corrupted_partition(attack):
    cfg = ScenarioConfig(
        scenario="cross_silo", n_clients=7, n_malicious=3, clients_per_round=7,
        rounds=0, seed=5, attack=AttackSpec(attack),
        data=BlobsDataConfig(n_classes=3, dim=4, samples_per_class=15, test_samples_per_class=2),
    )
    train, _ = simulation.build_data(cfg)
    pool = simulation.setup_client_datasets(cfg, train)
    plan = partition_iid(train, cfg.n_clients, derive_seed(cfg.seed, 2))
    assert pool.counts.tolist() == [len(idx) for idx in plan] == [7, 7, 7, 6, 6, 6, 6]
    seen = []
    for stack in pool.stacks:
        assert np.all(np.diff(stack.ids) > 0)
        for k, cid in enumerate(stack.ids):
            expected = train.subset(plan[cid])
            if cid < cfg.n_malicious:
                expected = corrupted(cfg.attack, expected, derive_seed(cfg.seed, 3, cid))
            assert np.array_equal(stack.features[k], expected.features)
            assert np.array_equal(stack.labels[k], expected.labels)
            seen.append(int(cid))
    assert sorted(seen) == list(range(cfg.n_clients))
