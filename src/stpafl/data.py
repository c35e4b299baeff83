"""Dataset generation, IDX/CSV loading, normalization, partitioning, stacking.

Corruption by data-level attacks lives in attacks.py.

All stochastic operations take an explicit integer seed and use numpy's
default PCG64 generator, so every operation is bit-exact reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """A malformed IDX file, or an image/label pair that disagree on the sample count."""


@dataclass
class LabeledDataset:
    features: np.ndarray  # (n_samples, n_features) float64
    labels: np.ndarray  # (n_samples,) int64
    n_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must match feature rows")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain NaN or infinity")
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels out of range [0, n_classes)")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx], self.n_classes)


@dataclass
class ClientStack:
    """Datasets of equal size stacked on a leading client axis."""

    ids: np.ndarray  # (K,) client ids, ascending
    features: np.ndarray  # (K, N, F) float64
    labels: np.ndarray  # (K, N) int64

    def __len__(self) -> int:
        """Total rows over all K clients."""
        return self.labels.size

    def take(self, rows) -> "ClientStack":
        return ClientStack(self.ids[rows], self.features[rows], self.labels[rows])


@dataclass
class ClientPool:
    """Every client's dataset, one ClientStack per distinct size.

    Each stack holds consecutive client ids, which train_clients relies on
    and both partitioners guarantee: partition_iid deals the larger size to
    the lowest ids, and shards give every client one size.
    """

    stacks: list  # ClientStack, by ascending size
    counts: np.ndarray  # (n_clients,) int64 samples per client, indexed by client id

    @classmethod
    def from_partition(cls, dataset: LabeledDataset, assignments: list):
        """Stack each client's rows of dataset."""
        counts = np.array([len(idx) for idx in assignments], dtype=np.int64)
        stacks = []
        # sorted(set()) rather than np.unique, whose first call imports numpy.ma.
        for n in sorted(set(counts.tolist())):
            ids = np.flatnonzero(counts == n)
            rows = np.stack([assignments[cid] for cid in ids])
            stacks.append(ClientStack(ids, dataset.features[rows], dataset.labels[rows]))
        return cls(stacks, counts)


def generate_blobs(
    n_classes: int,
    dim: int,
    samples_per_class: int,
    spread: float,
    seed: int,
) -> LabeledDataset:
    """Balanced isotropic Gaussian blobs around separated per-class centroids.

    Centroids are seed-dependent signed hypercube corners (6 * {-1,+1}^dim
    plus a small jitter), which keeps them pairwise separated, gives the
    features near-zero mean, and spreads signal across every coordinate.
    Features are then mapped affinely onto [-1, 1], global min to -1 and max
    to 1. The sizes and spread are those of a BlobsDataConfig, which checks
    their ranges.
    """
    rng = np.random.default_rng(seed)
    corners = rng.choice([-1.0, 1.0], size=(n_classes, dim))
    # repeated corners (possible when n_classes > 2^dim) move to an outer shell
    seen: dict = {}
    centroids = np.empty((n_classes, dim))
    for c in range(n_classes):
        key = tuple(corners[c])
        seen[key] = seen.get(key, 0) + 1
        centroids[c] = 6.0 * seen[key] * corners[c]
    centroids += 0.25 * rng.standard_normal((n_classes, dim))

    # One draw reads the stream in the order of one (samples_per_class, dim)
    # draw per class; scaling and shifting it in place allocates no temporaries.
    features = rng.standard_normal((n_classes, samples_per_class, dim))
    features *= spread
    features += centroids[:, None]
    fmin, fmax = features.min(), features.max()
    # -1 + (x - fmin) * 2 / (fmax - fmin), in that order of operations.
    features -= fmin
    features *= 2.0
    features /= fmax - fmin
    features += -1.0
    labels = np.repeat(np.arange(n_classes), samples_per_class)
    return LabeledDataset(features.reshape(-1, dim), labels, n_classes)


def _read_idx(path, magic: int, n_dims: int, unit: str):
    """The dims of an IDX file and a view of exactly prod(dims) body bytes, read once."""
    raw = np.fromfile(path, dtype=np.uint8)
    header_len = 4 + 4 * n_dims
    if len(raw) < header_len:
        raise IdxFormatError(f"{path}: file shorter than its header")
    # Python ints, so the product of the dims cannot wrap.
    found, *dims = raw[:header_len].view(">u4").tolist()
    if found != magic:
        raise IdxFormatError(f"{path}: wrong magic 0x{found:08x}, expected 0x{magic:08x}")
    expected, body = math.prod(dims), raw[header_len:]
    if len(body) < expected:
        raise IdxFormatError(f"{path}: expected {expected} {unit} bytes, got {len(body)}")
    return dims, body[:expected]


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an IDX image/label pair, flattening images and scaling to [-1, 1].

    Pixel bytes use the fixed [0, 255] range, so 0 -> -1.0 and 255 -> 1.0.
    """
    (n_images, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3, "pixel")
    (n_labels,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "label")
    if n_labels != n_images:
        raise IdxFormatError(
            f"{images_path} has {n_images} images but {labels_path} has {n_labels} labels"
        )
    # In place: the two roundings of pixels * (2 / 255) - 1, and one float64
    # copy even below 256 KiB, where numpy stops eliding the temporary.
    features = pixels.reshape(n_images, rows * cols).astype(np.float64)
    del pixels  # the file's bytes go before LabeledDataset's finiteness mask is made
    features *= 2.0 / 255.0
    features -= 1.0
    n_classes = int(labels.max()) + 1 if n_labels else 1
    return LabeledDataset(features, labels, n_classes)


def partition_iid(dataset: LabeledDataset, n_clients: int, seed: int) -> list[np.ndarray]:
    """Shuffle rows by seed, then deal round-robin; sizes differ by at most 1."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(dataset))
    return [perm[k::n_clients].copy() for k in range(n_clients)]


def partition_noniid_shards(
    dataset: LabeledDataset,
    n_clients: int,
    shards_per_client: int,
    shard_size: int,
    seed: int,
) -> list[np.ndarray]:
    """Label-sorted shards of fixed size, shuffled and dealt per client.

    Rows beyond n_clients * shards_per_client * shard_size are discarded; the
    dataset must hold that many (simulation.check_data checks it).
    """
    order = np.argsort(dataset.labels, kind="stable")
    n_shards = len(dataset) // shard_size
    shards = [order[i * shard_size : (i + 1) * shard_size] for i in range(n_shards)]
    rng = np.random.default_rng(seed)
    shard_order = rng.permutation(n_shards)[: n_clients * shards_per_client]
    assignments = []
    for k in range(n_clients):
        picked = shard_order[k * shards_per_client : (k + 1) * shards_per_client]
        assignments.append(np.concatenate([shards[s] for s in picked]))
    return assignments


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write a dataset as CSV: a '# n_classes=K' line, a header, then rows.

    Floats use repr for full round-trip precision; same dataset -> same bytes.
    """
    with open(path, "w") as fh:
        fh.write(f"# n_classes={dataset.n_classes}\n")
        cols = ",".join(f"f{j}" for j in range(dataset.n_features))
        fh.write(f"label,{cols}\n")
        for i in range(len(dataset)):
            row = ",".join(repr(float(x)) for x in dataset.features[i])
            fh.write(f"{dataset.labels[i]},{row}\n")


def load_csv(path) -> LabeledDataset:
    with open(path) as fh:
        first = fh.readline().strip()
        if not first.startswith("# n_classes="):
            raise ValueError(f"{path}: missing n_classes header line")
        try:
            n_classes = int(first.split("=", 1)[1])
        except ValueError as exc:
            raise ValueError(f"{path}: line 1: {exc}") from None
        width = len(fh.readline().split(",")) - 1  # column header: label, then features
        labels, rows, blank = [], [], None
        for lineno, line in enumerate(fh, start=3):
            if not line.strip():  # held back: a blank line fails below only if a row follows
                blank = blank or (lineno, line)
                continue
            lineno, line = blank or (lineno, line)
            label, *row = line.rstrip("\n").split(",")
            if len(row) != width:
                raise ValueError(
                    f"{path}: line {lineno} has {len(row)} features, the header has {width}"
                )
            try:
                labels.append(int(label))
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    # Every row has the header's width, so a file without rows loads as (0, width).
    features = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    return LabeledDataset(features, np.array(labels, dtype=np.int64), n_classes)
