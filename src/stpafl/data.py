"""Dataset generation, IDX/CSV loading, normalization, partitioning, stacking.

Corruption by data-level attacks lives in attacks.py.

All stochastic operations take an explicit integer seed and use numpy's
default PCG64 generator, so every operation is bit-exact reproducible.
"""

from __future__ import annotations

import struct
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
        if np.isnan(self.features).any():
            raise ValueError("features contain NaN")
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
    """Every client's dataset, one ClientStack per distinct size."""

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


def normalize(dataset: LabeledDataset, lo: float, hi: float) -> LabeledDataset:
    """Affinely map the global feature range into [lo, hi].

    A degenerate raw range (max == min) maps everything to the midpoint.
    """
    if hi <= lo:
        raise ValueError("hi must exceed lo")
    fmin = dataset.features.min()
    fmax = dataset.features.max()
    if fmax == fmin:
        mapped = np.full_like(dataset.features, (lo + hi) / 2.0)
    else:
        mapped = lo + (dataset.features - fmin) * (hi - lo) / (fmax - fmin)
    return LabeledDataset(mapped, dataset.labels.copy(), dataset.n_classes)


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
    Features are normalized into [-1, 1] afterwards. The sizes and spread
    are those of a BlobsDataConfig, which checks their ranges.
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

    features = np.empty((n_classes * samples_per_class, dim))
    labels = np.empty(n_classes * samples_per_class, dtype=np.int64)
    for c in range(n_classes):
        lo = c * samples_per_class
        noise = rng.standard_normal((samples_per_class, dim))
        features[lo : lo + samples_per_class] = centroids[c] + spread * noise
        labels[lo : lo + samples_per_class] = c
    raw = LabeledDataset(features, labels, n_classes)
    return normalize(raw, -1.0, 1.0)


def _read_idx_header(raw: bytes, path, expected_magic: int, n_dims: int):
    header_len = 4 + 4 * n_dims
    if len(raw) < header_len:
        raise IdxFormatError(f"{path}: file shorter than its header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise IdxFormatError(f"{path}: wrong magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    dims = struct.unpack(f">{n_dims}I", raw[4:header_len])
    return dims, raw[header_len:]


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an IDX image/label pair, flattening images and scaling to [-1, 1].

    Pixel bytes use the fixed [0, 255] range, so 0 -> -1.0 and 255 -> 1.0.
    """
    with open(images_path, "rb") as fh:
        raw = fh.read()
    (n_images, rows, cols), body = _read_idx_header(raw, images_path, IDX_IMAGES_MAGIC, 3)
    expected = n_images * rows * cols
    if len(body) < expected:
        raise IdxFormatError(f"{images_path}: expected {expected} pixel bytes, got {len(body)}")
    pixels = np.frombuffer(body[:expected], dtype=np.uint8).reshape(n_images, rows * cols)

    with open(labels_path, "rb") as fh:
        raw = fh.read()
    (n_labels,), body = _read_idx_header(raw, labels_path, IDX_LABELS_MAGIC, 1)
    if len(body) < n_labels:
        raise IdxFormatError(f"{labels_path}: expected {n_labels} label bytes, got {len(body)}")
    labels = np.frombuffer(body[:n_labels], dtype=np.uint8).astype(np.int64)

    if n_labels != n_images:
        raise IdxFormatError(
            f"{images_path} has {n_images} images but {labels_path} has {n_labels} labels"
        )
    features = pixels.astype(np.float64) * (2.0 / 255.0) - 1.0
    n_classes = int(labels.max()) + 1 if n_labels else 1
    return LabeledDataset(features, labels, n_classes)


def partition_iid(dataset: LabeledDataset, n_clients: int, seed: int) -> list[np.ndarray]:
    """Shuffle rows by seed, then deal round-robin; sizes differ by at most 1."""
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
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
        n_classes = int(first.split("=", 1)[1])
        width = len(fh.readline().split(",")) - 1  # column header: label, then features
        labels = []
        rows = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            labels.append(int(parts[0]))
            rows.append([float(x) for x in parts[1:]])
    # A file without rows takes its width from the header, so it loads as (0, width).
    features = np.array(rows, dtype=np.float64) if rows else np.empty((0, width))
    return LabeledDataset(features, np.array(labels, dtype=np.int64), n_classes)
