import struct

import numpy as np
import pytest

from stpafl import data
from stpafl.data import IdxFormatError, LabeledDataset


def idx_image_bytes(images):
    """Hand-build an IDX image file: magic 0x803, dims, then raw pixels."""
    arr = np.asarray(images, dtype=np.uint8)
    n, rows, cols = arr.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + arr.tobytes()


def idx_label_bytes(labels):
    arr = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, len(arr)) + arr.tobytes()


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros(3), np.zeros(3, dtype=int), 2)  # 1-D features
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 2)), np.array([0]), 2)  # length mismatch
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((1, 1)), np.array([5]), 2)  # label out of range
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[np.nan]]), np.array([0]), 2)


def test_subset():
    ds = LabeledDataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), 2)
    sub = ds.subset([2, 0])
    assert np.array_equal(sub.features, [[4.0, 5.0], [0.0, 1.0]])
    assert np.array_equal(sub.labels, [0, 0])


def test_normalize_endpoints_and_midpoint():
    ds = LabeledDataset(np.array([[0.0, 127.5, 255.0]]), np.array([0]), 1)
    out = data.normalize(ds, -1.0, 1.0)
    assert np.allclose(out.features, [[-1.0, 0.0, 1.0]])


def test_normalize_degenerate_range():
    ds = LabeledDataset(np.full((2, 2), 7.0), np.array([0, 0]), 1)
    out = data.normalize(ds, -1.0, 1.0)
    assert np.array_equal(out.features, np.zeros((2, 2)))


def test_blobs_construction():
    ds = data.generate_blobs(2, 5, 100, 1.0, 42)
    assert len(ds) == 200
    assert ds.n_features == 5
    counts = np.bincount(ds.labels)
    assert np.array_equal(counts, [100, 100])
    assert ds.features.min() >= -1.0 and ds.features.max() <= 1.0


def test_blobs_zero_spread_collapses_to_centroids():
    ds = data.generate_blobs(3, 4, 10, 0.0, 1)
    for c in range(3):
        rows = ds.features[ds.labels == c]
        assert np.allclose(rows, rows[0])


def test_blobs_deterministic():
    a = data.generate_blobs(4, 6, 20, 0.7, 99)
    b = data.generate_blobs(4, 6, 20, 0.7, 99)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_separable_at_low_spread():
    ds = data.generate_blobs(10, 20, 30, 0.5, 3)
    # nearest-centroid classification should be essentially perfect
    cents = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(10)])
    d2 = ((ds.features[:, None, :] - cents[None]) ** 2).sum(axis=2)
    assert np.mean(np.argmin(d2, axis=1) == ds.labels) > 0.99


def test_load_idx_hand_crafted_round_trip(tmp_path):
    # two 2x2 images with extreme pixels: 0 -> -1.0, 255 -> 1.0
    images = [[[0, 255], [255, 0]], [[255, 255], [0, 0]]]
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(idx_image_bytes(images))
    lp.write_bytes(idx_label_bytes([1, 0]))
    ds = data.load_idx(ip, lp)
    assert ds.features.shape == (2, 4)
    assert np.array_equal(ds.features, [[-1.0, 1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
    assert np.array_equal(ds.labels, [1, 0])
    assert ds.n_classes == 2


def test_load_idx_wrong_magic(tmp_path):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(idx_image_bytes([[[0]]]))
    # labels file wearing the image magic
    lp.write_bytes(struct.pack(">II", 0x00000803, 1) + b"\x00")
    with pytest.raises(IdxFormatError, match="wrong magic 0x00000803, expected 0x00000801"):
        data.load_idx(ip, lp)


def test_load_idx_truncated(tmp_path):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(idx_image_bytes([[[0, 1], [2, 3]]])[:-2])  # drop 2 pixel bytes
    lp.write_bytes(idx_label_bytes([0]))
    with pytest.raises(IdxFormatError, match="expected 4 pixel bytes, got 2"):
        data.load_idx(ip, lp)


def test_load_idx_count_mismatch(tmp_path):
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(idx_image_bytes([[[0]], [[1]]]))
    lp.write_bytes(idx_label_bytes([0]))
    with pytest.raises(IdxFormatError, match="has 2 images but .* has 1 labels"):
        data.load_idx(ip, lp)


def test_partition_iid_even_split():
    ds = LabeledDataset(np.zeros((100, 1)), np.zeros(100, dtype=int), 1)
    plan = data.partition_iid(ds, 10, 0)
    sizes = [len(a) for a in plan]
    assert sizes == [10] * 10
    all_idx = np.sort(np.concatenate(plan))
    assert np.array_equal(all_idx, np.arange(100))


def test_partition_iid_pigeonhole():
    ds = LabeledDataset(np.zeros((101, 1)), np.zeros(101, dtype=int), 1)
    sizes = sorted(len(a) for a in data.partition_iid(ds, 10, 0))
    assert sizes == [10] * 9 + [11]


def test_partition_iid_deterministic():
    ds = LabeledDataset(np.zeros((50, 1)), np.zeros(50, dtype=int), 1)
    a = data.partition_iid(ds, 7, 5)
    b = data.partition_iid(ds, 7, 5)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_partition_shards_single_class_clients():
    # 2 classes x 50 samples, 2 clients, 1 shard of 50 each: every client
    # ends up holding exactly one class.
    ds = data.generate_blobs(2, 3, 50, 0.5, 0)
    plan = data.partition_noniid_shards(ds, 2, 1, 50, 1)
    held = [set(ds.labels[a]) for a in plan]
    assert all(len(h) == 1 for h in held)
    assert held[0] != held[1]


def test_partition_shards_label_concentration():
    ds = data.generate_blobs(10, 4, 60, 0.5, 2)
    plan = data.partition_noniid_shards(ds, 10, 2, 30, 3)
    for a in plan:
        assert len(a) == 60
        assert len(set(ds.labels[a])) <= 2


def test_csv_round_trip(tmp_path):
    ds = data.generate_blobs(3, 4, 10, 0.9, 17)
    p = tmp_path / "blob.csv"
    data.save_csv(ds, p)
    back = data.load_csv(p)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.n_classes == ds.n_classes


def test_csv_same_dataset_same_bytes(tmp_path):
    ds = data.generate_blobs(2, 3, 5, 0.4, 8)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    data.save_csv(ds, p1)
    data.save_csv(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_without_rows_loads_header_width(tmp_path):
    ds = data.generate_blobs(3, 4, 10, 0.9, 17).subset([])
    p = tmp_path / "empty.csv"
    data.save_csv(ds, p)
    back = data.load_csv(p)
    assert back.features.shape == (0, 4)
    assert len(back.labels) == 0 and back.n_classes == 3
