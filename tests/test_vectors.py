import numpy as np
import pytest

from stpafl.stpa import cosine_similarity
from stpafl.vectors import ClientUpdate


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity(np.ones(2), np.ones(3))


def test_cosine_parallel():
    assert cosine_similarity(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_antiparallel():
    assert cosine_similarity(np.array([1.0, 2.0]), np.array([-1.0, -2.0])) == pytest.approx(-1.0)


def test_cosine_zero_norm_convention():
    assert cosine_similarity(np.zeros(2), np.array([1.0, 1.0])) == 0.0
    assert cosine_similarity(np.array([1.0, 1.0]), np.zeros(2)) == 0.0
    tiny = np.full(2, 1e-13)
    assert cosine_similarity(tiny, np.array([1.0, 1.0])) == 0.0


def test_cosine_clipped_to_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        assert -1.0 <= cosine_similarity(a, b) <= 1.0


def test_client_update_validation():
    u = ClientUpdate([1.0, 2.0], 10)
    assert u.dim == 2
    assert u.model.dtype == np.float64
    with pytest.raises(ValueError):
        ClientUpdate([1.0], 0)
