import numpy as np
import pytest

from blockwalk.dataset import DataMatrix, smooth


ALL_KINDS = ["sq-euclidean", "gid", "kl", "itakura-saito", "logistic"]


def sample_in_domain(kind, rng, n, d):
    """Rows strictly inside the domain of the given divergence kind."""
    if kind == "sq-euclidean":
        return rng.normal(0.0, 2.0, (n, d))
    if kind in ("gid", "itakura-saito"):
        return rng.uniform(0.05, 5.0, (n, d))
    if kind == "kl":
        x = rng.uniform(0.05, 5.0, (n, d))
        return x / x.sum(axis=1, keepdims=True)
    if kind == "logistic":
        return rng.uniform(0.05, 0.95, (n, d))
    raise ValueError(kind)


def random_count_matrix(rng, n, d, density=0.5, max_count=9):
    """Sparse nonnegative integer counts; every row gets at least one entry."""
    rows = []
    for _ in range(n):
        mask = rng.random(d) < density
        if not mask.any():
            mask[rng.integers(0, d)] = True
        idx = np.nonzero(mask)[0]
        val = rng.integers(1, max_count + 1, idx.size).astype(float)
        rows.append((idx, val))
    return DataMatrix.from_rows(rows, d)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def smoothed_counts(rng, n, d, epsilon=0.5, density=0.5):
    return smooth(random_count_matrix(rng, n, d, density), epsilon)
