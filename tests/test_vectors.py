import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockwalk.vectors import OffsetVec, merge_add

from oracles import ov_dot


def random_offset_vec(rng, dim, base=None):
    nnz = int(rng.integers(0, dim + 1))
    idx = np.sort(rng.choice(dim, size=nnz, replace=False)).astype(np.int64)
    val = rng.normal(size=nnz)
    if base is None:
        base = float(rng.normal())
    return OffsetVec(dim, base, idx, val)


class TestOffsetVec:
    def test_dense_round_trip(self, rng):
        v = OffsetVec(5, 0.5, np.array([1, 3]), np.array([2.0, -1.0]))
        np.testing.assert_allclose(v.to_dense(), [0.5, 2.5, 0.5, -0.5, 0.5])

    def test_dot_matches_dense(self, rng):
        for _ in range(100):
            a = random_offset_vec(rng, 8)
            b = random_offset_vec(rng, 8)
            want = float(a.to_dense() @ b.to_dense())
            assert ov_dot(a, b) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_combine_matches_dense(self, rng):
        for _ in range(50):
            a = random_offset_vec(rng, 6)
            b = random_offset_vec(rng, 6)
            wa, wb = rng.normal(size=2)
            np.testing.assert_allclose(
                OffsetVec.combine(a, wa, b, wb).to_dense(),
                wa * a.to_dense() + wb * b.to_dense(),
                atol=1e-12,
            )

    def test_dimension_mismatch(self):
        a = OffsetVec.from_dense(np.ones(3))
        b = OffsetVec.from_dense(np.ones(4))
        with pytest.raises(ValueError):
            ov_dot(a, b)

    def test_from_dense_full_support(self):
        v = OffsetVec.from_dense(np.array([1.0, 0.0, 2.0]))
        assert v.nnz == v.dim and v.base == 0.0
        np.testing.assert_array_equal(v.to_dense(), [1.0, 0.0, 2.0])


class TestMergeAdd:
    def test_disjoint_overlapping_and_equal(self):
        idx, val = merge_add(
            np.array([0, 2]), np.array([1.0, 2.0]),
            np.array([2, 5]), np.array([10.0, 4.0]),
        )
        np.testing.assert_array_equal(idx, [0, 2, 5])
        np.testing.assert_allclose(val, [1.0, 12.0, 4.0])
        idx, val = merge_add(
            np.array([1, 4]), np.array([1.0, 1.0]),
            np.array([1, 4]), np.array([2.0, 3.0]),
        )
        np.testing.assert_array_equal(idx, [1, 4])
        np.testing.assert_allclose(val, [3.0, 4.0])

    def test_empty_sides(self):
        e = np.empty(0, np.int64)
        ev = np.empty(0)
        idx, val = merge_add(e, ev, np.array([3]), np.array([7.0]))
        np.testing.assert_array_equal(idx, [3])
        idx, val = merge_add(np.array([3]), np.array([7.0]), e, ev)
        np.testing.assert_array_equal(idx, [3])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_equals_a_dense_scatter_add(self, data):
        # -0.0 is mapped to 0.0: a scatter into zeros turns it into 0.0
        value = st.floats(-1e6, 1e6).map(lambda v: v + 0.0)
        support = st.lists(st.integers(0, 30), unique=True, max_size=31).map(sorted)
        idx_a = data.draw(support)
        idx_b = data.draw(st.sampled_from([idx_a, []]) | support)  # identical, empty or any
        val_a = data.draw(st.lists(value, min_size=len(idx_a), max_size=len(idx_a)))
        val_b = data.draw(st.lists(value, min_size=len(idx_b), max_size=len(idx_b)))
        a = np.array(idx_a, np.int64), np.array(val_a, np.float64)
        b = np.array(idx_b, np.int64), np.array(val_b, np.float64)
        idx, val = merge_add(*a, *b)
        dense = np.zeros(31)
        dense[a[0]] += a[1]
        dense[b[0]] += b[1]
        assert idx.dtype == np.int64 and idx.tolist() == sorted(set(idx_a) | set(idx_b))
        assert val.tobytes() == dense[idx].tobytes()
