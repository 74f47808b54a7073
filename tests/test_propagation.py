import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockwalk import divergence
from blockwalk.anchor_tree import build_cluster_tree
from blockwalk.dataset import LabelSet, smooth
from blockwalk.divergence import KINDS, DivergenceSpec
from blockwalk.partition import auto_refine, coarsest_partition, finest_partition
from blockwalk.propagation import (
    PropagationConfig,
    TransitionModel,
    classify_one_vs_all,
    dense_transition_matrix,
    evaluate_accuracy,
    propagate_labels,
    spread_labels,
)
from blockwalk.variational import optimize_q

from conftest import sample_in_domain, smoothed_counts
from oracles import (
    closed_form_propagation,
    dense_q_matrix,
    pairwise_divergences,
    reference_dense_transition,
    reference_propagate,
)
from test_anchor_tree import dense_to_data


def build_model(rng, n=24, d=5, kind="gid", partition="coarsest"):
    data = smoothed_counts(rng, n, d, epsilon=0.5)
    spec = DivergenceSpec(kind, d, epsilon=0.5)
    tree = build_cluster_tree(data, spec)
    if partition == "coarsest":
        part = coarsest_partition(tree)
    elif partition == "finest":
        part = finest_partition(tree)
    else:
        part = auto_refine(coarsest_partition(tree), tree, 5)
    params = optimize_q(tree, part, spec, data)
    return TransitionModel(tree, part, params, spec), data, spec


def one_hot(rng, n, c, labeled):
    y0 = np.zeros((n, c))
    rows = rng.choice(n, size=labeled, replace=False)
    y0[rows, np.arange(labeled) % c] = 1.0
    return y0


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestBlockedMatvec:
    def test_ones_maps_to_ones(self, rng):
        model, _, _ = build_model(rng)
        out = model.matmat(np.ones(model.n_points))
        np.testing.assert_allclose(out, 1.0, atol=1e-9)

    def test_matches_dense_expansion(self, rng):
        for partition in ("coarsest", "refined", "finest"):
            model, _, _ = build_model(rng, n=20, partition=partition)
            q = dense_q_matrix(model)
            for _ in range(5):
                v = rng.normal(size=model.n_points)
                np.testing.assert_allclose(
                    model.matmat(v), q @ v, atol=1e-10
                )

    def test_repeated_row_sides_match_dense_expansion(self, rng):
        # a block split on its column side leaves two blocks with one row
        # side, whose contributions must add up
        data = smoothed_counts(rng, 40, 5, epsilon=0.5)
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        part = auto_refine(coarsest_partition(tree), tree, 30)
        assert np.unique(part.a).size < part.a.size
        model = TransitionModel(tree, part, optimize_q(tree, part, spec, data), spec)
        q = dense_q_matrix(model)
        v = rng.normal(size=(model.n_points, 3))
        np.testing.assert_allclose(model.matmat(v), q @ v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            model.matmat(v[:, 0]), q @ v[:, 0], rtol=0, atol=1e-12
        )

    def test_linearity(self, rng):
        model, _, _ = build_model(rng)
        u = rng.normal(size=model.n_points)
        w = rng.normal(size=model.n_points)
        lhs = model.matmat(2 * u + 3 * w)
        rhs = 2 * model.matmat(u) + 3 * model.matmat(w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_length_mismatch(self, rng):
        model, _, _ = build_model(rng)
        with pytest.raises(ValueError, match="length"):
            model.matmat(np.ones(model.n_points + 1))

    def test_implied_q_row_stochastic_zero_diagonal(self, rng):
        for partition in ("coarsest", "refined"):
            model, _, _ = build_model(rng, n=18, partition=partition)
            q = dense_q_matrix(model)
            np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_array_equal(np.diag(q), 0.0)


def kind_data(kind, rng, n, d=4):
    """(smoothed data, spec) of n dense rows inside the domain of `kind`,
    of either sign for sq-euclidean."""
    x = sample_in_domain(kind, rng, n, d)
    return smooth(dense_to_data(x), 0.0), DivergenceSpec(kind, d)


class TestDenseTransitionMatrix:
    def test_two_points(self):
        data = smooth(dense_to_data(np.array([[0.0, 1.0], [1.0, 0.0]])), 0.5)
        spec = DivergenceSpec("gid", 2, epsilon=0.5)
        base = dense_transition_matrix(data, spec)
        np.testing.assert_allclose(base.p, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_equilateral_triangle(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        data = smooth(dense_to_data(pts + 1.0), 0.0)  # shift off zero, same geometry
        spec = DivergenceSpec("sq-euclidean", 2, sigma=1.0)
        base = dense_transition_matrix(data, spec)
        off = base.p[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.5, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        data = smoothed_counts(rng, 30, 6)
        spec = DivergenceSpec("gid", 6, epsilon=0.5)
        base = dense_transition_matrix(data, spec)
        np.testing.assert_allclose(base.p.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(np.diag(base.p), 0.0)

    def test_huge_separation_no_overflow(self):
        data = smooth(dense_to_data(np.array([[0.0], [150.0], [300.0]])), 0.0)
        spec = DivergenceSpec("sq-euclidean", 1, sigma=1.0)
        base = dense_transition_matrix(data, spec)
        assert np.all(np.isfinite(base.p))
        np.testing.assert_allclose(base.p.sum(axis=1), 1.0, atol=1e-12)

    def test_cap_guard(self, rng):
        data = smoothed_counts(rng, 10, 3)
        with pytest.raises(ValueError, match="cap"):
            dense_transition_matrix(data, DivergenceSpec("gid", 3, epsilon=0.5), cap=5)

    def test_blockwise_equals_whole(self, rng, monkeypatch):
        data = smoothed_counts(rng, 25, 5)
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        monkeypatch.setattr(divergence, "ROW_BLOCK", 7)
        a = dense_transition_matrix(data, spec)
        monkeypatch.setattr(divergence, "ROW_BLOCK", 512)
        b = dense_transition_matrix(data, spec)
        np.testing.assert_allclose(a.p, b.p, atol=1e-15)

    def test_centred_rows_as_their_shift(self, rng):
        # sq-euclidean takes rows of either sign; a shift changes no distance
        x = rng.normal(0.0, 1.0, (30, 3))
        spec = DivergenceSpec("sq-euclidean", 3)
        p = dense_transition_matrix(smooth(dense_to_data(x), 0.0), spec).p
        shifted = dense_transition_matrix(smooth(dense_to_data(x + 10.0), 0.0), spec).p
        np.testing.assert_allclose(p, shifted, rtol=0, atol=1e-12)

    def test_similarities_kept_on_request_only(self, rng):
        data = smoothed_counts(rng, 12, 4)
        spec = DivergenceSpec("gid", 4, epsilon=0.5)
        assert dense_transition_matrix(data, spec).w is None
        kept = dense_transition_matrix(data, spec, keep_w=True)
        d = pairwise_divergences(spec, data.to_dense(), data.to_dense())
        np.fill_diagonal(d, np.inf)
        np.testing.assert_allclose(kept.w, np.exp(-d), rtol=1e-12)


class TestDenseAgainstReference:
    """Each row block is computed in place in p, with the centers' terms
    taken once: p and w must be the reference's byte for byte, the
    reference recomputing those terms per block on new arrays."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "n, block", [(2, 1), (2, 512), (25, 1), (25, 7), (25, 25), (25, 64)]
    )
    def test_same_bits(self, rng, monkeypatch, kind, n, block):
        monkeypatch.setattr(divergence, "ROW_BLOCK", block)
        data, spec = kind_data(kind, rng, n)
        for keep_w in (False, True):
            got = dense_transition_matrix(data, spec, keep_w=keep_w)
            p, w = reference_dense_transition(data, spec, block, keep_w=keep_w)
            assert_same_bits(got.p, p)
            if keep_w:
                assert_same_bits(got.w, w)
            else:
                assert got.w is None

    def test_count_data_same_bits(self, rng, monkeypatch):
        monkeypatch.setattr(divergence, "ROW_BLOCK", 16)
        data = smoothed_counts(rng, 40, 6)
        spec = DivergenceSpec("gid", 6, epsilon=0.5)
        got = dense_transition_matrix(data, spec, keep_w=True)
        p, w = reference_dense_transition(data, spec, 16, keep_w=True)
        assert_same_bits(got.p, p)
        assert_same_bits(got.w, w)

    @pytest.mark.parametrize("keep_w", [False, True])
    def test_peak_memory_one_output_and_few_blocks(self, rng, monkeypatch, keep_w):
        # Traced peak above the N x N output(s): about 1.3 row blocks in
        # place against about 5.3 when each block's softmax takes new arrays.
        n, block_rows = 400, 50
        monkeypatch.setattr(divergence, "ROW_BLOCK", block_rows)
        data = smoothed_counts(rng, n, 5)
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        tracemalloc.start()
        try:
            base = dense_transition_matrix(data, spec, keep_w=keep_w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = (2 if keep_w else 1) * n * n * 8
        assert base.p.shape == (n, n)
        assert peak <= outputs + 3 * block_rows * n * 8


class TestPropagation:
    def test_alpha_zero_returns_y0(self, rng):
        model, _, _ = build_model(rng)
        y0 = rng.random((model.n_points, 3))
        cfg = PropagationConfig(alpha=0.0, iterations=17)
        out, iterations = spread_labels(model, y0, cfg)
        np.testing.assert_array_equal(out, y0)
        assert_same_bits(out, reference_propagate(model, y0, cfg))
        assert iterations == 1

    def test_identity_operator_fixed_point(self, rng):
        n = 10
        y0 = rng.random((n, 2))
        cfg = PropagationConfig(alpha=0.01, iterations=300)
        out, iterations = spread_labels(np.eye(n), y0, cfg)
        np.testing.assert_allclose(out, y0, atol=1e-12)
        assert_same_bits(out, reference_propagate(np.eye(n), y0, cfg))
        assert 1 <= iterations < 300

    def test_defaults(self):
        cfg = PropagationConfig()
        assert cfg.alpha == 0.01 and cfg.iterations == 300

    def test_matches_closed_form_dense(self, rng):
        data = smoothed_counts(rng, 20, 5)
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        base = dense_transition_matrix(data, spec)
        y0 = np.zeros((20, 3))
        for i in range(6):
            y0[i, i % 3] = 1.0
        got = propagate_labels(base, y0, PropagationConfig())
        want = closed_form_propagation(base.p, y0, 0.01)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_matches_closed_form_blocked(self, rng):
        model, _, _ = build_model(rng, n=20)
        q = dense_q_matrix(model)
        y0 = np.zeros((20, 2))
        y0[0, 0] = 1.0
        y0[5, 1] = 1.0
        got = propagate_labels(model, y0, PropagationConfig())
        want = closed_form_propagation(q, y0, 0.01)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_blocked_finest_equals_dense(self, rng):
        model, data, spec = build_model(rng, n=24, partition="finest")
        base = dense_transition_matrix(data, spec)
        y0 = np.zeros((24, 2))
        y0[0, 0] = 1.0
        y0[3, 1] = 1.0
        cfg = PropagationConfig()
        a = propagate_labels(model, y0, cfg)
        b = propagate_labels(base, y0, cfg)
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_entries_stay_in_unit_interval(self, rng):
        model, _, _ = build_model(rng, n=30)
        y0 = np.zeros((30, 3))
        for i in range(9):
            y0[i, i % 3] = 1.0
        y = propagate_labels(model, y0, PropagationConfig(alpha=0.2, iterations=50))
        assert y.min() >= -1e-15 and y.max() <= 1.0 + 1e-12

    def test_shape_errors(self, rng):
        model, _, _ = build_model(rng)
        with pytest.raises(ValueError):
            propagate_labels(model, np.ones((model.n_points, 0)))
        with pytest.raises(ValueError):
            propagate_labels(model, np.ones((model.n_points + 2, 2)))

    def test_determinism(self, rng):
        model, _, _ = build_model(rng)
        y0 = np.zeros((model.n_points, 2))
        y0[1, 0] = 1.0
        y0[2, 1] = 1.0
        a = propagate_labels(model, y0, PropagationConfig())
        b = propagate_labels(model, y0, PropagationConfig())
        assert np.array_equal(a, b)


class TestFixedPointExit:
    """The early exit returns the fixed-count loop's scores bit for bit."""

    @pytest.mark.parametrize("partition", ["coarsest", "refined"])
    def test_compressed_matches_reference(self, rng, partition):
        model, _, _ = build_model(rng, n=60, partition=partition)
        y0 = one_hot(rng, 60, 3, 9)
        cfg = PropagationConfig()
        scores, iterations = spread_labels(model, y0, cfg)
        assert_same_bits(scores, reference_propagate(model, y0, cfg))
        assert 1 <= iterations < cfg.iterations

    def test_dense_matches_reference(self, rng):
        data = smoothed_counts(rng, 60, 5)
        base = dense_transition_matrix(data, DivergenceSpec("gid", 5, epsilon=0.5))
        y0 = one_hot(rng, 60, 3, 9)
        cfg = PropagationConfig()
        scores, iterations = spread_labels(base, y0, cfg)
        assert_same_bits(scores, reference_propagate(base, y0, cfg))
        assert_same_bits(propagate_labels(base, y0, cfg), scores)
        assert 1 <= iterations < cfg.iterations

    def test_slow_spreading_reaches_the_cap(self, rng):
        model, _, _ = build_model(rng, n=40)
        y0 = one_hot(rng, 40, 2, 4)
        cfg = PropagationConfig(alpha=0.99)
        scores, iterations = spread_labels(model, y0, cfg)
        assert_same_bits(scores, reference_propagate(model, y0, cfg))
        assert iterations == 300


@st.composite
def spreading_cases(draw):
    """(row-stochastic M, alpha, one-hot y0) over at most 12 points."""
    n = draw(st.integers(2, 12))
    c = draw(st.integers(1, 3))
    weight = st.floats(0.0, 1.0, allow_subnormal=False)
    w = np.array(draw(st.lists(weight, min_size=n * n, max_size=n * n))).reshape(n, n)
    w[w.sum(axis=1) == 0.0] = 1.0
    alpha = draw(st.sampled_from([0.0, 0.01, 0.5, 0.99, 1.0]) | st.floats(0.0, 1.0))
    y0 = np.zeros((n, c))
    for row, cls in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, c - 1)))):
        y0[row] = 0.0
        y0[row, cls] = 1.0
    return w / w.sum(axis=1, keepdims=True), alpha, y0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spreading_cases())
def test_early_exit_matches_fixed_count_loop(case):
    p, alpha, y0 = case
    cfg = PropagationConfig(alpha=alpha)
    scores, iterations = spread_labels(p, y0, cfg)
    assert_same_bits(scores, reference_propagate(p, y0, cfg))
    assert 1 <= iterations <= cfg.iterations


class TestClassify:
    def test_argmax(self):
        classes, unreached = classify_one_vs_all(np.array([[0.1, 0.9], [0.8, 0.1]]))
        assert classes.tolist() == [1, 0]
        assert not unreached.any()

    def test_tie_lowest_class(self):
        classes, _ = classify_one_vs_all(np.array([[0.5, 0.5]]))
        assert classes.tolist() == [0]

    def test_all_zero_flagged_unreached(self):
        classes, unreached = classify_one_vs_all(np.array([[0.0, 0.0], [0.0, 0.1]]))
        assert classes.tolist() == [0, 1]
        assert unreached.tolist() == [True, False]


class TestAccuracy:
    def setup_method(self):
        self.ids = ["a", "b", "c", "d"]
        self.truth = LabelSet({"a": 0, "b": 1, "c": 0, "d": 1}, ["x", "y"])

    def test_perfect(self):
        assert evaluate_accuracy([0, 1, 0, 1], self.truth, self.ids, {"a"}) == 1.0

    def test_all_wrong(self):
        assert evaluate_accuracy([1, 0, 1, 0], self.truth, self.ids, {"a"}) == 0.0

    def test_correct_only_on_labeled_rows(self):
        # right on the labeled row, wrong elsewhere: labeled rows are excluded
        assert evaluate_accuracy([0, 0, 1, 0], self.truth, self.ids, {"a"}) == 0.0

    def test_all_labeled_rejected(self):
        with pytest.raises(ValueError, match="labeled"):
            evaluate_accuracy([0, 1, 0, 1], self.truth, self.ids, set(self.ids))

    def test_missing_truth_rejected(self):
        truth = LabelSet({"a": 0}, ["x"])
        with pytest.raises(ValueError, match="missing"):
            evaluate_accuracy([0, 0, 0, 0], truth, self.ids, {"a"})
