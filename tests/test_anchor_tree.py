import math

import numpy as np
import pytest

from blockwalk import anchor_tree
from blockwalk.anchor_tree import (
    Anchor,
    _ceil_sqrt,
    _first_max,
    _grow,
    _grow_scopes,
    _merge_sorted,
    _Workspace,
    agglomerate_anchors,
    build_cluster_tree,
    grow_anchors,
)
from blockwalk.cli import build_model, make_divergence_spec
from blockwalk.dataset import (
    DataMatrix,
    SyntheticSpec,
    block_topic_alphas,
    generate_synthetic,
    smooth,
)
from blockwalk.divergence import DivergenceSpec, DomainError, ov_phi
from blockwalk.vectors import OffsetVec

from conftest import (
    ALL_KINDS,
    random_count_matrix,
    sample_in_domain,
    smoothed_counts,
)
from oracles import (
    bregman_divergence,
    bregman_information,
    div_block,
    div_to_pivot,
    grad_phi,
    is_leaf,
    merge_cost,
    node_pivot,
    ov_grad,
    ov_xdotgrad,
    pairwise_divergences,
    phi,
    pivot_rows,
    reference_cluster_tree,
    reference_greedy_merge,
    reference_grow,
    row_kernel,
    steal_threshold,
    steal_thresholds,
    subtree_rows,
)


def dense_to_data(X):
    """DataMatrix from a dense array; zeros become implicit."""
    X = np.asarray(X, dtype=np.float64)
    rows = []
    for x in X:
        nz = np.nonzero(x)[0]
        rows.append((nz.astype(np.int64), x[nz]))
    return DataMatrix.from_rows(rows, X.shape[1])


def singleton_anchor(x, row=0):
    return Anchor(
        pivot=OffsetVec.from_dense(x),
        pivot_row=row,
        members=np.array([row]),
        dists=np.array([0.0]),
    )


class TestStealThreshold:
    def test_euclidean_halfway(self):
        spec = DivergenceSpec("sq-euclidean", 2, sigma=1.0)
        thr, ystar = steal_threshold(spec, [0.0, 0.0], [2.0, 0.0])
        np.testing.assert_allclose(ystar, [1.0, 0.0])
        assert thr == pytest.approx(0.5)

    def test_gid_geometric_mean(self):
        spec = DivergenceSpec("gid", 2)
        thr, ystar = steal_threshold(spec, [1.0, 4.0], [4.0, 1.0])
        np.testing.assert_allclose(ystar, [2.0, 2.0])
        assert thr == pytest.approx(1.0)

    def test_coincident_pivots(self, rng):
        for kind in ALL_KINDS:
            spec = DivergenceSpec(kind, 3)
            p = sample_in_domain(kind, rng, 1, 3)[0]
            thr, ystar = steal_threshold(spec, p, p)
            assert thr == pytest.approx(0.0, abs=1e-12)
            np.testing.assert_allclose(ystar, p, rtol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_no_steal_guarantee(self, kind, rng):
        # 1000 random (pivot pair, point) triples: below the threshold the
        # point is never strictly closer to the new pivot
        d = 4
        spec = DivergenceSpec(kind, d)
        violations = 0
        for _ in range(1000):
            pc, pn = sample_in_domain(kind, rng, 2, d)
            x = sample_in_domain(kind, rng, 1, d)[0]
            thr, _ = steal_threshold(spec, pc, pn)
            d_curr = bregman_divergence(spec, x, pc)
            if d_curr <= thr:
                d_new = bregman_divergence(spec, x, pn)
                if d_new < d_curr - 1e-12:
                    violations += 1
        assert violations == 0


class TestGrowAnchors:
    def test_hand_simulated_line(self):
        data = smooth(dense_to_data(np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])), 0.0)
        spec = DivergenceSpec("sq-euclidean", 1, sigma=1.0)
        anchors = grow_anchors(data, spec, 2)
        assert set(anchors[0].members) == {0, 1, 2}
        assert set(anchors[1].members) == {3, 4}
        assert anchors[1].pivot_row == 4

    def test_m_one(self, rng):
        data = smoothed_counts(rng, 12, 5)
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        anchors = grow_anchors(data, spec, 1)
        assert len(anchors) == 1
        assert set(anchors[0].members) == set(range(12))

    def test_m_equals_n(self, rng):
        data = smoothed_counts(rng, 9, 4)
        spec = DivergenceSpec("gid", 4, epsilon=0.5)
        anchors = grow_anchors(data, spec, 9)
        assert len(anchors) == 9
        assert all(a.size == 1 for a in anchors)
        assert {int(a.members[0]) for a in anchors} == set(range(9))

    def test_m_out_of_range(self, rng):
        data = smoothed_counts(rng, 5, 3)
        spec = DivergenceSpec("gid", 3, epsilon=0.5)
        with pytest.raises(ValueError):
            grow_anchors(data, spec, 6)
        with pytest.raises(ValueError):
            grow_anchors(data, spec, 0)

    def test_members_sorted_and_radius(self, rng):
        data = smoothed_counts(rng, 40, 6)
        spec = DivergenceSpec("gid", 6, epsilon=0.5)
        for a in grow_anchors(data, spec, 6):
            assert np.all(np.diff(a.dists) <= 1e-15)
            assert a.radius == a.dists[0]

    @pytest.mark.parametrize("kind", ["sq-euclidean", "gid", "itakura-saito"])
    def test_voronoi_assignment(self, kind, rng):
        data = smoothed_counts(rng, 60, 8)
        spec = DivergenceSpec(kind, 8, epsilon=0.5)
        anchors = grow_anchors(data, spec, 8)
        dense = data.to_dense()
        pivots = np.stack([a.pivot.to_dense() for a in anchors])
        D = pairwise_divergences(spec, dense, pivots)
        for ai, a in enumerate(anchors):
            for row, dist in zip(a.members, a.dists):
                assert dist == pytest.approx(D[row, ai], rel=1e-9, abs=1e-12)
                assert dist <= D[row].min() + 1e-12

    def test_pruning_invariance(self, rng):
        for kind, eps in (("gid", 0.5), ("sq-euclidean", 0.0), ("itakura-saito", 0.5)):
            data = smoothed_counts(rng, 80, 7, epsilon=eps)
            spec = DivergenceSpec(kind, 7, epsilon=eps)
            on = reference_grow(_Workspace(data, spec), np.arange(80), 9, True)
            off = grow_anchors(data, spec, 9)
            for a, b in zip(on, off):
                assert np.array_equal(a.members, b.members)

    def test_duplicate_points_terminate(self):
        X = np.ones((6, 2))
        data = smooth(dense_to_data(X), 0.0)
        spec = DivergenceSpec("sq-euclidean", 2)
        anchors = grow_anchors(data, spec, 3)
        assert sum(a.size for a in anchors) == 6
        assert all(a.size >= 1 for a in anchors)


class TestAgglomeration:
    def test_two_euclidean_singletons(self):
        spec = DivergenceSpec("sq-euclidean", 2, sigma=1.0)
        assert merge_cost(spec, 1, [0.0, 0.0], 1, [2.0, 0.0]) == pytest.approx(1.0)
        tree = agglomerate_anchors(
            [singleton_anchor([0.0, 0.0], 0), singleton_anchor([2.0, 0.0], 1)], spec
        )
        np.testing.assert_allclose(tree.pivots[2].to_dense(), [1.0, 0.0])
        assert tree.merges[0][2] == pytest.approx(1.0)

    def test_two_gid_singletons(self):
        spec = DivergenceSpec("gid", 2)
        tree = agglomerate_anchors(
            [singleton_anchor([1.0, 4.0], 0), singleton_anchor([4.0, 1.0], 1)], spec
        )
        np.testing.assert_allclose(tree.pivots[2].to_dense(), [2.5, 2.5])
        assert tree.merges[0][2] == pytest.approx(1.92745, abs=1e-5)

    def test_merge_cost_matches_direct_sum(self, rng):
        # cost identity against the literal |A| d(Ap,Cp) + |B| d(Bp,Cp)
        for kind in ("sq-euclidean", "gid", "itakura-saito"):
            spec = DivergenceSpec(kind, 5)
            for _ in range(20):
                pa, pb = sample_in_domain(kind, rng, 2, 5)
                na, nb = int(rng.integers(1, 9)), int(rng.integers(1, 9))
                c = (na * pa + nb * pb) / (na + nb)
                want = na * bregman_divergence(spec, pa, c) + nb * bregman_divergence(
                    spec, pb, c
                )
                assert merge_cost(spec, na, pa, nb, pb) == pytest.approx(
                    want, rel=1e-9, abs=1e-12
                )

    def test_single_anchor_returned_as_root(self):
        spec = DivergenceSpec("sq-euclidean", 2)
        tree = agglomerate_anchors([singleton_anchor([1.0, 1.0])], spec)
        assert tree.root == 0 and tree.merges == []

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            agglomerate_anchors([], DivergenceSpec("sq-euclidean", 2))

    def test_matches_greedy_oracle(self, rng, monkeypatch):
        # recompute-all-pairs greedy gives the same merge sequence, the heap
        # oracle the same costs and means bit for bit, and the OffsetVec
        # layout above the dense cap the same tree, with the heap oracle's
        # costs and means on that layout bit for bit
        spec = DivergenceSpec("gid", 3)
        pts = sample_in_domain("gid", rng, 6, 3)
        anchors = [singleton_anchor(p, i) for i, p in enumerate(pts)]
        got = agglomerate_anchors(anchors, spec)

        items = [(1, p.copy()) for p in pts]
        alive = list(range(6))
        merges = []
        while len(alive) > 1:
            best = None
            for ii in range(len(alive)):
                for jj in range(ii + 1, len(alive)):
                    i, j = alive[ii], alive[jj]
                    c = merge_cost(spec, items[i][0], items[i][1], items[j][0], items[j][1])
                    key = (c, i, j)
                    if best is None or key < best:
                        best = key
            c, i, j = best
            na, pa = items[i]
            nb, pb = items[j]
            items.append((na + nb, (na * pa + nb * pb) / (na + nb)))
            merges.append((i, j))
            alive = [a for a in alive if a not in (i, j)] + [len(items) - 1]
        assert [(m[0], m[1]) for m in got.merges] == merges
        heap = reference_greedy_merge(spec, [1] * 6, pts)
        assert got.merges == heap.merges
        assert got.sizes == heap.sizes
        assert (got.left, got.right, got.root) == (heap.left, heap.right, heap.root)
        dense = np.stack([p.to_dense() for p in got.pivots[6:]])
        assert dense.tobytes() == np.stack(heap.pivots).tobytes()
        monkeypatch.setattr(anchor_tree, "DENSE_DIM_CAP", 0)
        wide = agglomerate_anchors(anchors, spec)
        assert [m[:2] for m in wide.merges] == [m[:2] for m in got.merges]
        np.testing.assert_allclose(
            [m[2] for m in wide.merges], [m[2] for m in got.merges], rtol=1e-12
        )
        for a, b in zip(wide.pivots, got.pivots):
            np.testing.assert_allclose(a.to_dense(), b.to_dense(), rtol=1e-12)
        pivots = np.fromiter((a.pivot for a in anchors), object)
        heap = reference_greedy_merge(spec, [1] * 6, pivots)
        assert wide.merges == heap.merges
        for a, b in zip(wide.pivots[6:], heap.pivots):
            assert a.base == b.base and np.array_equal(a.idx, b.idx)
            assert a.val.tobytes() == b.val.tobytes()

    def test_merge_cost_nonnegative(self, rng):
        for kind in ALL_KINDS:
            spec = DivergenceSpec(kind, 4)
            for _ in range(200):
                pa, pb = sample_in_domain(kind, rng, 2, 4)
                na, nb = int(rng.integers(1, 20)), int(rng.integers(1, 20))
                assert merge_cost(spec, na, pa, nb, pb) >= -1e-12


class TestClusterTree:
    def test_single_point(self):
        data = smooth(dense_to_data(np.array([[1.0, 2.0]])), 0.0)
        spec = DivergenceSpec("gid", 2)
        tree = build_cluster_tree(data, spec)
        assert tree.n_nodes == 1
        st = tree.stats[0]
        assert st.s1 == pytest.approx(phi(spec, [1.0, 2.0]))

    def test_four_points_structure(self, rng):
        data = smoothed_counts(rng, 4, 3)
        spec = DivergenceSpec("gid", 3, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        assert tree.n_nodes == 7
        leaves = [n for n in range(7) if is_leaf(tree, n)]
        assert len(leaves) == 4
        assert sorted(tree.perm) == [0, 1, 2, 3]

    def test_node_count_law(self, rng):
        for n in (2, 5, 16, 33):
            data = smoothed_counts(rng, n, 4)
            spec = DivergenceSpec("gid", 4, epsilon=0.5)
            tree = build_cluster_tree(data, spec)
            assert tree.n_nodes == 2 * n - 1

    def test_children_partition_parent(self, rng):
        data = smoothed_counts(rng, 20, 5)
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        for nid in range(tree.n_nodes):
            if is_leaf(tree, nid):
                continue
            l, r = tree.left[nid], tree.right[nid]
            rows = set(subtree_rows(tree, nid))
            lrows = set(subtree_rows(tree, l))
            rrows = set(subtree_rows(tree, r))
            assert lrows | rrows == rows and not (lrows & rrows)
        assert set(subtree_rows(tree, tree.root)) == set(range(20))

    def test_root_s3_is_data_sum(self, rng):
        data = smoothed_counts(rng, 15, 6)
        spec = DivergenceSpec("gid", 6, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        np.testing.assert_allclose(
            tree.stats[tree.root].s3.to_dense(),
            data.to_dense().sum(axis=0),
            rtol=1e-12,
        )

    def test_pivot_is_member_mean(self, rng):
        data = smoothed_counts(rng, 18, 4)
        spec = DivergenceSpec("gid", 4, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        dense = data.to_dense()
        for nid in range(tree.n_nodes):
            rows = subtree_rows(tree, nid)
            np.testing.assert_allclose(
                node_pivot(tree, nid).to_dense(), dense[rows].mean(axis=0), rtol=1e-10
            )

    def test_pruning_invariance_full_tree(self, rng):
        for kind, eps in (("gid", 0.5), ("sq-euclidean", 0.0)):
            data = smoothed_counts(rng, 64, 6, epsilon=eps)
            spec = DivergenceSpec(kind, 6, epsilon=eps)
            a = reference_cluster_tree(data, spec, use_pruning=True)
            b = build_cluster_tree(data, spec)
            assert np.array_equal(a.perm, b.perm)
            assert np.array_equal(a.left, b.left)
            assert np.array_equal(a.right, b.right)

    def test_pruning_invariance_at_exact_ties(self):
        # integer counts in d=3 put rows exactly on the bisector of two
        # pivots, where d_curr equals the no-steal threshold and rounding
        # alone decides whether the row moves; at sigma=1 every divergence
        # of integer rows is exact, no rounding decides and a zero slack
        # would pass, so sigma is 0.7
        for seed in range(10):
            rng = np.random.default_rng(seed)
            data = smooth(random_count_matrix(rng, 299, 3), 0.0)
            spec = DivergenceSpec("sq-euclidean", 3, sigma=0.7)
            assert_same_tree(
                build_cluster_tree(data, spec),
                reference_cluster_tree(data, spec, use_pruning=True),
            )

    def test_sparse_and_dense_paths_build_same_tree(self, rng, monkeypatch):
        # the wide-vocabulary agglomeration (OffsetVec merges) must agree
        # with the small-dimension dense one
        data = smoothed_counts(rng, 50, 6, epsilon=0.5)
        spec = DivergenceSpec("gid", 6, epsilon=0.5)
        dense = build_cluster_tree(data, spec)
        monkeypatch.setattr(anchor_tree, "DENSE_DIM_CAP", 0)
        sparse = build_cluster_tree(data, spec)
        assert np.array_equal(dense.perm, sparse.perm)
        assert np.array_equal(dense.left, sparse.left)
        assert np.array_equal(dense.right, sparse.right)
        for nid in range(dense.n_nodes):
            assert dense.stats[nid].s1 == pytest.approx(
                sparse.stats[nid].s1, rel=1e-12
            )

    def test_domain_error_for_zero_eps_gid(self, rng):
        data = smoothed_counts(rng, 6, 4, epsilon=0.0, density=0.4)
        spec = DivergenceSpec("gid", 4)
        with pytest.raises(DomainError):
            build_cluster_tree(data, spec)

    def test_epsilon_from_one_source(self, rng):
        # the statistics would use the data's offset, the saved spec its own
        data = smoothed_counts(rng, 6, 4, epsilon=0.3)
        with pytest.raises(ValueError, match="epsilon 0.5 differs"):
            build_cluster_tree(data, DivergenceSpec("gid", 4, epsilon=0.5))

    def test_domain_error_names_row_and_column(self, rng):
        data = smooth(DataMatrix.from_rows([([0, 1], [1.0, 2.0]), ([1], [3.0])], 2), 0.0)
        with pytest.raises(DomainError) as err:
            build_cluster_tree(data, DivergenceSpec("gid", 2))
        assert err.value.index == (1, 0)
        rows = [([0, 1], [0.2, 0.3]), ([0, 1], [0.4, 0.8])]
        data = smooth(DataMatrix.from_rows(rows, 2), 0.25)
        with pytest.raises(DomainError) as err:
            build_cluster_tree(data, DivergenceSpec("logistic", 2, epsilon=0.25))
        assert err.value.index == (1, 1)


class TestNodeStats:
    def test_singleton_gid_example(self):
        data = smooth(dense_to_data(np.array([[1.0, 2.0]])), 0.0)
        spec = DivergenceSpec("gid", 2)
        tree = build_cluster_tree(data, spec)
        st = tree.stats[0]
        assert st.s1 == pytest.approx(-1.613706, abs=1e-6)
        assert st.s2 == pytest.approx(1.386294, abs=1e-6)
        np.testing.assert_allclose(st.s3.to_dense(), [1.0, 2.0])
        np.testing.assert_allclose(st.s4.to_dense(), [0.0, 0.693147], atol=1e-6)

    def test_two_point_node_sums(self):
        data = smooth(dense_to_data(np.array([[1.0, 2.0], [2.0, 1.0]])), 0.0)
        spec = DivergenceSpec("gid", 2)
        tree = build_cluster_tree(data, spec)
        st = tree.stats[tree.root]
        assert st.s1 == pytest.approx(-3.227411, abs=1e-6)
        assert st.s2 == pytest.approx(2.772589, abs=1e-6)
        np.testing.assert_allclose(st.s3.to_dense(), [3.0, 3.0])
        np.testing.assert_allclose(st.s4.to_dense(), [0.693147, 0.693147], atol=1e-6)

    def test_additivity_all_fields(self, rng):
        data = smoothed_counts(rng, 25, 5)
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        for nid in range(tree.n_nodes):
            if is_leaf(tree, nid):
                continue
            a = tree.stats[tree.left[nid]]
            b = tree.stats[tree.right[nid]]
            c = tree.stats[nid]
            assert c.s1 == pytest.approx(a.s1 + b.s1, rel=1e-12)
            assert c.s2 == pytest.approx(a.s2 + b.s2, rel=1e-12)
            np.testing.assert_allclose(
                c.s3.to_dense(), a.s3.to_dense() + b.s3.to_dense(), rtol=1e-12
            )
            np.testing.assert_allclose(
                c.s4.to_dense(), a.s4.to_dense() + b.s4.to_dense(), rtol=1e-12
            )

    @pytest.mark.parametrize("kind", ["sq-euclidean", "gid", "itakura-saito"])
    def test_stats_match_brute_force(self, kind, rng):
        data = smoothed_counts(rng, 30, 6)
        spec = DivergenceSpec(kind, 6, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        dense = data.to_dense()
        pick = rng.choice(tree.n_nodes, size=10, replace=False)
        for nid in pick:
            rows = subtree_rows(tree, nid)
            st = tree.stats[nid]
            s1 = sum(phi(spec, dense[r]) for r in rows)
            s2 = sum(float(dense[r] @ grad_phi(spec, dense[r])) for r in rows)
            s3 = dense[rows].sum(axis=0)
            s4 = sum(grad_phi(spec, dense[r]) for r in rows)
            assert st.s1 == pytest.approx(s1, rel=1e-10)
            assert st.s2 == pytest.approx(s2, rel=1e-10)
            np.testing.assert_allclose(st.s3.to_dense(), s3, rtol=1e-10)
            np.testing.assert_allclose(st.s4.to_dense(), s4, rtol=1e-10)


class TestBregmanInformation:
    def test_one_dim_pair(self):
        data = smooth(dense_to_data(np.array([[1.0], [3.0]])), 0.0)
        spec = DivergenceSpec("sq-euclidean", 1, sigma=1.0)
        tree = build_cluster_tree(data, spec)
        assert bregman_information(tree, tree.root) == pytest.approx(0.5)

    def test_singleton_zero(self, rng):
        data = smoothed_counts(rng, 5, 3)
        spec = DivergenceSpec("gid", 3, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        for nid in range(tree.n_nodes):
            if is_leaf(tree, nid):
                assert abs(bregman_information(tree, nid)) <= 1e-12

    def test_duplicated_point_zero(self):
        data = smooth(dense_to_data(np.array([[2.0, 3.0], [2.0, 3.0]])), 0.0)
        spec = DivergenceSpec("gid", 2)
        tree = build_cluster_tree(data, spec)
        assert abs(bregman_information(tree, tree.root)) <= 1e-12

    def test_matches_mean_divergence(self, rng):
        data = smoothed_counts(rng, 22, 4)
        spec = DivergenceSpec("gid", 4, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        dense = data.to_dense()
        for nid in rng.choice(tree.n_nodes, size=8, replace=False):
            rows = subtree_rows(tree, nid)
            mu = dense[rows].mean(axis=0)
            want = np.mean([bregman_divergence(spec, dense[r], mu) for r in rows])
            assert bregman_information(tree, nid) == pytest.approx(
                want, rel=1e-9, abs=1e-12
            )


def counts_with_duplicate_pairs(rng, n, d, pairs):
    """Random counts where `pairs` rows are overwritten by copies of others."""
    base = random_count_matrix(rng, n, d)
    rows = [base.row(i) for i in range(n)]
    for _ in range(pairs):
        i, j = rng.choice(n, size=2, replace=False)
        rows[j] = rows[i]
    return DataMatrix.from_rows(rows, d)


def assert_same_tree(got, want):
    for name in ("perm", "left", "right", "size", "start"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for nid, (a, b) in enumerate(zip(got.stats, want.stats)):
        assert (a.s1, a.s2) == (b.s1, b.s2), nid
        assert (a.s3.base, a.s4.base) == (b.s3.base, b.s4.base), nid
        for u, v in ((a.s3, b.s3), (a.s4, b.s4)):
            assert np.array_equal(u.idx, v.idx) and np.array_equal(u.val, v.val), nid


REFERENCE_CASES = [
    "gid",
    "sq-euclidean",
    "itakura-saito",
    "unit-full-rows",
    "cancelling-column",
    "overflow",
]


def reference_corpus(case, rng, trial):
    """Raw rows and spec of one trial of test_matches_reference_builder.
    Beyond three kinds at offset 0.5, the cases hold the inputs on which
    one sum of s3 and s4 could lose an entry: full gid rows at offset 0
    holding 1s, whose gradients log 1 are 0; full gid rows with a column of
    0.5s and 2s, whose gradients cancel; and sq-euclidean at sigma=1e-155,
    whose gradients overflow to inf."""
    n = int(rng.integers(2, 65))
    raw = counts_with_duplicate_pairs(rng, n, 8, 1 + trial % 3)
    if case == "overflow":
        return raw, DivergenceSpec("sq-euclidean", 8, sigma=1e-155)
    if case not in ("unit-full-rows", "cancelling-column"):
        return raw, DivergenceSpec(case, 8, epsilon=0.5)
    dense = raw.to_dense()
    if case == "unit-full-rows":
        dense += 1.0  # every count of 0 is a 1
    else:
        dense[:, 0] = rng.choice([0.5, 2.0], n)
        dense[:, 1:] += 1.5
    return dense_to_data(dense), DivergenceSpec("gid", 8)


class TestSmallScopeBaseCase:
    """Small scopes, down to two rows, grow by the same sparse products as
    the large ones; the trees must be those of the reference builder."""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_matches_reference_builder(self, case):
        self.assert_matches_reference_tree(case)

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_offsetvec_layout_matches_reference_tree(self, case, monkeypatch):
        # the same corpora with every width above the dense cap: the build
        # merges OffsetVec items, and so does reference_cluster_tree's heap
        monkeypatch.setattr(anchor_tree, "DENSE_DIM_CAP", 0)
        self.assert_matches_reference_tree(case)

    @staticmethod
    def assert_matches_reference_tree(case):
        rng = np.random.default_rng(2024)
        for trial in range(40):
            raw, spec = reference_corpus(case, rng, trial)
            data = smooth(raw, spec.epsilon)
            use_pruning = trial % 4 != 3
            if case != "overflow":
                assert_same_tree(
                    build_cluster_tree(data, spec),
                    reference_cluster_tree(data, spec, use_pruning),
                )
                continue
            # inf gradients leave the complex sums' real parts NaN: the tree
            # is the reference's and the fit stops with a named error
            with np.errstate(invalid="ignore", over="ignore"):
                got = build_cluster_tree(data, spec)
                want = reference_cluster_tree(data, spec, use_pruning)
                for name in ("perm", "left", "right", "size", "start"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
                with pytest.raises(ValueError, match="non-finite block divergence sum"):
                    build_model(raw, spec, "coarsest")

    @pytest.mark.parametrize("kind", ["gid", "sq-euclidean"])
    def test_identical_pair_keeps_tie_break(self, kind):
        # the farther point from the first pivot (row 0) moves to the second
        # anchor; between identical rows that is row 0 itself, so row 1 leads
        row = (np.array([0, 1]), np.array([2.0, 3.0]))
        data = smooth(DataMatrix.from_rows([row, row], 2), 0.5)
        spec = DivergenceSpec(kind, 2, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        assert tree.perm.tolist() == [1, 0]
        assert_same_tree(tree, reference_cluster_tree(data, spec))

    def test_matches_reference_on_scaling_corpus(self):
        n = 1000
        synth = SyntheticSpec(
            block_topic_alphas(3, 50, overlap=0.3), np.full(3, 80.0), n, [42, n]
        )
        data, _ = generate_synthetic(synth)
        spec, _ = make_divergence_spec("gid", data, seed=42)
        data = smooth(data, spec.epsilon)
        assert_same_tree(
            build_cluster_tree(data, spec), reference_cluster_tree(data, spec)
        )

    @pytest.mark.parametrize(
        "kind", ["gid", "sq-euclidean", "itakura-saito", "logistic"]
    )
    def test_row_kernels_match_pivot_formulas(self, kind, rng):
        d = 6
        if kind == "logistic":
            data = smooth(dense_to_data(rng.uniform(0.05, 0.45, (12, d))), 0.5)
        else:
            data = smoothed_counts(rng, 12, d, epsilon=0.5)
        ws = _Workspace(data, DivergenceSpec(kind, d, epsilon=0.5))
        for j in range(data.n_rows):
            pivot = data.row(j)
            g = ov_grad(ws.spec, pivot)
            gdense = np.zeros(d)
            gdense[g.idx] = g.val
            row, kernel_dense = row_kernel(ws, j)
            assert row == j
            assert (ws.g_base_row[j], ws.g_val_sum[j]) == (g.base, float(g.val.sum()))
            assert ws.phi_row[j] == ov_phi(ws.spec, pivot)
            assert ws.s2_row[j] == pytest.approx(ov_xdotgrad(ws.spec, pivot), rel=1e-12)
            assert np.array_equal(kernel_dense, gdense)

    def test_self_divergence_is_exactly_zero(self):
        # the point side and the pivot side of d(x_j, x_j) share one
        # generator sum and one x'grad(x) per row
        n, dim = 1000, 50
        alphas = block_topic_alphas(3, dim, 0.8)
        data, _ = generate_synthetic(SyntheticSpec(alphas, np.full(3, 20.0), n, [7, n]))
        ws = _Workspace(smooth(data, 0.5), DivergenceSpec("gid", dim, epsilon=0.5))
        own = [div_to_pivot(ws, np.array([j]), row_kernel(ws, j))[0] for j in range(n)]
        assert np.count_nonzero(own) == 0
        assert np.count_nonzero(np.diag(div_block(ws, np.arange(16)))) == 0

    def assert_grow_matches_reference(self, ws, scope, m):
        pivots, members, dists = _grow(ws, scope, m)
        for use_pruning in (True, False):
            want = reference_grow(ws, scope, m, use_pruning)
            assert pivots.tolist() == [a.pivot_row for a in want]
            for a, mem, dis in zip(want, members, dists):
                assert np.array_equal(mem, a.members)
                assert dis.tobytes() == a.dists.tobytes()

    @pytest.mark.parametrize("d", [3, 9, 5000])
    @pytest.mark.parametrize("kind", ["gid", "sq-euclidean", "itakura-saito"])
    def test_grow_matches_reference(self, kind, d):
        # the pivots, members and divergences of the per-anchor reference
        # grower, pruned or not, bit for bit
        rng = np.random.default_rng(d)
        base = random_count_matrix(rng, 80, d, density=min(0.5, 50 / d))
        rows = [base.row(i) for i in range(80)]
        for i, j in rng.integers(0, 80, (15, 2)):
            rows[j] = rows[i]  # copied rows tie at divergence 0
        data = smooth(DataMatrix.from_rows(rows, d), 0.5)
        ws = _Workspace(data, DivergenceSpec(kind, d, epsilon=0.5))
        for _ in range(8):
            n = int(rng.integers(2, 65))
            scope = rng.choice(80, size=n, replace=False)
            self.assert_grow_matches_reference(ws, scope, int(rng.integers(1, n + 1)))

    def test_grow_matches_reference_with_nan_divergences(self):
        # a 1e200 coordinate overflows that row's generator sum: the
        # divergences to it as a pivot are NaN, those from it inf
        rng = np.random.default_rng(3)
        rows = [random_count_matrix(rng, 1, 6).row(0) for _ in range(40)]
        for r in (0, 17):
            idx, val = rows[r]
            rows[r] = (idx, np.r_[1e200, val[1:]])
        data = smooth(DataMatrix.from_rows(rows, 6), 0.0)
        with np.errstate(invalid="ignore", over="ignore"):
            ws = _Workspace(data, DivergenceSpec("sq-euclidean", 6))
            d = div_block(ws, np.arange(40))
            assert np.isnan(d).any() and np.isinf(d).any()
            for m in (2, 7, 40):
                self.assert_grow_matches_reference(ws, np.arange(40), m)
                scope = rng.choice(np.arange(1, 40), size=16, replace=False)
                self.assert_grow_matches_reference(ws, scope, m % 16 + 1)

    def test_tree_matches_reference_with_nan_divergences(self):
        # two rows with a 1e200 coordinate, so every level that holds one
        # of them meets NaN and inf divergences: the whole tree must still
        # be the reference builder's
        rng = np.random.default_rng(19)
        for _ in range(12):
            n = int(rng.integers(20, 121))
            base = random_count_matrix(rng, n, 6)
            rows = [base.row(i) for i in range(n)]
            for r in rng.choice(n, size=2, replace=False):
                idx, val = rows[r]
                rows[r] = (idx, np.r_[1e200, val[1:]])
            data = smooth(DataMatrix.from_rows(rows, 6), 0.0)
            spec = DivergenceSpec("sq-euclidean", 6)
            with np.errstate(invalid="ignore", over="ignore"):
                ws = _Workspace(data, spec)
                d = div_block(ws, np.arange(n))
                assert np.isnan(d).any() and np.isinf(d).any()
                assert_same_tree(
                    build_cluster_tree(data, spec), reference_cluster_tree(data, spec)
                )


class TestLevelBatching:
    """build_cluster_tree grows and merges all scopes of a level together;
    every scope must come out as it does alone."""

    @pytest.mark.parametrize("d", [3, 9, 5000])
    @pytest.mark.parametrize("kind", ["gid", "sq-euclidean"])
    def test_scopes_grow_as_one_each(self, kind, d):
        # disjoint scopes of one corpus, grown together; each against the
        # per-anchor reference grower on that scope alone, bit for bit
        rng = np.random.default_rng(d + 1)
        base = random_count_matrix(rng, 90, d, density=min(0.5, 50 / d))
        rows = [base.row(i) for i in range(90)]
        for i, j in rng.integers(0, 90, (12, 2)):
            rows[j] = rows[i]
        data = smooth(DataMatrix.from_rows(rows, d), 0.5)
        ws = _Workspace(data, DivergenceSpec(kind, d, epsilon=0.5))
        for _ in range(4):
            sizes = rng.integers(2, 17, 8)
            scopes = np.split(rng.permutation(90)[: sizes.sum()], np.cumsum(sizes)[:-1])
            m = np.array([rng.integers(1, n + 1) for n in sizes])
            self.assert_scopes_grow_as_one_each(ws, [np.sort(sc) for sc in scopes], m)

    def test_scopes_stop_at_different_steps(self):
        # scopes handed over by increasing anchor count, with ties, one
        # anchor and as many anchors as rows: the grower lays them out by
        # decreasing count, so that the scopes still growing at a step are a
        # prefix; each must still come out as the reference grows it alone
        rng = np.random.default_rng(8)
        sizes = np.array([6, 9, 9, 12, 5, 14, 8, 10, 7, 11, 3])
        m = np.array([1, 2, 2, 3, 5, 6, 6, 7, 7, 11, 3])
        x = rng.poisson(1.5, (sizes.sum(), 6)).astype(float)
        for i, j in rng.integers(0, sizes.sum(), (12, 2)):
            x[j] = x[i]
        ws = _Workspace(smooth(dense_to_data(x), 0.5), DivergenceSpec("gid", 6, epsilon=0.5))
        scopes = np.split(np.arange(sizes.sum()), np.cumsum(sizes)[:-1])
        self.assert_scopes_grow_as_one_each(ws, scopes, m)
        self.assert_scopes_grow_as_one_each(ws, scopes[::-1], m[::-1])

    @staticmethod
    def assert_scopes_grow_as_one_each(ws, scopes, m):
        ptr = np.r_[0, np.cumsum([sc.size for sc in scopes])]
        flat = np.concatenate(scopes)
        owner, dist, pivots = _grow_scopes(ws, flat, ptr, m)
        assert np.all(pivots[np.arange(pivots.shape[1]) >= m[:, None]] == -1)
        for use_pruning in (True, False):
            for s, scope in enumerate(scopes):
                want = reference_grow(ws, scope, int(m[s]), use_pruning)
                got = slice(ptr[s], ptr[s + 1])
                assert flat[pivots[s, : m[s]]].tolist() == [a.pivot_row for a in want]
                order = np.lexsort((flat[got], -dist[got], owner[got]))
                bounds = np.cumsum([a.size for a in want])[:-1]
                for a, mem, dis in zip(
                    want,
                    np.split(flat[got][order], bounds),
                    np.split(dist[got][order], bounds),
                ):
                    assert np.array_equal(mem, a.members)
                    assert dis.tobytes() == a.dists.tobytes()

    @pytest.mark.parametrize("kind", ["gid", "sq-euclidean"])
    @pytest.mark.parametrize("layout", ["dense", "offsetvec"])
    def test_merges_match_the_heap(self, layout, kind):
        # scopes of 2-12 items, many with copied rows and sizes (tied costs),
        # some with huge coordinates: a NaN cost ranks as +inf, and a live
        # +inf pair must win over the dead pairs below it. The OffsetVec
        # items store the coordinates above 3 (and the first) over a base
        # of 0.5, so their supports differ and copies keep theirs.
        rng = np.random.default_rng(11)
        huge = 1e200 if kind == "sq-euclidean" else 1e306  # phi overflows
        for d in (1, 4, 30):
            spec = DivergenceSpec(kind, d, epsilon=0.5)
            n_scopes, top = 40, 12
            m = rng.integers(2, top + 1, n_scopes)
            rows = rng.uniform(0.5, 9.0, (n_scopes, top, d))
            sizes = rng.integers(1, 6, (n_scopes, top))
            for s in range(0, n_scopes, 3):
                rows[s, 1::2] = rows[s, 0]
                sizes[s] = 2
            rows[5, 1, 0] = rows[9, 0, 0] = huge  # NaN costs, some live pairs
            rows[7, :, 0], m[7] = huge, top  # every live cost NaN, every step
            if kind == "sq-euclidean":
                # two size-2 items at +-1.3e154 cost +inf together, and the
                # other pairs are finite; a NaN item joins them at the end
                rows[10, [1, 2], 0], sizes[10, [1, 2]] = [1.3e154, -1.3e154], 2
                rows[10, 4, 0], m[10] = huge, 8
            items = rows
            if layout == "offsetvec":
                stored = (rows > 3) | (np.arange(d) == 0)
                items = np.fromiter(
                    (
                        OffsetVec(d, 0.5, np.flatnonzero(on), r[on] - 0.5)
                        for r, on in zip(rows.reshape(-1, d), stored.reshape(-1, d))
                    ),
                    object,
                ).reshape(n_scopes, top)
            order = np.argsort(-m, kind="stable")
            with np.errstate(over="ignore", invalid="ignore"):
                assert math.isnan(merge_cost(spec, 1, rows[7, 0], 1, rows[7, 1]))
                if kind == "sq-euclidean":
                    assert merge_cost(spec, 2, rows[10, 1], 2, rows[10, 2]) == math.inf
                # m[7] = top, so the merges are numbered from top on
                left, right = np.zeros((2, n_scopes, top - 1), dtype=np.int64)
                left[order], right[order] = _merge_sorted(
                    spec, sizes[order], m[order], items[order]
                )
                for s in range(n_scopes):
                    tree = reference_greedy_merge(spec, sizes[s, : m[s]], items[s, : m[s]])
                    want = [
                        [x + top - m[s] if x >= m[s] else x for x in (i, j)]
                        for i, j, _ in tree.merges
                    ]
                    got = np.stack([left[s], right[s]], axis=1)[: m[s] - 1]
                    assert got.tolist() == want, s
                    costs = [c for *_, c in tree.merges]
                    if s == 7:
                        assert costs == [math.inf] * (top - 1)  # NaN ranks as +inf
                    if s == 10 and kind == "sq-euclidean":
                        assert costs.count(math.inf) >= 2

    def test_first_max_follows_argmax(self):
        # the first donor with the largest value, NaN before everything
        rng = np.random.default_rng(5)
        for _ in range(200):
            sizes = rng.integers(1, 9, rng.integers(1, 6))
            starts = np.r_[0, np.cumsum(sizes)[:-1]]
            part = np.repeat(np.arange(sizes.size), sizes)
            d = rng.choice([0.0, -0.0, 1.0, 2.0, np.inf, -np.inf, np.nan], part.size)
            donor = rng.random(part.size) < 0.6
            donor[starts] = True
            want = [
                lo + np.flatnonzero(donor[lo : lo + n])[
                    np.argmax(d[lo : lo + n][donor[lo : lo + n]])
                ]
                for lo, n in zip(starts, sizes)
            ]
            assert _first_max(d, donor, part, starts).tolist() == want

    def test_ceil_sqrt(self):
        n = np.r_[np.arange(1, 200_000), [10**12, 10**12 + 1, 2**40 - 1, 2**40 + 1]]
        assert _ceil_sqrt(n).tolist() == [math.isqrt(int(k) - 1) + 1 for k in n]


class TestDuplicateRows:
    """Identical rows drive every radius to 0; an anchor must never be
    emptied by giving away its only member as the next pivot."""

    @pytest.mark.parametrize("copies", [5, 6, 9, 20])
    def test_identical_rows(self, copies):
        row = (np.array([0, 2]), np.array([2.0, 3.0]))
        data = smooth(DataMatrix.from_rows([row] * copies, 3), 0.5)
        spec = DivergenceSpec("gid", 3, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        assert tree.n_nodes == 2 * copies - 1
        assert_same_tree(tree, reference_cluster_tree(data, spec))

    def test_two_groups_of_copies(self):
        rows = [(np.array([0]), np.array([1.0]))] * 20
        rows += [(np.array([1]), np.array([4.0]))] * 20
        data = smooth(DataMatrix.from_rows(rows, 2), 0.5)
        spec = DivergenceSpec("gid", 2, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        assert tree.n_nodes == 79
        assert_same_tree(tree, reference_cluster_tree(data, spec))

    @pytest.mark.parametrize("kind", ["gid", "sq-euclidean", "itakura-saito"])
    def test_low_dimensional_counts(self, kind):
        # few coordinates and small counts: many rows repeat by chance
        rng = np.random.default_rng(7)
        for trial in range(25):
            n, d = int(rng.integers(2, 150)), int(rng.integers(1, 4))
            data = smooth(random_count_matrix(rng, n, d, max_count=3), 0.5)
            spec = DivergenceSpec(kind, d, epsilon=0.5)
            use_pruning = trial % 4 != 3
            tree = build_cluster_tree(data, spec)
            assert tree.n_nodes == 2 * n - 1
            assert_same_tree(tree, reference_cluster_tree(data, spec, use_pruning))

    @pytest.mark.parametrize("seed", [0, 13, 33, 51, 190, 232, 244, 261, 269, 294])
    def test_pivot_never_leaves_its_anchor(self, seed):
        # two rows with a 1e200 coordinate lose precision: a divergence to a
        # new pivot reads negative, so a current pivot's own row (at 0) is
        # "strictly closer" to it; moving it would leave its anchor empty
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(20, 401)), int(rng.integers(3, 41))
        x = rng.poisson(2, (n, d)).astype(float)
        x[rng.choice(n, 2, replace=False), rng.integers(0, d, 2)] = 1e200
        data = smooth(dense_to_data(x), 0.5)
        spec = DivergenceSpec("itakura-saito", d, epsilon=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            tree = build_cluster_tree(data, spec)
            assert tree.n_nodes == 2 * n - 1
            for use_pruning in (True, False):
                assert_same_tree(tree, reference_cluster_tree(data, spec, use_pruning))


class TestWideVocabulary:
    """One no-steal threshold at every width: pivots restricted to the union
    of their stored columns, against the full-width public bound, and the
    trees built with it at d=5000."""

    @staticmethod
    def corpus(kind, n, d, seed):
        rng = np.random.default_rng(seed)
        data = smooth(random_count_matrix(rng, n, d, density=min(0.5, 50 / d)), 0.5)
        return data, DivergenceSpec(kind, d, epsilon=0.5)

    @pytest.mark.parametrize("d", [9, 5000])
    @pytest.mark.parametrize("kind", ["gid", "sq-euclidean"])
    def test_stored_columns_match_full_width(self, kind, d):
        data, spec = self.corpus(kind, 12, d, seed=d)
        rows = np.array([0, 3, 7, 11])
        _, piv = pivot_rows(_Workspace(data, spec), rows)
        got, _ = steal_thresholds(spec, piv[:-1], piv[-1])
        dense = data.to_dense()
        want = [steal_threshold(spec, dense[r], dense[rows[-1]])[0] for r in rows[:-1]]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["gid", "sq-euclidean"])
    def test_pruning_invariance_matches_reference(self, kind):
        data, spec = self.corpus(kind, 60, 5000, seed=60)
        assert_same_tree(
            build_cluster_tree(data, spec),
            reference_cluster_tree(data, spec, use_pruning=True),
        )

    @pytest.mark.parametrize("kind", ["gid", "sq-euclidean"])
    def test_pruning_invariance_on_clustered_wide_rows(self, kind):
        # sparse random rows at d=5000 are all about equally far apart, so
        # no row lies near its pivot and an unsound limit (1.5x the
        # threshold) prunes nothing that should move. These rows hold
        # counts 1..9 on five columns spread over the vocabulary and a 1 on
        # one column of their own, so they sit at every distance from
        # their pivots and such a limit changes the reference's tree.
        n, d = 200, 5000
        rng = np.random.default_rng(205)
        low = random_count_matrix(rng, n, 5)
        spread = np.arange(5) * 1000 + 500
        own = rng.integers(0, 500, n) + 1000 * rng.integers(0, 5, n)
        rows = []
        for i in range(n):
            idx, val = low.row(i)
            idx = np.append(spread[idx], own[i])
            order = np.argsort(idx)
            rows.append((idx[order], np.append(val, 1.0)[order]))
        data = smooth(DataMatrix.from_rows(rows, d), 0.5)
        spec = DivergenceSpec(kind, d, epsilon=0.5)
        assert_same_tree(
            build_cluster_tree(data, spec),
            reference_cluster_tree(data, spec, use_pruning=True),
        )
