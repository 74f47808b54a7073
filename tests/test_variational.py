import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockwalk.divergence as divergence
import blockwalk.variational as variational
from blockwalk.anchor_tree import build_cluster_tree
from blockwalk.cli import build_model
from blockwalk.dataset import (
    SyntheticSpec,
    block_topic_alphas,
    generate_synthetic,
    smooth,
)
from blockwalk.divergence import KINDS, DivergenceSpec
from blockwalk.partition import (
    BlockPartition,
    auto_refine,
    coarsest_partition,
    finest_partition,
)
from blockwalk.variational import (
    BlockParams,
    block_divergence_sums,
    constraint_residuals,
    exact_loglik,
    lower_bound,
    optimize_q,
)

from conftest import smoothed_counts
from oracles import (
    bregman_divergence,
    brute_block_sums,
    carrier_rows,
    euclidean_block_divergence_sum,
    is_leaf,
    ov_dot,
    pairwise_divergences,
    phi,
    phi_rows,
    projected_ascent_q,
    reference_exact_loglik,
    reference_optimize_q,
    subtree_rows,
)
from test_anchor_tree import dense_to_data
from test_properties import PROPERTY
from test_propagation import kind_data


def euclid_tree(points_1d):
    data = smooth(dense_to_data(np.asarray(points_1d, dtype=float)[:, None]), 0.0)
    spec = DivergenceSpec("sq-euclidean", 1, sigma=1.0)
    return build_cluster_tree(data, spec), spec, data


class TestBlockDivergenceSum:
    def test_singleton_gid_block(self):
        data = smooth(dense_to_data(np.array([[1.0, 2.0], [2.0, 1.0]])), 0.0)
        spec = DivergenceSpec("gid", 2)
        tree = build_cluster_tree(data, spec)
        leaf_of = tree.leaf_of_row
        a, b = int(leaf_of[0]), int(leaf_of[1])
        got = block_divergence_sums(tree, BlockPartition([a], [b]))[0]
        assert got == pytest.approx(0.693147, abs=1e-6)

    def test_two_on_one_euclidean(self):
        tree, spec, _ = euclid_tree([0.0, 1.0, 3.0])
        pair_node = None
        for nid in range(tree.n_nodes):
            if not is_leaf(tree, nid) and set(subtree_rows(tree, nid)) == {0, 1}:
                pair_node = nid
        assert pair_node is not None
        leaf3 = int(tree.leaf_of_row[2])
        got = block_divergence_sums(tree, BlockPartition([pair_node], [leaf3]))[0]
        assert got == pytest.approx(6.5)  # 9/2 + 4/2

    def test_identical_points_zero(self):
        data = smooth(dense_to_data(np.array([[2.0, 3.0], [2.0, 3.0]])), 0.0)
        spec = DivergenceSpec("gid", 2)
        tree = build_cluster_tree(data, spec)
        a, b = int(tree.leaf_of_row[0]), int(tree.leaf_of_row[1])
        got = block_divergence_sums(tree, BlockPartition([a], [b]))[0]
        assert got == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["sq-euclidean", "gid", "itakura-saito"])
    def test_decoupling_matches_brute_force(self, kind, rng):
        data = smoothed_counts(rng, 48, 7, epsilon=0.5)
        spec = DivergenceSpec(kind, 7, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        for part in (coarsest_partition(tree), finest_partition(tree)):
            fast = block_divergence_sums(tree, part)
            brute = brute_block_sums(tree, part, spec, data)
            np.testing.assert_allclose(fast, brute, rtol=1e-8, atol=1e-9)

    def test_columns_summing_to_zero(self, rng):
        # integer rows x and -x: every column sums to exactly 0 over the
        # root, real part and gradient part alike, so scipy drops the
        # complex entry from s3 and s4 together
        x = rng.integers(-4, 5, (6, 3)).astype(float)
        data = smooth(dense_to_data(np.vstack([x, -x])), 0.0)
        spec = DivergenceSpec("sq-euclidean", 3)
        tree = build_cluster_tree(data, spec)
        assert tree.stats.ptr[tree.root] == tree.stats.ptr[tree.root + 1]
        dense = data.to_dense()
        for nid in range(tree.n_nodes):  # sigma = 1: the gradient is the row
            st, want = tree.stats[nid], dense[subtree_rows(tree, nid)].sum(axis=0)
            assert np.array_equal(st.s3.to_dense(), want)
            assert np.array_equal(st.s4.to_dense(), want)
        for part in (coarsest_partition(tree), finest_partition(tree)):
            fast = block_divergence_sums(tree, part)
            brute = brute_block_sums(tree, part, spec, data)
            np.testing.assert_allclose(fast, brute, rtol=1e-12, atol=1e-12)

    def test_matches_per_block_offset_dots(self, rng):
        # sparse rows over a wide vocabulary: node supports overlap in part
        data = smoothed_counts(rng, 60, 300, epsilon=0.5, density=0.03)
        spec = DivergenceSpec("gid", 300, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        part = auto_refine(coarsest_partition(tree), tree, 40)
        want = []
        for a, b in zip(part.a, part.b):
            sa, sb = tree.stats[a], tree.stats[b]
            want.append(
                tree.size[b] * sa.s1
                + tree.size[a] * (sb.s2 - sb.s1)
                - ov_dot(sa.s3, sb.s4)
            )
        np.testing.assert_allclose(
            block_divergence_sums(tree, part), want, rtol=1e-12, atol=1e-9
        )

    def test_euclidean_legacy_form_agrees(self, rng):
        data = smoothed_counts(rng, 40, 6, epsilon=0.5)
        spec = DivergenceSpec("sq-euclidean", 6, sigma=1.7, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        part = coarsest_partition(tree)
        fast_all = block_divergence_sums(tree, part)
        for k in range(part.n_blocks):
            a, b = int(part.a[k]), int(part.b[k])
            fast = fast_all[k]
            legacy = euclidean_block_divergence_sum(
                tree.stats[a],
                tree.stats[b],
                tree.size[a],
                tree.size[b],
                spec,
            )
            assert fast == pytest.approx(legacy, rel=1e-9, abs=1e-9)


class TestOptimizeQ:
    def test_n2_forced_to_one(self, rng):
        data = smoothed_counts(rng, 2, 4)
        spec = DivergenceSpec("gid", 4, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        part = coarsest_partition(tree)
        params = optimize_q(tree, part, spec, data)
        np.testing.assert_allclose(params.values, 1.0, atol=1e-12)

    def test_n3_structural_half(self):
        tree, spec, data = euclid_tree([0.0, 1.0, 10.0])
        part = coarsest_partition(tree)
        params = optimize_q(tree, part, spec, data)
        pair_node = next(
            nid
            for nid in range(tree.n_nodes)
            if not is_leaf(tree, nid) and nid != tree.root
        )
        leaf_far = int(tree.leaf_of_row[2])
        k = next(
            i
            for i in range(part.n_blocks)
            if part.a[i] == leaf_far and part.b[i] == pair_node
        )
        assert params.values[k] == pytest.approx(0.5, abs=1e-10)
        assert params.converged

    def test_matches_projected_ascent_oracle(self, rng):
        for kind in ("sq-euclidean", "gid"):
            data = smoothed_counts(rng, 24, 5, epsilon=0.5)
            spec = DivergenceSpec(kind, 5, epsilon=0.5)
            tree = build_cluster_tree(data, spec)
            part = coarsest_partition(tree)
            params = optimize_q(tree, part, spec, data)
            assert params.converged
            report = lower_bound(params, part, tree, spec, data)
            q_star, f_star = projected_ascent_q(tree, part, spec, data)
            ell_star = report.constant + f_star
            assert abs(report.ell - ell_star) <= 1e-6 * abs(ell_star)
            assert np.max(np.abs(constraint_residuals(tree, part, params))) <= 1e-9

    def test_finest_partition_recovers_softmax(self, rng):
        data = smoothed_counts(rng, 12, 5, epsilon=0.5)
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        part = finest_partition(tree)
        params = optimize_q(tree, part, spec, data)

        dense = data.to_dense()
        D = pairwise_divergences(spec, dense, dense)
        np.fill_diagonal(D, np.inf)
        P = np.exp(-D - np.log(np.exp(-D).sum(axis=1, keepdims=True)))
        for k in range(part.n_blocks):
            i = int(tree.perm[tree.start[int(part.a[k])]])
            j = int(tree.perm[tree.start[int(part.b[k])]])
            assert params.values[k] == pytest.approx(P[i, j], abs=1e-8)

    @pytest.mark.parametrize("max_sweeps", [0, 1])
    def test_nonconvergence_is_flagged(self, rng, max_sweeps):
        # below two passes the down pass is skipped: a partial, flagged result
        data = smoothed_counts(rng, 16, 4)
        spec = DivergenceSpec("gid", 4, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        part = coarsest_partition(tree)
        with pytest.warns(RuntimeWarning, match="optimizer stopped"):
            params = optimize_q(tree, part, spec, data, max_sweeps=max_sweeps)
        assert not params.converged
        res = np.max(np.abs(constraint_residuals(tree, part, params)))
        assert params.residual == res > 0

    def test_wide_vocabulary_converges(self):
        # a wide topic corpus on which the earlier Newton-CG dual solver
        # stalled at a residual near 3e-5 within 60 sweeps
        n, dim = 1000, 3000
        alphas = block_topic_alphas(3, dim, 0.3)
        data, _ = generate_synthetic(SyntheticSpec(alphas, np.full(3, 80.0), n, [7, n]))
        spec = DivergenceSpec("gid", dim, epsilon=0.5)
        smoothed = smooth(data, 0.5)
        tree = build_cluster_tree(smoothed, spec)
        part = coarsest_partition(tree)
        params = optimize_q(tree, part, spec, smoothed, max_sweeps=60)
        assert params.converged and params.residual <= 1e-10
        assert np.max(np.abs(constraint_residuals(tree, part, params))) <= 1e-10

    def test_matches_oracle_with_blockless_inner_nodes(self, rng):
        # refinement leaves inner nodes other than the root with no block of
        # their own (L = -inf): the up pass must carry them through
        data = smoothed_counts(rng, 60, 5)
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        part = auto_refine(coarsest_partition(tree), tree, 25)
        blockless = np.setdiff1d(np.arange(tree.n_nodes), part.a)
        assert blockless.size > 1  # the root and at least one inner node
        params = optimize_q(tree, part, spec, data)
        assert params.converged
        report = lower_bound(params, part, tree, spec, data)
        _, f_star = projected_ascent_q(tree, part, spec, data)
        ell_star = report.constant + f_star
        assert abs(report.ell - ell_star) <= 1e-6 * abs(ell_star)

    def test_uncovered_rows_are_flagged(self, rng):
        # a hand-made partition without one leaf's only block has no
        # feasible point; the result is finite and flagged
        data = smoothed_counts(rng, 2, 4)
        spec = DivergenceSpec("gid", 4, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        full = coarsest_partition(tree)
        part = BlockPartition(full.a[1:], full.b[1:])
        with pytest.warns(RuntimeWarning, match="optimizer stopped"):
            params = optimize_q(tree, part, spec, data)
        assert not params.converged and params.residual == 1.0
        assert np.all(np.isfinite(params.log_values) | (params.values == 0))

    def test_row_constraints_on_refined(self, rng):
        data = smoothed_counts(rng, 30, 5)
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        part = auto_refine(coarsest_partition(tree), tree, 7)
        params = optimize_q(tree, part, spec, data)
        assert params.converged
        assert np.max(np.abs(constraint_residuals(tree, part, params))) <= 1e-9
        assert np.all(params.values > 0) and np.all(params.values <= 1 + 1e-12)


@settings(PROPERTY, max_examples=100)
@given(
    n=st.integers(2, 300),
    d=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    copies=st.integers(0, 300),
    kind=st.sampled_from(["gid", "sq-euclidean", "itakura-saito"]),
    rounds=st.integers(0, 900),
    drop=st.sampled_from([0.0, 0.0, 0.1, 0.5]),
)
def test_level_passes_match_per_node_passes(n, d, seed, copies, kind, rounds, drop):
    # smoothed counts with copied rows; a coarsest or refined partition, from
    # which dropped blocks leave nodes with L = -inf and subtrees with v = -inf
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 5, (n, d)) * (rng.random((n, d)) < 0.6)
    counts[rng.integers(0, n, copies)] = counts[rng.integers(0, n, copies)]
    data = smooth(dense_to_data(counts), 0.5)
    spec = DivergenceSpec(kind, d, epsilon=0.5)
    tree = build_cluster_tree(data, spec)
    part = auto_refine(coarsest_partition(tree), tree, rounds % (3 * n))
    keep = rng.random(part.n_blocks) >= drop
    part = BlockPartition(part.a[keep], part.b[keep])
    for max_sweeps in (1, 2):  # without and with the down pass
        big_l, v, log_r, q, log_q, residual = reference_optimize_q(tree, part, max_sweeps)
        got_v, got_log_r = variational._tree_passes(tree, big_l, max_sweeps >= 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            params = optimize_q(tree, part, max_sweeps=max_sweeps)
        pairs = [(v, got_v), (log_r, got_log_r), (q, params.values), (log_q, params.log_values)]
        for want, got in pairs:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert params.residual == residual


class TestLowerBound:
    def test_n2_euclidean_closed_form(self):
        # two 1-D points at distance 1: ell = -log(2*pi) - 1 in total
        # (kernel normalizer per point plus the single half-squared distance)
        tree, spec, data = euclid_tree([0.0, 1.0])
        part = coarsest_partition(tree)
        params = optimize_q(tree, part, spec, data)
        report = lower_bound(params, part, tree, spec, data)
        want = -np.log(2 * np.pi) - 1.0
        assert report.ell == pytest.approx(want, rel=1e-12)
        assert report.ell == pytest.approx(exact_loglik(data, spec), rel=1e-12)

    def test_report_reconstructs(self, rng):
        data = smoothed_counts(rng, 20, 4)
        spec = DivergenceSpec("gid", 4, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        part = coarsest_partition(tree)
        params = optimize_q(tree, part, spec, data)
        rep = lower_bound(params, part, tree, spec, data)
        recon = rep.constant - float(rep.d_ab @ params.values) - rep.entropy_term
        assert rep.ell == pytest.approx(recon, rel=1e-10)

    def test_finest_closes_the_gap(self, rng):
        data = smoothed_counts(rng, 16, 4)
        spec = DivergenceSpec("gid", 4, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        part = finest_partition(tree)
        params = optimize_q(tree, part, spec, data)
        rep = lower_bound(params, part, tree, spec, data)
        assert rep.ell == pytest.approx(exact_loglik(data, spec), abs=1e-8)

    def test_coarsest_is_a_lower_bound(self, rng):
        for kind in ("sq-euclidean", "gid"):
            data = smoothed_counts(rng, 24, 5)
            spec = DivergenceSpec(kind, 5, epsilon=0.5)
            tree = build_cluster_tree(data, spec)
            part = coarsest_partition(tree)
            params = optimize_q(tree, part, spec, data)
            rep = lower_bound(params, part, tree, spec, data)
            assert rep.ell <= exact_loglik(data, spec) + 1e-9

    def test_refinement_monotone(self, rng):
        data = smoothed_counts(rng, 20, 5)
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        part = coarsest_partition(tree)
        prev = None
        for _ in range(6):
            params = optimize_q(tree, part, spec, data)
            ell = lower_bound(params, part, tree, spec, data).ell
            if prev is not None:
                assert ell >= prev - 1e-9
            prev = ell
            part = auto_refine(part, tree, 1)


class TestBlockSumsOnce:
    """The bound reuses the block sums of the fit only for its own tree and
    partition."""

    @staticmethod
    def fitted(rng, n=30):
        data = smoothed_counts(rng, n, 5)
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        part = auto_refine(coarsest_partition(tree), tree, 12)
        return tree, part, optimize_q(tree, part, spec, data)

    @staticmethod
    def bare(params):
        """The same parameters with no fit attached: the bound sums afresh."""
        return BlockParams(params.values, params.log_values)

    def test_build_model_sums_once(self, rng, monkeypatch):
        calls = []
        real = variational.block_divergence_sums

        def counted(tree, partition):
            calls.append(partition)
            return real(tree, partition)

        monkeypatch.setattr(variational, "block_divergence_sums", counted)
        data = smoothed_counts(rng, 30, 5).base
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        model, report, _, _ = build_model(data, spec, "refine:12")
        assert len(calls) == 1
        want = lower_bound(self.bare(model.params), model.partition, model.tree)
        assert report.ell == want.ell
        np.testing.assert_array_equal(report.d_ab, want.d_ab)

    def test_other_partition_sums_afresh(self, rng):
        tree, part, params = self.fitted(rng)
        # the same blocks in reverse order, with the parameters moved along:
        # the fit's sums, in the fit's order, would pair with the wrong q
        flipped = BlockPartition(part.a[::-1], part.b[::-1])
        moved = replace(
            params, values=params.values[::-1], log_values=params.log_values[::-1]
        )
        got = lower_bound(moved, flipped, tree)
        assert got.ell == lower_bound(self.bare(moved), flipped, tree).ell
        np.testing.assert_array_equal(got.d_ab, block_divergence_sums(tree, flipped))
        assert got.ell == pytest.approx(lower_bound(params, part, tree).ell, rel=1e-12)

    def test_other_tree_sums_afresh(self, rng):
        tree, part, params = self.fitted(rng)
        # a tree on other rows of the same size: same node ids, other sums
        other, _, _ = self.fitted(rng)
        got = lower_bound(params, part, other)
        want = lower_bound(self.bare(params), part, other)
        assert got.ell == want.ell
        assert got.ell != lower_bound(params, part, tree).ell


class TestExactLoglik:
    def test_two_identical_points(self):
        data = smooth(dense_to_data(np.array([[2.0, 1.0], [2.0, 1.0]])), 0.0)
        spec = DivergenceSpec("gid", 2)
        want = 2 * (phi(spec, [2.0, 1.0]) + carrier_rows(spec, np.array([2.0, 1.0])[None])[0])
        assert exact_loglik(data, spec) == pytest.approx(want, rel=1e-12)

    def test_large_separation_finite(self):
        data = smooth(dense_to_data(np.array([[0.0], [200.0], [400.0]])), 0.0)
        spec = DivergenceSpec("sq-euclidean", 1, sigma=1.0)
        val = exact_loglik(data, spec)
        assert np.isfinite(val)

    def test_matches_naive_sum(self, rng):
        data = smoothed_counts(rng, 32, 5)
        spec = DivergenceSpec("gid", 5, epsilon=0.5)
        dense = data.to_dense()
        total = 0.0
        for i in range(32):
            s = sum(
                np.exp(-bregman_divergence(spec, dense[i], dense[j]))
                for j in range(32)
                if j != i
            )
            total += np.log(s)
        total += float(np.sum(phi_rows(spec, dense) + carrier_rows(spec, dense)))
        total -= 32 * np.log(31)
        assert exact_loglik(data, spec) == pytest.approx(total, abs=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n, block", [(2, 512), (25, 2), (25, 7), (25, 25)])
    def test_row_blocks_match_whole_matrix(self, rng, monkeypatch, kind, n, block):
        # each row's logsumexp from its block: the same float as from the
        # whole N x N matrix. Blocks of one row are left out here: BLAS can
        # round a one-row product otherwise than a whole product this small
        # (seen at N = 25).
        monkeypatch.setattr(divergence, "ROW_BLOCK", block)
        data, spec = kind_data(kind, rng, n)
        assert exact_loglik(data, spec) == reference_exact_loglik(data, spec)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [513, 1100])
    def test_default_blocks_match_whole_matrix(self, rng, kind, n):
        # blocks of the default height: N = 513 leaves a last block of one
        # row, N = 1100 takes three blocks
        data, spec = kind_data(kind, rng, n, d=17)
        assert divergence.ROW_BLOCK < n
        assert exact_loglik(data, spec) == reference_exact_loglik(data, spec)

    def test_requires_two_points(self):
        data = smooth(dense_to_data(np.array([[1.0]])), 0.0)
        with pytest.raises(ValueError):
            exact_loglik(data, DivergenceSpec("sq-euclidean", 1))
