import numpy as np
import pytest

from blockwalk.anchor_tree import build_cluster_tree
from blockwalk.dataset import smooth
from blockwalk.divergence import DivergenceSpec
from blockwalk.partition import auto_refine, coarsest_partition, finest_partition

from conftest import random_count_matrix
from oracles import (
    Block,
    blocks,
    is_leaf,
    reference_auto_refine,
    reference_finest_partition,
    refine_partition,
    row_block_lists,
    subtree_rows,
    validate_partition,
)
from test_anchor_tree import dense_to_data


def gid_tree(rng, n, d=5, epsilon=0.5):
    data = smooth(random_count_matrix(rng, n, d), epsilon)
    spec = DivergenceSpec("gid", d, epsilon=epsilon)
    return build_cluster_tree(data, spec)


@pytest.fixture
def paired_line_tree():
    """Four 1-D points in two tight pairs: hierarchy ((0,1),(2,3))."""
    data = smooth(dense_to_data(np.array([[1.0], [1.1], [10.0], [10.1]])), 0.0)
    spec = DivergenceSpec("sq-euclidean", 1, sigma=1.0)
    return build_cluster_tree(data, spec)


class TestCoarsest:
    def test_four_point_example(self, paired_line_tree):
        tree = paired_line_tree
        p = coarsest_partition(tree)
        assert p.n_blocks == 6
        # the two internal siblings appear as a block pair enforcing the
        # shared parameter across their 2x2 transition submatrix
        internal = [n for n in range(tree.n_nodes) if not is_leaf(tree, n) and n != tree.root]
        assert len(internal) == 2
        pairs = set(zip(p.a.tolist(), p.b.tolist()))
        assert (internal[0], internal[1]) in pairs
        assert (internal[1], internal[0]) in pairs
        left_rows = set(subtree_rows(tree, internal[0]))
        assert left_rows in ({0, 1}, {2, 3})

    def test_two_points(self, rng):
        tree = gid_tree(rng, 2)
        p = coarsest_partition(tree)
        assert p.n_blocks == 2
        assert validate_partition(p, tree)

    def test_count_law(self, rng):
        for n in (2, 3, 7, 20, 33):
            tree = gid_tree(rng, n)
            assert coarsest_partition(tree).n_blocks == 2 * (n - 1)

    def test_validates(self, rng):
        tree = gid_tree(rng, 17)
        assert validate_partition(coarsest_partition(tree), tree)


class TestFinest:
    def test_count_and_validity(self, rng):
        for n in (2, 3, 9):
            tree = gid_tree(rng, n)
            p = finest_partition(tree)
            assert p.n_blocks == n * (n - 1)
            assert validate_partition(p, tree)

    def test_two_points_matches_coarsest(self, rng):
        tree = gid_tree(rng, 2)
        fine = finest_partition(tree)
        coarse = coarsest_partition(tree)
        assert set(zip(fine.a, fine.b)) == set(zip(coarse.a, coarse.b))

    def test_matches_double_loop(self, rng):
        for n in range(2, 65):
            tree = gid_tree(rng, n)
            want = reference_finest_partition(tree)
            got = finest_partition(tree)
            assert got.a.tobytes() == want.a.tobytes()
            assert got.b.tobytes() == want.b.tobytes()

    def test_cap_guard(self, rng):
        tree = gid_tree(rng, 10)
        with pytest.raises(ValueError, match="cap"):
            finest_partition(tree, cap=9)


class TestRefine:
    def test_split_a_side(self, paired_line_tree):
        tree = paired_line_tree
        p = coarsest_partition(tree)
        internal = [n for n in range(tree.n_nodes) if not is_leaf(tree, n) and n != tree.root]
        blk = Block(internal[0], internal[1])
        q = refine_partition(p, blk, tree, side="a")
        assert q.n_blocks == p.n_blocks + 1
        assert validate_partition(q, tree)
        pairs = set(zip(q.a.tolist(), q.b.tolist()))
        assert (tree.left[internal[0]], internal[1]) in pairs
        assert (tree.right[internal[0]], internal[1]) in pairs
        assert (internal[0], internal[1]) not in pairs

    def test_leaf_pair_cannot_refine(self, rng):
        tree = gid_tree(rng, 2)
        p = coarsest_partition(tree)
        with pytest.raises(ValueError, match="cannot refine"):
            refine_partition(p, blocks(p)[0], tree)

    def test_chain_to_finest(self, rng):
        for n in (4, 9, 16):
            tree = gid_tree(rng, n)
            p = coarsest_partition(tree)
            while True:
                target = None
                for blk in blocks(p):
                    if not (is_leaf(tree, blk.a) and is_leaf(tree, blk.b)):
                        target = blk
                        break
                if target is None:
                    break
                before = p.n_blocks
                p = refine_partition(p, target, tree)
                assert p.n_blocks == before + 1
                assert validate_partition(p, tree)
            assert p.n_blocks == n * (n - 1)

    def test_auto_refine_rounds(self, rng):
        tree = gid_tree(rng, 12)
        p = coarsest_partition(tree)
        q = auto_refine(p, tree, 5)
        assert q.n_blocks == p.n_blocks + 5
        assert validate_partition(q, tree)

    def test_auto_refine_rejects_negative_rounds(self, rng):
        tree = gid_tree(rng, 12)
        with pytest.raises(ValueError, match="rounds must be >= 0"):
            auto_refine(coarsest_partition(tree), tree, -5)

    def test_auto_refine_matches_round_by_round_loop(self, rng):
        tree = gid_tree(rng, 40)
        p = coarsest_partition(tree)
        for rounds in (0, 1, 7, 300, 5000):
            got = auto_refine(p, tree, rounds)
            want = reference_auto_refine(p, tree, rounds)
            assert np.array_equal(got.a, want.a), rounds
            assert np.array_equal(got.b, want.b), rounds
        assert got.n_blocks == 40 * 39  # stopped at the finest

    def test_auto_refine_of_leaf_pairs_keeps_the_partition(self, rng):
        # two points: the coarsest partition is already the finest, so no
        # round splits and the partition comes back with its own label
        tree = gid_tree(rng, 2)
        p = coarsest_partition(tree)
        assert auto_refine(p, tree, 5) is p

    def test_auto_refine_matches_reference_at_tied_products(self):
        # copied rows and small trees: many blocks share |A||B|, also at the
        # rounds-th largest, where only the (a, b) order decides which split;
        # rounds run to the finest partition and past it
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            x = rng.poisson(1.0, (n, 3)).astype(float)
            for i, j in rng.integers(0, n, (n // 3, 2)):
                x[j] = x[i]
            spec = DivergenceSpec("gid", 3, epsilon=0.5)
            tree = build_cluster_tree(smooth(dense_to_data(x), 0.5), spec)
            p = coarsest_partition(tree)
            for rounds in (1, int(rng.integers(1, n * n)), n * (n - 1), 10 * n * n):
                got = auto_refine(p, tree, rounds)
                want = reference_auto_refine(p, tree, rounds)
                assert np.array_equal(got.a, want.a), (n, rounds)
                assert np.array_equal(got.b, want.b), (n, rounds)


class TestValidate:
    def test_missing_block_reported(self, rng):
        tree = gid_tree(rng, 6)
        p = coarsest_partition(tree)
        broken = type(p)(p.a[:-1], p.b[:-1])
        check = validate_partition(broken, tree)
        assert not check
        assert "uncovered" in check.problem

    def test_duplicate_block_reported(self, rng):
        tree = gid_tree(rng, 6)
        p = coarsest_partition(tree)
        dup = type(p)(
            np.concatenate([p.a, p.a[:1]]), np.concatenate([p.b, p.b[:1]])
        )
        check = validate_partition(dup, tree)
        assert not check
        assert "covered 2 times" in check.problem

    def test_overlapping_sides_reported(self, rng):
        tree = gid_tree(rng, 6)
        nid = tree.root
        p = coarsest_partition(tree)
        bad = type(p)(
            np.concatenate([p.a, [nid]]), np.concatenate([p.b, [tree.left[nid]]])
        )
        check = validate_partition(bad, tree)
        assert not check

    def test_brute_force_coverage_random_trees(self, rng):
        for n in (5, 13, 31, 64):
            tree = gid_tree(rng, n)
            for p in (coarsest_partition(tree), finest_partition(tree)):
                cover = np.zeros((n, n), dtype=int)
                for blk in blocks(p):
                    ra = subtree_rows(tree, blk.a)
                    rb = subtree_rows(tree, blk.b)
                    cover[np.ix_(ra, rb)] += 1
                off = ~np.eye(n, dtype=bool)
                assert np.all(cover[off] == 1)
                assert np.all(np.diag(cover) == 0)

    def test_row_block_lists_tile_columns(self, rng):
        tree = gid_tree(rng, 10)
        p = coarsest_partition(tree)
        lists = row_block_lists(p, tree)
        for i, blocks in enumerate(lists):
            cols = []
            for k in blocks:
                cols.extend(subtree_rows(tree, int(p.b[k])))
            assert sorted(cols) == [j for j in range(10) if j != i]
