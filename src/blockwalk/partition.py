"""Block partitions of the transition matrix over a cluster tree.

A block (A, B) ties every transition probability from a row in subtree A to a
column in subtree B to one shared parameter. A valid partition tiles all
off-diagonal ordered pairs exactly once with non-overlapping subtree pairs.
The coarsest partition pairs every non-root node with its sibling (2(N-1)
blocks); the finest pairs every ordered leaf pair (N(N-1) blocks); refining
any block keeps validity.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "BlockPartition",
    "coarsest_partition",
    "finest_partition",
    "auto_refine",
]


class BlockPartition:
    """Ordered list of blocks, stored as parallel node-id arrays."""

    def __init__(self, a, b, label="custom"):
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)
        if self.a.shape != self.b.shape:
            raise ValueError("block arrays must have equal length")
        self.label = label

    @property
    def n_blocks(self):
        return int(self.a.size)

    def __repr__(self):
        return f"BlockPartition({self.label}, {self.n_blocks} blocks)"


def coarsest_partition(tree):
    """Every non-root node blocked with its sibling."""
    if tree.n_points < 2:
        raise ValueError("coarsest partition requires at least 2 points")
    a = np.delete(np.arange(tree.n_nodes), tree.root)
    up = tree.parent[a]
    b = np.where(tree.left[up] == a, tree.right[up], tree.left[up])
    return BlockPartition(a, b, label="coarsest")


def finest_partition(tree, cap=2048):
    """All ordered leaf pairs; exact once optimized. Guarded to test scale."""
    n = tree.n_points
    if n < 2:
        raise ValueError("finest partition requires at least 2 points")
    if n > cap:
        raise ValueError(f"finest partition refused for N={n} > cap={cap}")
    leaves = tree.leaf_of_row[tree.perm]  # in the order of their rows in perm
    a, b = np.repeat(leaves, n), np.tile(leaves, n)
    off = a != b
    return BlockPartition(a[off], b[off], label="finest")


def auto_refine(p, tree, rounds):
    """Refinement policy: split the block with the largest |A|*|B| (ties to
    the lowest node ids), on its larger side (ties to the A side), `rounds`
    times or until only leaf pairs are left. A split block is replaced in
    place by its two halves, A-side or B-side children in order.

    Each half has a smaller |A||B| than its block, so the blocks split are
    the first `rounds` in the order (-|A||B|, a, b) of all the blocks that
    splitting can make, leaf pairs aside. Halves are made a generation at a
    time, of the blocks whose product reaches the `rounds`-th largest made
    so far: no other block, nor any of its halves, can be among the first.
    Leaf counts laid up the generations and positions laid down them place
    every unsplit block in the output."""
    if rounds < 0:
        raise ValueError(f"refinement rounds must be >= 0, got {rounds}")
    if rounds == 0 or p.n_blocks == 0:
        return p
    size, left, right = tree.size, tree.left, tree.right
    a, b = p.a, p.b
    gens = []  # per generation: a, b, |A||B| and the blocks halved
    pool, cut = np.empty(0, dtype=np.int64), 2  # leaf pairs have |A||B| = 1
    while a.size:
        prod = size[a] * size[b]
        pool = np.concatenate([pool, prod[prod >= cut]])
        if pool.size >= rounds:  # the rounds-th largest so far
            kth = pool.size - rounds
            cut = max(cut, int(np.partition(pool, kth)[kth]))
            pool = pool[pool >= cut]
        halved = np.flatnonzero(prod >= cut)
        gens.append((a, b, prod, halved))
        x, y = a[halved], b[halved]
        on_a = (left[y] < 0) | ((left[x] >= 0) & (size[x] >= size[y]))
        a = np.stack([np.where(on_a, left[x], x), np.where(on_a, right[x], x)], 1).ravel()
        b = np.stack([np.where(on_a, y, left[y]), np.where(on_a, y, right[y])], 1).ravel()
    # the split set: every product above the cut, then the ties in (a, b) order
    prods = np.concatenate([g[2] for g in gens])
    split = prods > cut
    tied = np.flatnonzero(prods == cut)
    need = rounds - int(np.count_nonzero(split))
    if need < tied.size:
        ab = [np.concatenate([g[i] for g in gens])[tied] for i in (0, 1)]
        tied = tied[np.lexsort(ab[::-1])[:need]]
    split[tied] = True
    if not split.any():  # only leaf pairs: already the finest
        return p
    split = np.split(split, np.cumsum([g[2].size for g in gens])[:-1])
    # the j-th block halved in a generation has its halves at 2j and 2j + 1
    # of the next; js lists the j of the blocks split
    js = [np.flatnonzero(sp[g[3]]) for sp, g in zip(split, gens)]
    leaves = [np.ones(sp.size, dtype=np.int64) for sp in split]
    for g in range(len(gens) - 2, -1, -1):  # leaf counts up the generations
        j = js[g]
        leaves[g][gens[g][3][j]] = leaves[g + 1][2 * j] + leaves[g + 1][2 * j + 1]
    out_a = np.empty(int(leaves[0].sum()), dtype=np.int64)
    out_b = np.empty_like(out_a)
    pos = np.cumsum(leaves[0]) - leaves[0]
    for g, (ga, gb, _, halved) in enumerate(gens):  # positions down them
        keep = (pos >= 0) & ~split[g]  # -1: the block is not in the output
        out_a[pos[keep]], out_b[pos[keep]] = ga[keep], gb[keep]
        if g + 1 < len(gens):
            j, nxt = js[g], np.full(leaves[g + 1].size, -1, dtype=np.int64)
            nxt[2 * j] = pos[halved[j]]
            nxt[2 * j + 1] = nxt[2 * j] + leaves[g + 1][2 * j]
            pos = nxt
    return BlockPartition(out_a, out_b, label="refined")
