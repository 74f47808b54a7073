"""Block partitions of the transition matrix over a cluster tree.

A block (A, B) ties every transition probability from a row in subtree A to a
column in subtree B to one shared parameter. A valid partition tiles all
off-diagonal ordered pairs exactly once with non-overlapping subtree pairs.
The coarsest partition pairs every non-root node with its sibling (2(N-1)
blocks); the finest pairs every ordered leaf pair (N(N-1) blocks); refining
any block keeps validity.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Block",
    "BlockPartition",
    "coarsest_partition",
    "finest_partition",
    "refine_partition",
    "auto_refine",
]


@dataclass(frozen=True)
class Block:
    a: int  # row-side subtree
    b: int  # column-side subtree


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

    def blocks(self):
        return [Block(int(x), int(y)) for x, y in zip(self.a, self.b)]

    def index_of(self, block):
        hits = np.nonzero((self.a == block.a) & (self.b == block.b))[0]
        if hits.size == 0:
            raise ValueError(f"block ({block.a}, {block.b}) not in partition")
        return int(hits[0])

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


def refine_partition(p, block, tree, side=None):
    """Split one block along a non-leaf side; block count grows by one."""
    k = p.index_of(block)
    a, b = int(p.a[k]), int(p.b[k])
    if side is None:
        side = "a" if not tree.is_leaf(a) else "b"
    if side == "a":
        if tree.is_leaf(a):
            raise ValueError("cannot refine: chosen A side is a leaf")
        repl = [(int(tree.left[a]), b), (int(tree.right[a]), b)]
    elif side == "b":
        if tree.is_leaf(b):
            raise ValueError("cannot refine: chosen B side is a leaf")
        repl = [(a, int(tree.left[b])), (a, int(tree.right[b]))]
    else:
        raise ValueError("side must be 'a', 'b' or None")
    new_a = np.concatenate([p.a[:k], [r[0] for r in repl], p.a[k + 1 :]])
    new_b = np.concatenate([p.b[:k], [r[1] for r in repl], p.b[k + 1 :]])
    return BlockPartition(new_a, new_b, label="refined")


def auto_refine(p, tree, rounds):
    """Refinement policy: split the block with the largest |A|*|B| (ties to
    the lowest node ids), on its larger side (ties to the A side).

    The blocks wait in one max-heap; a split block is replaced in place by
    its two halves, A-side or B-side children in order, as
    refine_partition does."""
    if rounds < 0:
        raise ValueError(f"refinement rounds must be >= 0, got {rounds}")
    size, left, right = tree.size.tolist(), tree.left.tolist(), tree.right.tolist()
    a, b = p.a.tolist(), p.b.tolist()
    halves = {}  # split block -> its two halves, as indices into a and b
    prod = (tree.size[p.a] * tree.size[p.b]).tolist()
    heap = [(-prod[k], x, y, k) for k, (x, y) in enumerate(zip(a, b))]
    heapq.heapify(heap)
    for _ in range(rounds):
        if not heap or heap[0][0] == -1:
            break  # only leaf pairs left: the finest
        _, x, y, k = heapq.heappop(heap)
        # the larger side that is not a leaf, A on a tie
        if left[y] < 0 or (left[x] >= 0 and size[x] >= size[y]):
            parts = [(left[x], y), (right[x], y)]
        else:
            parts = [(x, left[y]), (x, right[y])]
        halves[k] = (len(a), len(a) + 1)
        for u, v in parts:
            heapq.heappush(heap, (-size[u] * size[v], u, v, len(a)))
            a.append(u)
            b.append(v)
    if not halves:
        return p
    order, stack = [], list(range(p.n_blocks))[::-1]
    while stack:
        k = stack.pop()
        if k in halves:
            stack.extend(halves[k][::-1])
        else:
            order.append(k)
    return BlockPartition(np.array(a)[order], np.array(b)[order], label="refined")
