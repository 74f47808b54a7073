"""Anchor trees under a Bregman divergence.

Construction runs in phases: grow ceil(sqrt(n)) anchors (each a pivot point
with members sorted by decreasing divergence to it), agglomerate the anchors
into a binary skeleton by cheapest merge cost, then recurse inside every
multi-point anchor until all leaves are singletons. Stealing during the
growing phase prunes with a threshold below which a member provably cannot be
closer to the new pivot, generalizing the Euclidean halfway rule. Members
within a rounding slack of the threshold stay candidates, so that a row
exactly on two pivots' bisector moves as it would without pruning. One
batched function evaluates that threshold at every vocabulary width, on dense
pivot rows restricted to the union of the pivots' stored columns: a column
where every pivot sits at the smoothing offset adds nothing to the bound.
One grower serves every scope, with each row's anchor and its divergence to
that anchor's pivot in two arrays. A scope of at most SMALL_SCOPE rows
computes its pairwise divergences once, in one block that the scopes below
it read; with every divergence known there, the grower makes no no-steal
cut, which is exact and would save nothing.

Every node has four additive statistics (sum of generator values, sum of
x'grad(x), coordinate sums, gradient sums) that later decouple per-block
divergence sums into O(1) evaluations. The vector statistics keep the
offset+sparse decomposition of the smoothed data. A tree holds them as flat
arrays in one TreeStats: s1, s2, the baselines of s3 and s4 per node, and
one CSR support shared by the sparse parts of s3 and s4. The tree also owns
the row-by-node ancestor indicator that every up (subtree sum) and down
(root path) pass over the tree goes through.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .divergence import (
    DomainError,
    _as_vector,
    _check_domain,
    _grad_inv_terms,
    _grad_terms,
    _phi_terms,
    _scalar_base,
    ov_phi,
)
from .vectors import OffsetVec

__all__ = [
    "Anchor",
    "NodeStats",
    "TreeStats",
    "ClusterTree",
    "steal_threshold",
    "grow_anchors",
    "merge_cost",
    "agglomerate_anchors",
    "AggloTree",
    "build_cluster_tree",
]


# ---------------------------------------------------------------------------
# Per-dataset workspace: domain validation + cached per-row scalars
# ---------------------------------------------------------------------------


class _Workspace:
    def __init__(self, data, spec):
        if spec.dim != data.dim:
            raise ValueError("spec.dim does not match data dimension")
        self.data = data
        self.spec = spec
        self.eps = data.epsilon
        self.dim = data.dim
        self.csr = data.csr()
        self.nnz_row = data.nnz_per_row()
        self.row_sum = data.row_sums()
        self._validate_domain()
        vals = self.csr.data
        smoothed = vals + self.eps
        idx = self.csr.indices
        self.starts = self.csr.indptr[:-1].astype(np.int64)
        # one generator sum (ov_phi's arithmetic) and one x'grad(x) per row
        # serve both the point side (s1, s2) and the pivot side of every
        # divergence
        lens = self.nnz_row
        short = lens < self.dim
        self.phi_row = _segment_sums(_phi_terms(spec, smoothed, idx), self.starts, lens)
        self.phi_row[short] += (self.dim - lens[short]) * self._implicit(
            _phi_terms, "generator"
        )
        self._row_kernels(smoothed, idx)

    def _implicit(self, fn, what):
        """fn at an implicit coordinate (value eps); 0 when every row is full."""
        if np.all(self.nnz_row == self.dim):
            return 0.0
        return _scalar_base(self.spec, fn, self.eps, what)

    def _validate_domain(self):
        kind = self.spec.kind
        smoothed = self.csr.data + self.eps
        if kind in ("gid", "kl", "itakura-saito") and self.eps == 0.0:
            short = self.nnz_row < self.dim
            if np.any(short):
                i = int(np.argmax(short))
                row_idx, _ = self.data.base.row(i)
                j = int(np.setdiff1d(np.arange(self.dim), row_idx)[0])
                raise DomainError(
                    f"{kind} requires positive inputs after smoothing; "
                    f"row {i} column {j} is zero with epsilon=0",
                    (i, j),
                )
        if kind == "logistic":
            if self.eps <= 0.0 and np.any(self.nnz_row < self.dim):
                i = int(np.argmax(self.nnz_row < self.dim))
                raise DomainError(
                    f"logistic requires entries in (0,1); row {i} has an implicit "
                    f"coordinate at {self.eps}",
                    i,
                )
            bad = (smoothed <= 0.0) | (smoothed >= 1.0)
            if np.any(bad):
                k = int(np.argmax(bad))
                raise DomainError(
                    f"logistic requires entries in (0,1); found {smoothed[k]}"
                )
        if kind == "kl":
            totals = self.row_sum + self.eps * self.dim
            off = np.abs(totals - 1.0)
            if np.any(off > 1e-6):
                i = int(np.argmax(off))
                raise DomainError(
                    f"kl requires simplex rows; row {i} sums to {totals[i]:.6g}", i
                )

    def _row_kernels(self, t, idx):
        """Every pivot is a data row: tabulate, per row j, the pieces of
        d(., x_j) that depend on the pivot alone: the gradient, with the
        arithmetic of ov_grad on `row_ov(j)`, and x_j'grad(x_j) as
        div_to_pivot evaluates it at i == j."""
        spec, lens = self.spec, self.nnz_row
        short = lens < self.dim
        self.g_base_row = np.where(short, self._implicit(_grad_terms, "gradient"), 0.0)
        self.g_val = _grad_terms(spec, t, idx) - np.repeat(self.g_base_row, lens)
        self.g_val_sum = _segment_sums(self.g_val, self.starts, lens)
        every = np.arange(lens.size)
        prods = self.csr.data * self.g_val
        own = np.bincount(np.repeat(every, lens), weights=prods, minlength=every.size)
        self.s2_row = self._xgrad(every, every, own)

    def row_ov(self, i):
        return self.data.row(int(i))

    def _gather(self, rows):
        """Flat positions of the sparse parts of `rows` in the CSR arrays,
        plus per-row lengths."""
        lens = self.nnz_row[rows]
        return _ranges(self.starts[rows], lens), lens

    def mean_of_rows(self, rows):
        flat, _ = self._gather(rows)
        acc = np.bincount(
            self.csr.indices[flat], weights=self.csr.data[flat], minlength=self.dim
        )
        nz = np.nonzero(acc)[0]
        return OffsetVec(self.dim, self.eps, nz.astype(np.int64), acc[nz] / rows.size)

    def mean_rows(self, groups):
        """Dense member means of row groups, one row per group; row g equals
        mean_of_rows(groups[g]).to_dense() bit for bit: one bincount adds
        each group's column values in member order, and a zero sum gives
        eps + 0."""
        sizes = np.array([g.size for g in groups])
        flat, lens = self._gather(np.concatenate(groups))
        owner = np.repeat(np.repeat(np.arange(sizes.size), sizes), lens)
        acc = np.bincount(
            owner * self.dim + self.csr.indices[flat],
            weights=self.csr.data[flat],
            minlength=sizes.size * self.dim,
        ).reshape(sizes.size, self.dim)
        return self.eps + acc / np.maximum(sizes, 1)[:, None]

    def _columns(self, flat):
        """The sorted distinct columns of the entries `flat`, and the
        position of each entry's column among them."""
        idx = self.csr.indices[flat]
        seen = np.zeros(self.dim, dtype=bool)
        seen[idx] = True
        cols = np.flatnonzero(seen)
        return cols, np.searchsorted(cols, idx)

    def pivot_rows(self, rows):
        """The sorted union `cols` of the stored columns of `rows`, and the
        rows as dense rows over it: eps + value, as OffsetVec.to_dense."""
        flat, lens = self._gather(rows)
        cols, at = self._columns(flat)
        out = np.full((rows.size, cols.size), self.eps)
        out[np.repeat(np.arange(rows.size), lens), at] += self.csr.data[flat]
        return cols, out

    def row_kernel(self, j):
        """Pivot row j and its gradient values on a dense row of width dim."""
        lo, hi = self.starts[j], self.starts[j] + self.nnz_row[j]
        gdense = np.zeros(self.dim)
        gdense[self.csr.indices[lo:hi]] = self.g_val[lo:hi]
        return j, gdense

    def _xgrad(self, rows, pivots, dots):
        """x_i'grad(x_j) for rows i and pivot rows j, given the dot products
        of row i's stored values with pivot j's gradient values."""
        g_base = self.g_base_row[pivots]
        return (
            self.eps * g_base * self.dim
            + self.eps * self.g_val_sum[pivots]
            + g_base * self.row_sum[rows]
            + dots
        )

    def _finish(self, rows, pivots, dots):
        # shared tail of div_to_pivot and div_block; the operation order is
        # part of the contract (trees are compared bit for bit). As
        # (phi(x_i) - phi(x_j)) - (x_i'grad(x_j) - x_j'grad(x_j)) both
        # differences vanish exactly at i == j, so d(x_j, x_j) is 0.
        xg = self._xgrad(rows, pivots, dots)
        return (self.phi_row[rows] - self.phi_row[pivots]) - (xg - self.s2_row[pivots])

    def div_to_pivot(self, rows, kernel):
        j, gdense = kernel
        flat, lens = self._gather(rows)
        seg = np.repeat(np.arange(rows.size), lens)
        prod = self.csr.data[flat] * gdense[self.csr.indices[flat]]
        dots = np.bincount(seg, weights=prod, minlength=rows.size)
        return self._finish(rows, j, dots)

    def div_block(self, rows):
        """d(x_i, x_j) for all i, j in `rows`, row j as the pivot; entry
        [i, j] equals div_to_pivot(rows, row_kernel(rows[j]))[i]: each dot
        product still sums row i's terms in storage order from zero. The
        pivot gradients sit on the block's own columns."""
        s = rows.size
        flat, lens = self._gather(rows)
        seg = np.repeat(np.arange(s), lens)
        _, cols = self._columns(flat)
        g = np.zeros((s, cols.max() + 1 if cols.size else 0))
        g[seg, cols] = self.g_val[flat]
        prod = self.csr.data[flat] * g[:, cols]  # [j, k]: pivot j, entry k
        bins = seg + s * np.arange(s)[:, None]
        dots = np.bincount(bins.ravel(), weights=prod.ravel(), minlength=s * s)
        return self._finish(rows[:, None], rows, dots.reshape(s, s).T)


def _ranges(starts, lens):
    """Concatenation of the index ranges starts[k] .. starts[k] + lens[k]."""
    ends = np.cumsum(lens)
    total = ends[-1] if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + lens, lens)


def _segment_sums(vals, starts, lens):
    """Per-row sums equal to vals[start:start + len].sum() bit for bit.
    Rows of one length are summed together along the last axis, which numpy
    reduces pairwise row by row exactly as it does a 1-D array."""
    out = np.zeros(lens.size)
    for length in np.unique(lens):
        if length == 0:
            continue
        sel = np.nonzero(lens == length)[0]
        out[sel] = vals[starts[sel][:, None] + np.arange(length)].sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Anchors and the growing phase
# ---------------------------------------------------------------------------


@dataclass
class Anchor:
    """Pivot point with members sorted by nonincreasing divergence to it."""

    pivot: OffsetVec
    pivot_row: int
    members: np.ndarray
    dists: np.ndarray

    @property
    def radius(self):
        return float(self.dists[0]) if self.dists.size else 0.0

    @property
    def size(self):
        return int(self.members.size)


def steal_threshold(spec, p_curr, p_new):
    """No-steal bound between two pivots.

    Returns (threshold, minimizer): any point with divergence to p_curr at or
    below the threshold is provably at least as close to p_curr as to p_new.
    """
    p_curr, p_new = (_as_vector(spec, p) for p in (p_curr, p_new))
    for p in (p_curr, p_new):
        _check_domain(spec, p, strict=True)
    thr, y = _thresholds(spec, p_curr[None, :], p_new)
    return float(thr[0]), y[0]


def _thresholds(spec, pivots, new_pivot, cols=None):
    """No-steal thresholds of every row of `pivots` against `new_pivot`,
    with their minimizers.

    Row k's bound is (d(y, p_k) + d(y, p_new)) / 2 at y = grad^-1((grad p_k
    + grad p_new) / 2). The pivots are dense rows over the columns `cols`
    (every column when None); a column left out must hold the same value in
    every pivot, where y equals it and both divergences vanish.
    """
    g = _grad_terms(spec, pivots, cols)
    g_new = _grad_terms(spec, new_pivot, cols)
    y = _grad_inv_terms(spec, 0.5 * (g + g_new), cols)
    phi_y = _phi_terms(spec, y, cols)
    da = phi_y - _phi_terms(spec, pivots, cols) - (y - pivots) * g
    db = phi_y - _phi_terms(spec, new_pivot, cols) - (y - new_pivot) * g_new
    return 0.5 * (da + db).sum(axis=1), y


def _no_steal_limits(ws, rows, pivots, cols):
    """Divergence to each current pivot (all rows of `pivots` but the last)
    below which a member cannot move to the new one (the last row): the
    no-steal threshold less a rounding slack. `rows` are the pivots' data
    rows. A member on two pivots' bisector sits at the threshold in exact
    arithmetic and rounding alone decides whether it moves, so it is
    evaluated as an unpruned build evaluates it."""
    thr, _ = _thresholds(ws.spec, pivots[:-1], pivots[-1], cols)
    mag = np.abs(ws.phi_row[rows]) + np.abs(ws.s2_row[rows])
    return thr - TIE_SLACK * (mag[:-1] + mag[-1])


# Agglomeration merges dense pivot rows up to this width and OffsetVec
# pivots above it. Best-of-3 tree builds with dense merges on each scope's
# stored columns at every width: N=1000 d=10000 1.31 -> 2.03 s, d=20000
# 2.08 -> 4.09 s, N=3000 d=20000 19.1 -> 49.2 s; OffsetVec merges at d=50,
# N=4000: 0.60-0.65 -> 1.17-1.24 s.
DENSE_DIM_CAP = 4096
SMALL_SCOPE = 16  # scopes up to this size grow from one _Block
TIE_SLACK = 1e-12  # relative to the pivots' generator and x'grad(x) sums
STAT_CHUNK = 1 << 16  # sparse statistic entries per chunk of block pairs


def _grow(ws, scope, m, use_pruning, block=None):
    """Grow m anchors over `scope`: the pivot rows, each anchor's members
    sorted by nonincreasing divergence to its pivot (ties to the lowest
    row) and those divergences.

    The first pivot is the lowest row. The next pivot is the farthest row
    (the lowest on a tie) of an anchor with two or more members, so no
    anchor gives away its only member. A row moves to the new pivot when it
    is strictly closer to it; the new pivot always moves. Pruning evaluates
    only the rows at or above their anchor's no-steal limit. A `_Block`
    holding the scope supplies every divergence, so there is nothing to
    prune."""
    n = scope.size
    if m < 1 or m > n:
        raise ValueError(f"anchor count m={m} must be in 1..{n}")
    rows = np.sort(scope)
    if block is None:
        def div(sel, p):
            return ws.div_to_pivot(rows[sel], ws.row_kernel(rows[p]))
    else:
        at = np.searchsorted(block.rows, rows)

        def div(sel, p):
            return block.d[at[sel], at[p]]

        use_pruning = False
    everyone = np.arange(n)
    pivots = [0]  # positions in rows
    owner = np.zeros(n, dtype=np.int64)  # the anchor of each row
    d = div(everyone, 0)  # each row's divergence to its anchor's pivot
    while len(pivots) < m:
        donors = np.flatnonzero(np.bincount(owner)[owner] >= 2)
        new = donors[np.argmax(d[donors])]
        cand = everyone
        if use_pruning:
            piv = rows[pivots + [new]]
            cols, dense = ws.pivot_rows(piv)
            limits = _no_steal_limits(ws, piv, dense, cols)
            keep = ~(d < limits[owner])  # a NaN limit prunes nothing
            keep[new] = True
            cand = np.flatnonzero(keep)
        dn = div(cand, new)
        move = dn < d[cand]
        move[cand == new] = True
        owner[cand[move]] = len(pivots)
        d[cand[move]] = dn[move]
        pivots.append(new)
    # mean_rows sums each anchor's members in this order
    order = np.lexsort((rows, -d, owner))
    bounds = np.cumsum(np.bincount(owner, minlength=m))[:-1]
    return (
        rows[pivots],
        np.split(rows[order], bounds),
        np.split(d[order], bounds),
    )


class _Block:
    """Every divergence between two rows of a small scope, evaluated at once
    (equal to div_to_pivot's bit for bit) and looked up by _grow in the
    scopes below it: d[i, j] is d(rows[i], rows[j])."""

    def __init__(self, ws, scope):
        self.rows = np.sort(scope)
        self.d = ws.div_block(self.rows)


def grow_anchors(data, spec, m, scope=None, use_pruning=True):
    """Grow m anchors over the (smoothed) data; every point lands with the
    pivot minimizing its divergence among all m pivots."""
    ws = _Workspace(data, spec)
    if scope is None:
        scope = np.arange(data.n_rows, dtype=np.int64)
    pivots, members, dists = _grow(ws, scope, m, use_pruning)
    return [
        Anchor(ws.row_ov(p), int(p), mem, dis)
        for p, mem, dis in zip(pivots, members, dists)
    ]


# ---------------------------------------------------------------------------
# Agglomeration
# ---------------------------------------------------------------------------


def _merge_costs(spec, sizes, phis, rows, i, j):
    """Costs of merging items i[k] and j[k], given per-item sizes, generator
    sums and dense pivot rows. Each equals na*d(pa, c) + nb*d(pb, c) with c
    the weighted mean: the gradient terms cancel at the mean, leaving a
    difference of generator sums."""
    si, sj = sizes[i], sizes[j]
    nt = si + sj
    c = (si[:, None] * rows[i] + sj[:, None] * rows[j]) / nt[:, None]
    return si * phis[i] + sj * phis[j] - nt * _phi_terms(spec, c).sum(axis=1)


def merge_cost(spec, size_a, pivot_a, size_b, pivot_b):
    """Cost of replacing two clusters by their size-weighted union."""
    rows = np.stack([
        p.to_dense() if isinstance(p, OffsetVec) else np.asarray(p, dtype=np.float64)
        for p in (pivot_a, pivot_b)
    ])
    sizes = np.array([size_a, size_b], dtype=np.float64)
    phis = _phi_terms(spec, rows).sum(axis=1)
    return float(_merge_costs(spec, sizes, phis, rows, [0], [1])[0])


@dataclass
class AggloTree:
    """Binary merge tree; entries 0..k-1 are the input items in order."""

    sizes: list
    pivots: list
    left: list
    right: list
    root: int
    merges: list  # (i, j, cost) in merge order

    def inorder_leaves(self):
        out, stack = [], [self.root]
        while stack:
            t = stack.pop()
            if self.left[t] < 0:
                out.append(t)
            else:
                stack.append(self.right[t])
                stack.append(self.left[t])
        return out


def _agglomerate_items(spec, sizes, pivots):
    k = len(sizes)
    sizes = list(int(s) for s in sizes)
    pivots = list(pivots)
    left = [-1] * k
    right = [-1] * k
    merges = []
    if k == 1:
        return AggloTree(sizes, pivots, left, right, 0, merges)
    if pivots[0].dim <= DENSE_DIM_CAP:
        return _agglomerate_dense(spec, sizes, pivots)
    phis = [ov_phi(spec, p) for p in pivots]

    def pair_cost(i, j):
        nt = sizes[i] + sizes[j]
        c = OffsetVec.combine(pivots[i], sizes[i] / nt, pivots[j], sizes[j] / nt)
        return sizes[i] * phis[i] + sizes[j] * phis[j] - nt * ov_phi(spec, c), c

    alive = set(range(k))
    heap = []
    for i in range(k):
        for j in range(i + 1, k):
            cost, _ = pair_cost(i, j)
            heapq.heappush(heap, (cost, i, j))
    while len(alive) > 1:
        cost, i, j = heapq.heappop(heap)
        if i not in alive or j not in alive:
            continue
        _, c = pair_cost(i, j)
        t = len(sizes)
        sizes.append(sizes[i] + sizes[j])
        pivots.append(c)
        phis.append(ov_phi(spec, c))
        left.append(i)
        right.append(j)
        merges.append((i, j, float(cost)))
        alive.discard(i)
        alive.discard(j)
        for u in alive:
            c2, _ = pair_cost(t, u)
            heapq.heappush(heap, (c2, min(t, u), max(t, u)))
        alive.add(t)
    return AggloTree(sizes, pivots, left, right, len(sizes) - 1, merges)


def _agglomerate_dense(spec, sizes, pivots):
    """Same greedy merge, with costs evaluated on dense pivot rows."""
    tree = _greedy_merge(spec, sizes, np.stack([p.to_dense() for p in pivots]))
    tree.pivots = list(pivots) + [OffsetVec.from_dense(r) for r in tree.pivots]
    return tree


def _greedy_merge(spec, sizes, rows):
    """Greedy agglomeration of k items with dense pivot rows (k, d): merge
    the cheapest live pair, ties to the lowest (i, j). The returned tree's
    `pivots` holds the dense rows of the merged items only."""
    k = len(sizes)
    total = 2 * k - 1
    sizes = [int(s) for s in sizes]
    left, right, merges = [-1] * k, [-1] * k, []
    rows = np.concatenate([rows, np.empty((k - 1, rows.shape[1]))])
    if k == 1:
        return AggloTree(sizes, [], left, right, 0, merges)

    phis = np.empty(total)
    phis[:k] = _phi_terms(spec, rows[:k]).sum(axis=1)
    size_f = np.array(sizes + [0] * (k - 1), dtype=np.float64)

    # every initial pair at once, in chunks of about 2**20 coordinates
    pairs = np.array(list(itertools.combinations(range(k), 2)))
    step = max(1, (1 << 20) // rows.shape[1])
    heap = []
    for lo in range(0, len(pairs), step):
        i, j = pairs[lo : lo + step, 0], pairs[lo : lo + step, 1]
        costs = _merge_costs(spec, size_f, phis, rows, i, j)
        for entry in zip(costs.tolist(), i.tolist(), j.tolist()):
            heapq.heappush(heap, entry)
    alive = set(range(k))
    while len(alive) > 1:
        cost, i, j = heapq.heappop(heap)
        if i not in alive or j not in alive:
            continue
        t = len(sizes)
        nt = sizes[i] + sizes[j]
        rows[t] = (sizes[i] * rows[i] + sizes[j] * rows[j]) / nt
        sizes.append(nt)
        size_f[t] = nt
        phis[t] = _phi_terms(spec, rows[t][None, :]).sum()
        left.append(i)
        right.append(j)
        merges.append((i, j, float(cost)))
        alive.discard(i)
        alive.discard(j)
        others = sorted(alive)
        if others:
            ts = np.full(len(others), t)
            cc = _merge_costs(spec, size_f, phis, rows, ts, np.array(others))
            for u, c in zip(others, cc.tolist()):
                heapq.heappush(heap, (c, min(t, u), max(t, u)))
        alive.add(t)
    return AggloTree(sizes, list(rows[k:]), left, right, total - 1, merges)


def agglomerate_anchors(anchors, spec):
    """Iteratively merge the anchor pair with the smallest merge cost."""
    if not anchors:
        raise ValueError("agglomerate_anchors needs at least one anchor")
    return _agglomerate_items(
        spec, [a.size for a in anchors], [a.pivot for a in anchors]
    )


# ---------------------------------------------------------------------------
# Cluster tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeStats:
    """Additive subtree sums of one node: generator values, x'grad(x),
    coordinates, gradients. A read-only view into the tree's TreeStats."""

    s1: float
    s2: float
    s3: OffsetVec
    s4: OffsetVec


class TreeStats:
    """The statistics of every node of a tree, as flat read-only arrays.

    Node v has scalar sums s1[v] and s2[v] and baselines b3[v] and b4[v] for
    s3 and s4, whose sparse parts share the sorted support
    idx[ptr[v]:ptr[v + 1]] with values v3 and v4 there. Indexing gives a
    NodeStats view.
    """

    def __init__(self, dim, s1, s2, b3, b4, ptr, idx, v3, v4):
        self.dim = int(dim)
        self.s1, self.s2, self.b3, self.b4 = s1, s2, b3, b4
        self.ptr, self.idx, self.v3, self.v4 = ptr, idx, v3, v4
        for arr in (s1, s2, b3, b4, ptr, idx, v3, v4):
            arr.flags.writeable = False

    def __len__(self):
        return self.s1.size

    def __getitem__(self, nid):
        nid = range(len(self))[nid]
        lo, hi = self.ptr[nid], self.ptr[nid + 1]
        idx = self.idx[lo:hi]
        return NodeStats(
            float(self.s1[nid]),
            float(self.s2[nid]),
            OffsetVec(self.dim, self.b3[nid], idx, self.v3[lo:hi]),
            OffsetVec(self.dim, self.b4[nid], idx, self.v4[lo:hi]),
        )

    def dot34(self, a, b):
        """s3 of node a[k] dotted with s4 of node b[k], for every k, in
        OffsetVec.dot's four terms."""
        shape = (len(self), self.dim)
        s3 = sp.csr_matrix((self.v3, self.idx, self.ptr), shape=shape)
        s4 = sp.csr_matrix((self.v4, self.idx, self.ptr), shape=shape)
        # the shared coordinates, for a chunk of pairs at a time: about
        # STAT_CHUNK entries of the two sides bound the temporary memory
        nnz = np.diff(self.ptr)
        ends = np.cumsum(nnz[a] + nnz[b])
        cuts = np.searchsorted(ends, np.arange(STAT_CHUNK, ends.max(initial=0), STAT_CHUNK))
        bounds = np.unique(np.r_[0, cuts, a.size])
        shared = np.empty(a.size)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            shared[lo:hi] = s3[a[lo:hi]].multiply(s4[b[lo:hi]]).sum(axis=1).A1
        sum3, sum4 = s3.sum(axis=1).A1, s4.sum(axis=1).A1
        b3, b4 = self.b3[a], self.b4[b]
        return b3 * b4 * self.dim + b3 * sum4[b] + b4 * sum3[a] + shared


class ClusterTree:
    """Binary hierarchy over the rows; leaves are singletons.

    Nodes are indexed so children precede parents; each node's members form a
    contiguous range of `perm`. The pivot of a node is its member mean.
    `stats` is the tree's TreeStats. `data` is optional: a deserialized tree
    keeps its statistics but not the rows they were built from.
    """

    def __init__(self, data, spec, left, right, size, start, end, perm, stats):
        self.data = data
        self.spec = spec
        self.left = left
        self.right = right
        self.size = size
        self.start = start
        self.end = end
        self.perm = perm
        self.stats = stats
        self.n_points = int(perm.size)
        self.n_nodes = int(left.size)
        self.root = self.n_nodes - 1
        self.parent = np.full(self.n_nodes, -1, dtype=np.int64)
        inner = np.nonzero(left >= 0)[0]
        self.parent[left[inner]] = inner
        self.parent[right[inner]] = inner
        depth = np.zeros(self.n_nodes, dtype=np.int64)
        for nid in range(self.n_nodes - 2, -1, -1):
            depth[nid] = depth[self.parent[nid]] + 1
        self.depth = depth
        leaf_ids = np.nonzero(left < 0)[0]
        self.leaf_of_row = np.empty(self.n_points, dtype=np.int64)
        self.leaf_of_row[perm[start[leaf_ids]]] = leaf_ids
        # the ancestor indicator A (N x n_nodes, CSR): A[r, v] = 1 when node v
        # is row r's leaf or one of its ancestors, so A.T @ x gives subtree
        # sums of per-row values and A @ y sums node values over root paths;
        # column v holds the rows of subtree v, perm[start[v]:end[v]]
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(size, out=indptr[1:])
        self.ancestors = sp.csc_matrix(
            (np.ones(indptr[-1]), perm[_ranges(start, size)], indptr),
            shape=(self.n_points, self.n_nodes),
        ).tocsr()

    def is_leaf(self, nid):
        return self.left[nid] < 0

    def sibling(self, nid):
        p = self.parent[nid]
        if p < 0:
            raise ValueError("root has no sibling")
        return int(self.right[p] if self.left[p] == nid else self.left[p])

    def subtree_rows(self, nid):
        return self.perm[self.start[nid] : self.end[nid]]

    def pivot(self, nid):
        s3 = self.stats[nid].s3
        n = self.size[nid]
        return OffsetVec(s3.dim, s3.base / n, s3.idx, s3.val / n)

    def node_stats(self, nid):
        return self.stats[nid]

    def bregman_information(self, nid):
        """Mean divergence of a node's members to the node mean."""
        n = self.size[nid]
        return self.stats[nid].s1 / n - ov_phi(self.spec, self.pivot(nid))


def build_cluster_tree(data, spec, use_pruning=True):
    """Grow-and-agglomerate recursively down to singleton leaves."""
    ws = _Workspace(data, spec)
    n_rows = data.n_rows
    left, right, size, start, end = [], [], [], [], []
    perm = np.empty(n_rows, dtype=np.int64)

    def add_node(l, r, s, a, b):
        left.append(l)
        right.append(r)
        size.append(s)
        start.append(a)
        end.append(b)
        return len(left) - 1

    def build_scope(scope, offset, block=None):
        n = scope.size
        if n == 1:
            perm[offset] = scope[0]
            return add_node(-1, -1, 1, offset, offset + 1)
        m = min(math.isqrt(n - 1) + 1, n)  # ceil(sqrt(n)), capped at n
        if block is None and n <= SMALL_SCOPE:
            block = _Block(ws, scope)
        _, groups, _ = _grow(ws, scope, m, use_pruning, block)
        if m == 2:
            # two items have one merge: group 0 left, group 1 right
            lc = build_scope(groups[0], offset, block)
            rc = build_scope(groups[1], offset + groups[0].size, block)
            return add_node(lc, rc, size[lc] + size[rc], start[lc], end[rc])
        sizes = [g.size for g in groups]
        if ws.dim <= DENSE_DIM_CAP:
            local = _greedy_merge(spec, sizes, ws.mean_rows(groups))
        else:
            means = [ws.mean_of_rows(g) for g in groups]
            local = _agglomerate_items(spec, sizes, means)
        node_of = {}
        cur = offset
        for ai in local.inorder_leaves():
            node_of[ai] = build_scope(groups[ai], cur, block)
            cur += sizes[ai]
        for t in range(m, len(local.sizes)):
            lc, rc = node_of[local.left[t]], node_of[local.right[t]]
            if start[rc] < start[lc]:
                lc, rc = rc, lc
            node_of[t] = add_node(lc, rc, size[lc] + size[rc], start[lc], end[rc])
        return node_of[local.root]

    build_scope(np.arange(n_rows, dtype=np.int64), 0)

    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    size = np.asarray(size, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)

    tree = ClusterTree(data, spec, left, right, size, start, end, perm, None)
    tree.stats = _node_stats(ws, tree)
    return tree


def _node_stats(ws, tree):
    """TreeStats of every node, one depth level at a time from the deepest.

    Leaves take their row's values; a parent's sums are left + right, and
    its sparse parts take the union of the children's supports, adding the
    two values on shared coordinates, as OffsetVec.add does. Each level's
    sparse entries form one chunk, in which the next level up finds its
    children; the chunks are written into the node-ordered arrays at the end.
    """
    n, depth = tree.n_nodes, tree.depth
    s1, s2, b3, b4 = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    nnz = np.zeros(n, dtype=np.int64)
    at = np.zeros(n, dtype=np.int64)  # a node's first entry in its level's chunk
    chunks = []  # (nodes, idx, v3, v4) per level, deepest first
    for lv in range(int(depth.max()), -1, -1):
        nodes = np.nonzero(depth == lv)[0]
        is_leaf = tree.left[nodes] < 0
        leaves, inner = nodes[is_leaf], nodes[~is_leaf]
        rows = tree.perm[tree.start[leaves]]
        s1[leaves], s2[leaves] = ws.phi_row[rows], ws.s2_row[rows]
        b3[leaves], b4[leaves] = ws.eps, ws.g_base_row[rows]
        flat, nnz[leaves] = ws._gather(rows)
        parts = [(ws.csr.indices[flat], ws.csr.data[flat], ws.g_val[flat])]
        if inner.size:
            lc, rc = tree.left[inner], tree.right[inner]
            for arr in (s1, s2, b3, b4):
                arr[inner] = arr[lc] + arr[rc]
            kids = np.concatenate([lc, rc])
            _, c_idx, c3, c4 = chunks[-1]  # the children sit one level down
            owner = np.repeat(np.tile(np.arange(inner.size), 2), nnz[kids])
            pos = _ranges(at[kids], nnz[kids])
            # stable: for a shared coordinate the left child's entry comes first
            order = np.lexsort((c_idx[pos], owner))
            owner, pos = owner[order], pos[order]
            cat_idx = c_idx[pos]
            first = np.ones(owner.size, dtype=bool)
            first[1:] = (owner[1:] != owner[:-1]) | (cat_idx[1:] != cat_idx[:-1])
            heads = np.nonzero(first)[0]
            second = np.nonzero(~first)[0]  # the right child's entry of a pair
            m3, m4 = c3[pos[heads]], c4[pos[heads]]
            head_of = np.searchsorted(heads, second) - 1
            m3[head_of] += c3[pos[second]]
            m4[head_of] += c4[pos[second]]
            nnz[inner] = np.bincount(owner[heads], minlength=inner.size)
            parts.append((cat_idx[heads], m3, m4))
        nodes = np.concatenate([leaves, inner])
        at[nodes] = np.cumsum(nnz[nodes]) - nnz[nodes]
        chunks.append((nodes, *(np.concatenate(p) for p in zip(*parts))))
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nnz, out=ptr[1:])
    idx = np.empty(ptr[-1], dtype=np.int64)
    v3, v4 = np.empty(ptr[-1]), np.empty(ptr[-1])
    while chunks:
        nodes, c_idx, c3, c4 = chunks.pop()
        dst = _ranges(ptr[nodes], nnz[nodes])
        idx[dst], v3[dst], v4[dst] = c_idx, c3, c4
    return TreeStats(ws.dim, s1, s2, b3, b4, ptr, idx, v3, v4)
