"""Anchor trees under a Bregman divergence.

Construction runs in phases: grow ceil(sqrt(n)) anchors (each a pivot point
with members sorted by decreasing divergence to it), agglomerate the anchors
into a binary skeleton by cheapest merge cost, then recurse inside every
multi-point anchor until all leaves are singletons. The recursion runs one
level at a time: every scope of a level grows its anchors in the same steps
and merges them in the same steps, so a level costs a few array operations
per step whatever its number of scopes. One grower serves every scope, with
each row's anchor and its divergence to that anchor's pivot in two arrays;
a step evaluates the divergences of a level's rows to their scopes' new
pivots in one sparse product, whatever the sizes of their scopes.

One greedy merge serves the build and agglomerate_anchors at every
width: a batched merge over a cost array, which ranks costs ascending, a
NaN cost as +inf, ties to the lowest pair (i, j). The width decides only
the layout of its items: dense rows up to DENSE_DIM_CAP columns,
OffsetVecs above it, each with its own arithmetic for a weighted mean.

The grower does not prune with the paper's no-steal bound: a step
evaluates every growing row of a level in one sparse product anyway, and
evaluating the thresholds costs more than the arithmetic they would skip
(tree builds with pruning on / off took 0.36 / 0.26 s at N=8000, d=50,
2-core host). The bound and a pruned reference grower, whose trees must be
the package's, live in tests/oracles.py.

Every node has four additive statistics (sum of generator values, sum of
x'grad(x), coordinate sums, gradient sums) that later decouple per-block
divergence sums into O(1) evaluations. The vector statistics keep the
offset+sparse decomposition of the smoothed data. A tree holds them as flat
arrays in one TreeStats: s1, s2, the baselines of s3 and s4 per node, and
one CSR support shared by the sparse parts of s3 and s4. The tree also owns
the row-by-node ancestor indicator that every subtree or root-path sum goes
through (the statistics, the operator, the constraint residuals); only the
optimizer's logaddexp passes walk tree.levels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .divergence import (
    _grad_terms,
    _phi_terms,
    _scalar_base,
    check_smoothed,
    ov_phi,
)
from .vectors import OffsetVec

__all__ = [
    "Anchor",
    "NodeStats",
    "TreeStats",
    "ClusterTree",
    "grow_anchors",
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
        check_smoothed(spec, data)
        self.data = data
        self.spec = spec
        self.eps = data.epsilon
        self.dim = data.dim
        self.csr = data.csr()
        self.nnz_row = data.nnz_per_row()
        self.row_sum = data.row_sums()
        vals = self.csr.data
        smoothed = vals + self.eps
        self.starts = self.csr.indptr[:-1].astype(np.int64)
        # one generator sum (ov_phi's arithmetic) and one x'grad(x) per row
        # serve both the point side (s1, s2) and the pivot side of every
        # divergence
        lens = self.nnz_row
        short = lens < self.dim
        self.phi_row = _segment_sums(_phi_terms(spec, smoothed), self.starts, lens)
        self.phi_row[short] += (self.dim - lens[short]) * self._implicit(
            _phi_terms, "generator"
        )
        self._row_kernels(smoothed)

    def _implicit(self, fn, what):
        """fn at an implicit coordinate (value eps); 0 when every row is full."""
        if np.all(self.nnz_row == self.dim):
            return 0.0
        return _scalar_base(self.spec, fn, self.eps, what)

    def _row_kernels(self, t):
        """Every pivot is a data row: tabulate, per row j, the pieces of
        d(., x_j) that depend on the pivot alone: the gradient, with the
        arithmetic of ov_grad on data row j, and x_j'grad(x_j) as a
        divergence evaluates it at i == j."""
        spec, lens = self.spec, self.nnz_row
        short = lens < self.dim
        self.g_base_row = np.where(short, self._implicit(_grad_terms, "gradient"), 0.0)
        self.g_val = _grad_terms(spec, t) - np.repeat(self.g_base_row, lens)
        self.g_val_sum = _segment_sums(self.g_val, self.starts, lens)
        every = np.arange(lens.size)
        prods = self.csr.data * self.g_val
        own = np.bincount(np.repeat(every, lens), weights=prods, minlength=every.size)
        const, g_base = self._pivot_consts(every)
        self.s2_row = _xgrad(const, g_base, self.row_sum, own)

    def _gather(self, rows):
        """Flat positions of the sparse parts of `rows` in the CSR arrays,
        plus per-row lengths."""
        lens = self.nnz_row[rows]
        return _ranges(self.starts[rows], lens), lens

    def group_means(self, rows, group, n_groups):
        """Member means of row groups, one merge item per group in the
        layout of the width (_dense_items): `rows` lists every member,
        `group` its group. One bincount adds each group's column values in
        listed order; a dense row is eps + sum / size on every column, an
        OffsetVec has base eps and sum / size on the columns its members
        store."""
        flat, lens = self._gather(rows)
        key = np.repeat(group, lens) * self.dim + self.csr.indices[flat]
        sizes = np.maximum(np.bincount(group, minlength=n_groups), 1)
        vals = self.csr.data[flat]
        if _dense_items(self.dim):
            acc = np.bincount(key, weights=vals, minlength=n_groups * self.dim)
            return self.eps + acc.reshape(n_groups, self.dim) / sizes[:, None]
        keys, at = np.unique(key, return_inverse=True)
        g, col = np.divmod(keys, self.dim)
        val = np.bincount(at, weights=vals) / sizes[g]
        cut = np.searchsorted(g, np.arange(1, n_groups))
        parts = zip(np.split(col, cut), np.split(val, cut))
        return np.fromiter((OffsetVec(self.dim, self.eps, c, v) for c, v in parts), object)

    def keyed_rows(self, rows, group):
        """`rows` as a CSR matrix with one column per (group, column) pair:
        group * dim + column while there are at most KEY_TABLE such pairs,
        else the distinct pairs of their stored entries in sorted order.
        Returns the matrix and its entries' gradient values, aligned with
        its data. A product with it sums each row's terms in storage order
        from zero, as np.bincount does."""
        flat, lens = self._gather(rows)
        span = (int(group.max()) + 1) * self.dim if group.size else 0
        # within the table the keys are int32, scipy's own index type, which
        # it would otherwise check them against and convert them to
        kind = np.int64 if span > KEY_TABLE else np.int32
        key = np.repeat(group.astype(kind), lens) * self.dim + self.csr.indices[flat]
        if span > KEY_TABLE:
            keys, key = np.unique(key, return_inverse=True)
            span = keys.size
        shape = (rows.size, span)
        mat = sp.csr_matrix((self.csr.data[flat], key, _offsets(lens)), shape=shape)
        return mat, self.g_val[flat]

    def _pivot_consts(self, pivots):
        """Per pivot row j, the part of x'grad(x_j) that no x changes and
        the baseline of grad(x_j)."""
        g_base = self.g_base_row[pivots]
        const = self.eps * g_base * self.dim + self.eps * self.g_val_sum[pivots]
        return const, g_base

    def _pivot_terms(self, pivots):
        """Every term of d(., x_j) that depends on pivot row j alone:
        _pivot_consts, phi(x_j) and x_j'grad(x_j)."""
        return (*self._pivot_consts(pivots), self.phi_row[pivots], self.s2_row[pivots])


def _xgrad(const, g_base, row_sum, dots):
    """x_i'grad(x_j) from pivot j's _pivot_consts, row i's sum and dot."""
    return const + g_base * row_sum + dots


def _tail(phi, row_sum, dots, const, g_base, phi_p, s2_p):
    # the tail of every divergence; the operation order is part of the
    # contract (trees are compared bit for bit). As
    # (phi(x_i) - phi(x_j)) - (x_i'grad(x_j) - x_j'grad(x_j)) both
    # differences vanish exactly at i == j, so d(x_j, x_j) is 0.
    return (phi - phi_p) - (_xgrad(const, g_base, row_sum, dots) - s2_p)


def _ranges(starts, lens):
    """Concatenation of the index ranges starts[k] .. starts[k] + lens[k]."""
    ends = np.cumsum(lens)
    total = ends[-1] if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + lens, lens)


def _offsets(lens):
    """Where each of the runs of lengths `lens` starts when they are laid
    end to end, followed by their total."""
    out = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=out[1:])
    return out


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


# Merge items are dense rows up to this width and OffsetVecs above it
# (_dense_items). Best-of-3 tree builds with dense merges on each scope's
# stored columns at every width: N=1000 d=10000 1.31 -> 2.03 s, d=20000
# 2.08 -> 4.09 s, N=3000 d=20000 19.1 -> 49.2 s; OffsetVec items at d=50
# (the refine-apply-n4000 corpus, N=4000): 0.095 -> 0.31 s, 2-core host.
DENSE_DIM_CAP = 4096
STAT_CHUNK = 1 << 16  # sparse statistic entries per chunk of block pairs
KEY_TABLE = 1 << 21  # (group, column) keys are matrix columns up to this many
DENSE_CHUNK = 1 << 21  # dense values per chunk of merged scopes


def _first_max(d, donor, part, starts):
    """Per part (positions starts[i] up to starts[i + 1], `part` naming each
    position's part), the position of the first donor holding the largest d,
    NaN counting as the largest (np.argmax's rule). Every part holds a
    donor."""
    v = np.where(donor, d, -np.inf)
    best = np.maximum.reduceat(v, starts)  # NaN wins, as in np.argmax
    pick = np.flatnonzero(donor & ((v == best[part]) | np.isnan(v)))
    first = np.ones(pick.size, dtype=bool)
    first[1:] = part[pick[1:]] != part[pick[:-1]]
    return pick[first]


def _grow_scopes(ws, rows, ptr, m):
    """Grow m[s] anchors over every scope rows[ptr[s]:ptr[s + 1]] (sorted
    rows, at least two) at once; returns each entry's anchor and its
    divergence to that anchor's pivot, and the pivots as entry positions.

    The first pivot is the scope's lowest row. The next pivot is the
    farthest row (the lowest on a tie) of an anchor with two or more
    members, so no anchor gives away its only member. A row moves to the new
    pivot when it is strictly closer to it, except a pivot: a pivot never
    leaves its anchor, even where rounding makes its divergence to the new
    pivot negative, below its 0 to itself. The new pivot always moves.
    Every scope takes one step at a time, until it has its m anchors.

    The scopes are laid out by decreasing m, so the scopes still growing
    are always a prefix of them, and their entries a prefix of the entries.
    A step takes its divergences from one sparse product on a row prefix of
    the level's matrix, which shares its arrays, and counts each anchor's
    members from the rows that moved."""
    n_scopes = ptr.size - 1
    order = np.argsort(-m, kind="stable")
    lens, m = np.diff(ptr)[order], m[order]
    at = _offsets(lens)  # each scope's first entry, in the new layout
    src = _ranges(ptr[order], lens)  # each entry's position in the caller's
    rank = np.repeat(np.arange(n_scopes), lens)
    rows = rows[src]
    top = int(m[0])
    mat, g = ws.keyed_rows(rows, rank)
    # an entry's row of the matrix holds its (scope, column) keys, on which
    # its gradient lies when it is a pivot
    col, first, nnz = mat.indices, mat.indptr, np.diff(mat.indptr)
    grad = np.zeros(mat.shape[1])
    phi, row_sum = ws.phi_row[rows], ws.row_sum[rows]
    heads = {}  # the matrix rows of the first k scopes, by k

    def div(new, k):
        """Divergence of each entry of the first k scopes to the pivot entry
        new[s] of its scope."""
        e = at[k]
        if k not in heads:
            shape = (e, mat.shape[1])
            heads[k] = sp.csr_matrix((mat.data, col, first[: e + 1]), shape=shape)
        piv = _ranges(first[new], nnz[new])  # the pivots' own rows
        keys = col[piv]
        grad[keys] = g[piv]
        dots = heads[k] @ grad
        grad[keys] = 0.0
        terms = ws._pivot_terms(rows[new])
        if k > 1:  # one scope's terms broadcast as they are
            terms = [np.repeat(x, lens[:k]) for x in terms]
        return _tail(phi[:e], row_sum[:e], dots, *terms)

    pivots = np.full((n_scopes, top), -1, dtype=np.int64)
    pivots[:, 0] = at[:-1]
    slot = rank * top  # each entry's anchor, as scope * top + anchor
    count = np.zeros(n_scopes * top, dtype=np.int64)
    count[slot[at[:-1]]] = lens
    is_pivot = np.zeros(rows.size, dtype=bool)
    is_pivot[at[:-1]] = True
    d = div(at[:-1], n_scopes)
    for t in range(1, top):
        k = int(np.count_nonzero(m > t))
        e = at[k]
        dc, part = d[:e], rank[:e]
        new = _first_max(dc, count[slot[:e]] >= 2, part, at[:k])
        dn = div(new, k)
        move = (dn < dc) & ~is_pivot[:e]
        move[new] = True
        moved = np.flatnonzero(move)
        np.subtract.at(count, slot[moved], 1)
        count[np.arange(k) * top + t] = np.bincount(part[moved], minlength=k)
        slot[moved] = part[moved] * top + t
        d[moved] = dn[moved]
        is_pivot[new] = True
        pivots[:k, t] = new
    owner, dist = np.empty_like(slot), np.empty_like(d)
    owner[src], dist[src] = slot - rank * top, d
    pivots[order] = np.where(pivots >= 0, src[pivots], -1)
    return owner, dist, pivots


def _grow(ws, scope, m):
    """Grow m anchors over `scope`: the pivot rows, each anchor's members
    sorted by nonincreasing divergence to its pivot (ties to the lowest
    row) and those divergences."""
    n = scope.size
    if m < 1 or m > n:
        raise ValueError(f"anchor count m={m} must be in 1..{n}")
    rows = np.sort(scope)
    owner, d, pivots = _grow_scopes(ws, rows, np.array([0, n]), np.array([m]))
    order = np.lexsort((rows, -d, owner))
    bounds = np.cumsum(np.bincount(owner, minlength=m))[:-1]
    return (
        rows[pivots[0]],
        np.split(rows[order], bounds),
        np.split(d[order], bounds),
    )


def grow_anchors(data, spec, m):
    """Grow m anchors over the (smoothed) data; every point lands with the
    pivot minimizing its divergence among all m pivots."""
    ws = _Workspace(data, spec)
    pivots, members, dists = _grow(ws, np.arange(data.n_rows, dtype=np.int64), m)
    return [
        Anchor(ws.data.row(int(p)), int(p), mem, dis)
        for p, mem, dis in zip(pivots, members, dists)
    ]


# ---------------------------------------------------------------------------
# Agglomeration
# ---------------------------------------------------------------------------


def _dense_items(dim):
    """The layout of merge items at this width: dense rows up to
    DENSE_DIM_CAP columns, OffsetVecs in an object array above it."""
    return dim <= DENSE_DIM_CAP


def _means(items, size, i, j):
    """Weighted means of items i[k] and j[k] in the items' layout: dense
    rows as (si*a + sj*b)/nt, OffsetVecs by OffsetVec.combine with weights
    s/nt (nt = si + sj)."""
    si, sj = size[i], size[j]
    nt = si + sj
    if items.dtype != object:
        return (si[:, None] * items[i] + sj[:, None] * items[j]) / nt[:, None]
    pairs = zip(i.tolist(), j.tolist(), si.tolist(), sj.tolist(), nt.tolist())
    return np.fromiter(
        (OffsetVec.combine(items[a], x / t, items[b], y / t) for a, b, x, y, t in pairs), object
    )


def _phis(spec, items):
    """Generator sum of every item: the sum of a dense row's generator
    terms, ov_phi of an OffsetVec."""
    if items.dtype != object:
        return _phi_terms(spec, items).sum(axis=-1)
    return np.array([ov_phi(spec, v) for v in items.flat]).reshape(items.shape)


def _merge_costs(spec, items, size, phis, i, j):
    """Costs of merging items i[k] and j[k], given per-item sizes and
    generator sums. Each equals na*d(pa, c) + nb*d(pb, c) with c the
    weighted mean: the gradient terms cancel at the mean, leaving a
    difference of generator sums."""
    si, sj = size[i], size[j]
    return si * phis[i] + sj * phis[j] - (si + sj) * _phis(spec, _means(items, size, i, j))


@dataclass
class AggloTree:
    """Binary merge tree; entries 0..k-1 are the input items in order."""

    sizes: list
    pivots: list
    left: list
    right: list
    root: int
    merges: list  # (i, j, cost) in merge order


def _merge_sorted(spec, sizes, m, items):
    """Greedy merges of k scopes with m[0] >= m[1] >= ... items (sizes and
    items padded to c = m[0], in either layout of _means); item c + i is
    the i-th merge. Each step takes the cheapest live pair of every scope
    that is still merging: costs rank in ascending order, a NaN cost as
    +inf, and ties go to the lowest (i, j). The cost array holds +inf at
    dead pairs too, so a step whose pick reads +inf, where every live cost
    is +inf, takes the scope's two lowest live items instead."""
    k, c = sizes.shape
    span = 2 * c - 1
    flat = np.empty((k, span) + items.shape[2:], dtype=items.dtype)
    flat[:, :c] = items
    flat = flat.reshape((k * span,) + items.shape[2:])
    width = flat.shape[1] if flat.ndim == 2 else 1  # an OffsetVec is one object
    size_f = np.zeros((k, span))
    size_f[:, :c] = sizes
    size_f = size_f.ravel()
    phis = np.zeros((k, span))
    phis[:, :c] = _phis(spec, items)
    phis = phis.ravel()
    cost = np.full((k, span, span), np.inf)
    iu, ju = np.triu_indices(c, 1)
    s, p = np.nonzero(ju < m[:, None])
    i, j, step = s * span + iu[p], s * span + ju[p], max(1, DENSE_CHUNK // width)
    got = np.concatenate([  # a chunk of pairs at a time bounds the temporaries
        _merge_costs(spec, flat, size_f, phis, i[lo : lo + step], j[lo : lo + step])
        for lo in range(0, max(i.size, 1), step)
    ])
    got[np.isnan(got)] = np.inf
    cost[s, iu[p], ju[p]] = got
    alive = np.arange(span) < m[:, None]
    left = np.zeros((k, c - 1), dtype=np.int64)
    right = np.zeros_like(left)
    every = np.arange(k)
    first = every * span
    for step in range(c - 1):
        # the scopes still merging lead; of those, the ones with two items
        # left merge them, and only those with four or more left need the
        # new item's costs
        n, f, g = (int(np.count_nonzero(m - x > step)) for x in (1, 2, 3))
        pick = np.argmin(cost[:f].reshape(f, span * span), axis=1)
        i = np.concatenate([pick // span, np.nonzero(alive[f:n])[1][::2]])
        j = np.concatenate([pick % span, np.nonzero(alive[f:n])[1][1::2]])
        stuck = np.flatnonzero(cost[every[:f], i[:f], j[:f]] == np.inf)
        if stuck.size:
            i[stuck], j[stuck] = np.argsort(~alive[stuck], axis=1, kind="stable")[:, :2].T
        left[:n, step], right[:n, step] = i, j
        alive[every[:n], i] = alive[every[:n], j] = False
        t = c + step
        alive[:n, t] = True
        i, j = i[:g], j[:g]
        ti, ii, jj = first[:g] + t, first[:g] + i, first[:g] + j
        merged = _means(flat, size_f, ii, jj)
        flat[ti], size_f[ti] = merged, size_f[ii] + size_f[jj]
        phis[ti] = _phis(spec, merged)
        for x in (i, j):
            cost[every[:g], x, :] = np.inf
            cost[every[:g], :, x] = np.inf
        s, u = np.nonzero(alive[:g, :t])
        got = _merge_costs(spec, flat, size_f, phis, first[s] + t, first[s] + u)
        got[np.isnan(got)] = np.inf
        cost[s, u, t] = got
    return left, right


def agglomerate_anchors(anchors, spec):
    """Iteratively merge the anchor pair with the smallest merge cost, a NaN
    cost ranking as +inf, ties to the lowest pair: the anchors merge as one
    scope of the build's batched merge, on their pivots in the layout of
    their width (_dense_items)."""
    if not anchors:
        raise ValueError("agglomerate_anchors needs at least one anchor")
    k, dim = len(anchors), anchors[0].pivot.dim
    sizes, pivots = [a.size for a in anchors], [a.pivot for a in anchors]
    if _dense_items(dim):  # with room for the merged items
        items = np.concatenate([[p.to_dense() for p in pivots], np.empty((k - 1, dim))])
    else:
        items = np.fromiter(pivots + [None] * (k - 1), object)
    lm, rm = (x[0] for x in _merge_sorted(spec, np.array([sizes]), np.array([k]), items[None, :k]))
    size_f = np.array(sizes + [0] * (k - 1), dtype=np.float64)
    for t, i, j in zip(range(k, 2 * k - 1), lm, rm):  # the means the merge took
        items[t] = _means(items, size_f, np.array([i]), np.array([j]))[0]
        size_f[t] = size_f[i] + size_f[j]
    costs = _merge_costs(spec, items, size_f, _phis(spec, items), lm, rm)
    return AggloTree(
        size_f.astype(np.int64).tolist(),
        pivots + [v if items.dtype == object else OffsetVec.from_dense(v) for v in items[k:]],
        [-1] * k + lm.tolist(),
        [-1] * k + rm.tolist(),
        2 * k - 2,
        list(zip(lm.tolist(), rm.tolist(), costs.tolist())),
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
        """s3 of node a[k] dotted with s4 of node b[k], for every k, as four
        terms: base times base, each base times the other's value sum, and
        the shared coordinates' values."""
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

    The children (`left`, `right`; -1 at a leaf) and the row order `perm`
    are the tree, and `size` and `start` derive from them: node v's members
    are perm[start[v]:start[v] + size[v]], its left child's rows first.
    Children precede parents. `levels` holds the node ids of each depth in
    ascending order, root first, for the optimizer's logaddexp passes (down
    forward, up in reverse). `stats` is the tree's TreeStats. A deserialized
    tree has neither `data` nor `stats` (both None): it serves products but
    cannot be fit or bounded again.
    """

    def __init__(self, data, spec, left, right, perm, stats):
        self.data = data
        self.spec = spec
        self.left = left
        self.right = right
        self.perm = perm
        self.stats = stats
        self.n_points = int(perm.size)
        self.n_nodes = int(left.size)
        self.root = self.n_nodes - 1
        self.depth = np.empty(self.n_nodes, dtype=np.int64)
        self.levels, inner, level = [], [], np.array([self.root])
        while level.size:  # one depth at a time, from the root down
            self.depth[level] = len(self.levels)
            self.levels.append(level)
            inner.append(level[left[level] >= 0])
            level = np.sort(np.concatenate([left[inner[-1]], right[inner[-1]]]))
        self.parent = np.full(self.n_nodes, -1, dtype=np.int64)
        self.size = size = np.ones(self.n_nodes, dtype=np.int64)
        self.start = start = np.zeros(self.n_nodes, dtype=np.int64)
        for v in reversed(inner):  # parents and sizes up the levels
            self.parent[left[v]] = self.parent[right[v]] = v
            size[v] = size[left[v]] + size[right[v]]
        for v in inner:  # member ranges down: the left child's rows first
            start[left[v]], start[right[v]] = start[v], start[v] + size[left[v]]
        leaf_ids = np.nonzero(left < 0)[0]
        self.leaf_of_row = np.empty(self.n_points, dtype=np.int64)
        self.leaf_of_row[perm[start[leaf_ids]]] = leaf_ids
        # the ancestor indicator A (N x n_nodes, CSR): A[r, v] = 1 when node v
        # is row r's leaf or one of its ancestors, so A.T @ x gives subtree
        # sums of per-row values and A @ y sums node values over root paths;
        # column v holds the rows of subtree v, perm[start[v]:start[v] + size[v]]
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(size, out=indptr[1:])
        self.ancestors = sp.csc_matrix(
            (np.ones(indptr[-1]), perm[_ranges(start, size)], indptr),
            shape=(self.n_points, self.n_nodes),
        ).tocsr()


def build_cluster_tree(data, spec):
    """Grow-and-agglomerate recursively down to singleton leaves.

    The recursion runs one level at a time: every scope of a level grows its
    anchors together (_grow_scopes) and merges them together
    (_merge_scopes); the anchors with two or more members are the
    next level's scopes. Node ids and `perm` are those of the
    scope-by-scope recursion (_place_merges)."""
    ws = _Workspace(data, spec)
    n_rows = data.n_rows
    if n_rows < 1:
        raise ValueError("cannot build a tree over no rows")
    n_nodes = 2 * n_rows - 1
    left = np.full(n_nodes, -1, dtype=np.int64)
    right = np.full(n_nodes, -1, dtype=np.int64)
    perm = np.zeros(n_rows, dtype=np.int64)
    # the level's scopes: rows[ptr[s]:ptr[s + 1]] (sorted), the first perm
    # position and the first node id of each
    rows = np.arange(n_rows, dtype=np.int64)
    ptr = np.array([0, n_rows])
    offset = np.zeros(1, dtype=np.int64)
    base = np.zeros(1, dtype=np.int64)
    if n_rows == 1:
        ptr = ptr[:1]
    while ptr.size > 1:
        n = np.diff(ptr)
        seg = np.repeat(np.arange(n.size), n)
        m = _ceil_sqrt(n)
        owner, d, _ = _grow_scopes(ws, rows, ptr, m)
        top = int(m.max())
        group = seg * top + owner
        order = np.lexsort((-d, group))  # rows ascend within a scope already
        gsize = np.bincount(group, minlength=n.size * top).reshape(n.size, top)
        lm, rm = _merge_scopes(ws, rows[order], group[order], gsize, m)
        off, nid = _place_merges(lm, rm, gsize, m, offset, base)
        s, k = np.nonzero(np.arange(top - 1) < (m - 1)[:, None])
        l, r, v = lm[s, k], rm[s, k], nid[s, top + k]
        left[v], right[v] = nid[s, l], nid[s, r]
        # the anchors: a single member is a leaf, the rest the next level
        one = gsize[seg, owner] == 1
        perm[off[seg[one], owner[one]]] = rows[one]
        nxt = np.argsort(group, kind="stable")
        nxt = nxt[gsize[seg, owner][nxt] > 1]
        s, a = np.nonzero(gsize > 1)
        ptr = _offsets(gsize[s, a])
        offset, base = off[s, a], nid[s, a] - 2 * gsize[s, a] + 2
        rows = rows[nxt]
    tree = ClusterTree(data, spec, left, right, perm, None)
    tree.stats = _node_stats(ws, tree)
    return tree


def _place_merges(lm, rm, gsize, m, offset, base):
    """Where the merge trees put each scope's items: for every item (anchor
    a, or the k-th merge at M + k) its first perm position and its node id.
    A scope's subtree is numbered in post-order from `base`: its anchors'
    subtrees in the merge tree's in-order, then its merges, so a scope of n
    rows has its k-th merge at base + 2n - m + k, and an anchor with p
    anchors and r rows before it has its subtree at base + 2r - p and its
    root 2 * size - 2 ids on."""
    n_scopes, top = gsize.shape
    span = 2 * top - 1
    isz = np.zeros((n_scopes, span), dtype=np.int64)
    cnt = np.zeros((n_scopes, span), dtype=np.int64)
    isz[:, :top] = gsize
    cnt[:, :top] = np.arange(top) < m[:, None]
    steps = [(np.flatnonzero(m - 1 > k), top + k) for k in range(top - 1)]
    for k, (a, t) in enumerate(steps):  # up the merge trees
        for arr in (isz, cnt):
            arr[a, t] = arr[a, lm[a, k]] + arr[a, rm[a, k]]
    off = np.zeros((n_scopes, span), dtype=np.int64)
    before = np.zeros((n_scopes, span), dtype=np.int64)  # anchors before
    off[np.arange(n_scopes), top + m - 2] = offset
    for k in range(top - 2, -1, -1):  # and down again
        a, t = steps[k]
        l, r = lm[a, k], rm[a, k]
        off[a, l], before[a, l] = off[a, t], before[a, t]
        off[a, r] = off[a, t] + isz[a, l]
        before[a, r] = before[a, t] + cnt[a, l]
    nid = np.zeros((n_scopes, span), dtype=np.int64)
    sub = base[:, None] + 2 * (off[:, :top] - offset[:, None]) - before[:, :top]
    nid[:, :top] = sub + 2 * gsize - 2
    n = gsize.sum(axis=1)
    nid[:, top:] = (base + 2 * n - m)[:, None] + np.arange(top - 1)
    return off, nid


def _ceil_sqrt(n):
    """ceil(sqrt(n)) of positive integers, exactly: the float root corrected
    by integer comparisons."""
    m = np.ceil(np.sqrt(n)).astype(np.int64)
    m -= (m - 1) ** 2 >= n
    return m + (m**2 < n)


def _merge_scopes(ws, members, group, gsize, m):
    """Merge trees of every scope's anchors, as (left, right) items per
    scope in merge order (anchor a is item a; with M anchors at most, the
    k-th merge is item M + k). Two anchors merge as the first and the
    second; more merge greedily (_merge_sorted) on their member means,
    which sum each anchor's `members` in listed order. Scopes merge a chunk
    at a time, the most items first; a chunk ends where the item count
    halves, so that little of it is padding, or where its items and costs
    pass DENSE_CHUNK values."""
    n_scopes, top = gsize.shape
    lm = np.zeros((n_scopes, max(top - 1, 1)), dtype=np.int64)
    rm = np.ones_like(lm)
    order = np.argsort(-m, kind="stable")
    order = order[m[order] > 2]
    width = ws.dim if _dense_items(ws.dim) else 1  # an OffsetVec is one object
    lo = 0
    while lo < order.size:
        c = int(m[order[lo]])
        per = (2 * c - 1) * max(2 * c - 1, width)  # items and costs
        hi = min(order.size, lo + max(1, DENSE_CHUNK // per))
        hi = lo + int(np.count_nonzero(2 * m[order[lo:hi]] > c))
        s = order[lo:hi]
        first = np.full(n_scopes, -1)  # each scope's first mean
        first[s] = _offsets(m[s])[:-1]
        keep = first[group // top] >= 0
        g = first[group[keep] // top] + group[keep] % top
        means = ws.group_means(members[keep], g, int(m[s].sum()))
        pad = np.minimum(np.arange(c), m[s, None] - 1)  # a padded item repeats one
        got = _merge_sorted(ws.spec, gsize[s, :c], m[s], means[first[s, None] + pad])
        for out, x in zip((lm, rm), got):
            out[s, : c - 1] = np.where(x >= c, x + top - c, x)
        lo = hi
    return lm, rm


def _node_stats(ws, tree):
    """TreeStats of every node as subtree sums up @ x, `up` the node-by-row
    indicator tree.ancestors.T: each node adds its rows in ascending row
    order from 0. One product with complex rows, stored values as the real
    part and gradient values as the imaginary one, puts s3 and s4 on one
    support: scipy drops a complex entry only when both parts sum to exactly
    0 (signed sq-euclidean values can), and there the sparse parts of s3 and
    s4 are both 0, so each is complete on the support they share. Both parts
    are the plain sums while every gradient is finite; at +-inf the real
    part is NaN (complex 1*a - 0*inf)."""
    up, csr = tree.ancestors.T.tocsr(), ws.csr
    rows = sp.csr_matrix((csr.data + 1j * ws.g_val, csr.indices, csr.indptr), csr.shape)
    sums = up @ rows
    sums.sort_indices()
    ptr, idx = (x.astype(np.int64) for x in (sums.indptr, sums.indices))
    s1, s2, b4 = (up @ x for x in (ws.phi_row, ws.s2_row, ws.g_base_row))
    v3, v4 = sums.data.real.copy(), sums.data.imag.copy()
    return TreeStats(ws.dim, s1, s2, ws.eps * tree.size, b4, ptr, idx, v3, v4)
