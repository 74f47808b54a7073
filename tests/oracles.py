"""Independent test oracles.

These deliberately avoid the library's fast paths: block divergence sums come
from dense brute-force double sums over the dense pointwise layer (phi,
grad_phi, bregman_divergence, pairwise_divergences, phi_rows, carrier_rows
and their check _check_domain, which admits gid's and kl's zeros in a
datapoint where the package's one rule asks for the relative interior),
and the block parameters come from a plain projected-gradient ascent on the
concave objective over the explicit constraint matrix. They exist to
certify the decoupled statistics and the exact two-pass optimizer against
a second route. The OffsetVec divergence helpers (ov_grad, ov_xdotgrad,
ov_dot, ov_divergence) check the tree workspace's per-row kernels and the
dataset's smoothing, and the sq-euclidean block sum from coordinate sums
and squared norms checks the general one. The no-steal bound, merge_cost,
single-block refinement and the tree helpers below them are here because
no program path runs them. The
reference tree builder grows every scope with reference_grow, which keeps
per-anchor sorted member lists where the library keeps two arrays over the
scope, and which evaluates the divergences to one pivot at a time with
np.bincount (div_to_pivot) where the library takes those of a whole tree
level from one sparse product per step. It is also the only grower that
prunes: with use_pruning it skips the members below their anchor's
no-steal limit (steal_thresholds less a rounding slack), and its trees
must still be the library's, which evaluates every row. Its
anchors merge on reference_greedy_merge, a heap of (cost, i, j) keys that
the library's batched merge must follow pair for pair, NaN costs ranking
as +inf, at every width: it takes the library's item layouts (dense rows
up to DENSE_DIM_CAP, OffsetVecs above it) and their per-pair arithmetic,
and selects its pairs on its own. Each anchor's mean is mean_of_rows, one
bincount per anchor where the library adds the anchors of many scopes in
one. Its node statistics come from subtree_stats, which adds each node's
rows one at a time in ascending row order on Python floats and dense
columns, the order the library's one complex sparse product through the
ancestor indicator keeps, so the two agree bit for bit.
div_block gives the divergences between all rows of a scope, one
div_to_pivot column per pivot, and pivot_rows the pivots as dense rows
over their stored columns. The test-scale helpers (the dense expansion of
a compressed model, per-row block lists and the exhaustive partition
check) and the round-by-round refinement loop live here too, and so does
the fixed-count label-spreading loop that the early-exit loop must
reproduce bit for bit. The ingest references draw a synthetic corpus one
row at a time (one multinomial call per row, the rows joined by a running
indptr) and check a CSR triple one row at a time, the routes the batched
draw and the whole-array DataMatrix check must match.
The per-node tree passes of the optimizer (one node at a time on Python
floats) and the double loop over leaf pairs of the finest partition are the
references the level passes and the array partition must match bit for bit.
So are the dense baselines' references: pairwise divergences in one
expression, a transition matrix whose every row block recomputes the
centers' terms and takes its softmax on new arrays, and an exact
log-likelihood from the whole N x N matrix, which the in-place row-block
routes must reproduce byte for byte.
The scoring references (the stratified labeled subset, the one-hot seeds,
the accuracy and the per-class accuracy) look each id's class up one id at
a time in the label dict, where the CLI takes every class from one
LabelSet.classes array.
The older model writers store what ClusterTree now derives, the sizes and
member ranges (version 2), and version 1 also the node statistics beside
what serving reads (s3 and s4 sharing one support, written under both
names); load_model must still read their files.
"""
import heapq
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, gammaln, logsumexp, xlogy

from blockwalk import anchor_tree, variational
from blockwalk.anchor_tree import (
    AggloTree,
    Anchor,
    ClusterTree,
    NodeStats,
    TreeStats,
    _means,
    _merge_costs,
    _phis,
    _tail,
    _Workspace,
)
from blockwalk.dataset import DataMatrix, LabelSet
from blockwalk.divergence import (
    DomainError,
    _grad_terms,
    _normalizer,
    _outside,
    _phi_terms,
    _rule,
    _scalar_base,
    ov_phi,
    total_phi,
)
from blockwalk.partition import BlockPartition
from blockwalk.propagation import DenseBaseline, TransitionModel
from blockwalk.vectors import OffsetVec


# ---------------------------------------------------------------------------
# Dense pointwise references: vectors and stacks of rows
# ---------------------------------------------------------------------------


def _check_domain(spec, x, strict, name="x"):
    """Reject entries of a vector or a stack of rows outside the domain; the
    error's index is j for a vector and (i, j) for rows. `strict` asks for the
    relative interior, the package's one rule; without it gid and kl admit
    zero, where x log x extends by its limit."""
    loose = not strict and spec.kind in ("gid", "kl")
    bad = x < 0 if loose else _outside(spec.kind, x)
    if np.any(bad):
        at = tuple(int(k) for k in np.unravel_index(int(np.argmax(bad)), x.shape))
        rule = "nonnegative entries" if loose else _rule(spec.kind)
        raise DomainError(
            f"{spec.kind} requires {rule}; "
            f"{name}[{', '.join(map(str, at))}] = {x[at]}",
            at[0] if x.ndim == 1 else at,
        )


def _as_vector(spec, x, name="x"):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.dim,):
        raise ValueError(f"{name} must have shape ({spec.dim},), got {x.shape}")
    return x


def phi(spec, x):
    """Generator value. gid/kl admit zero coordinates via the x*log(x) limit."""
    x = _as_vector(spec, x)
    _check_domain(spec, x, strict=False)
    return float(np.sum(_phi_terms(spec, x)))


def grad_phi(spec, x):
    """Generator gradient; requires x in the relative interior of the domain."""
    x = _as_vector(spec, x)
    _check_domain(spec, x, strict=True)
    return _grad_terms(spec, x)


def bregman_divergence(spec, x, y):
    """d(x, y) = phi(x) - phi(y) - (x - y)' grad(y); x datapoint, y center."""
    x = _as_vector(spec, x)
    y = _as_vector(spec, y, name="y")
    _check_domain(spec, x, strict=False)
    _check_domain(spec, y, strict=True, name="y")
    g = _grad_terms(spec, y)
    return float(
        np.sum(_phi_terms(spec, x)) - np.sum(_phi_terms(spec, y)) - np.dot(x - y, g)
    )


def phi_rows(spec, X):
    X = np.asarray(X, dtype=np.float64)
    _check_domain(spec, X, strict=False, name="X")
    return _phi_terms(spec, X).sum(axis=1)


def carrier_rows(spec, X):
    """Log base measure of the matching exponential family at every row of
    X. Combined with phi this supplies the per-point additive constant of
    the kernel-density likelihood: counts get -sum log(x_j!), sq-euclidean
    folds the normalizer (constant in phi + carrier), the rest carry 1."""
    X = np.asarray(X, dtype=np.float64)
    if spec.kind in ("gid", "kl"):
        return -gammaln(X + 1.0).sum(axis=1)
    if spec.kind == "sq-euclidean":
        return _normalizer(spec) - _phi_terms(spec, X).sum(axis=1)
    return np.zeros(X.shape[0])


def pairwise_divergences(spec, X, Y):
    """Matrix of d(x_i, y_j) for dense row stacks X (n,d) and Y (m,d), as
    ((px - py) + yg) - X @ G.T; X is checked on the domain, Y on its
    relative interior."""
    X = np.asarray(X, dtype=np.float64)
    _check_domain(spec, X, strict=False, name="X")
    Y = np.asarray(Y, dtype=np.float64)
    _check_domain(spec, Y, strict=True, name="Y")
    py = _phi_terms(spec, Y).sum(axis=1)
    G = _grad_terms(spec, Y)
    yg = np.einsum("ij,ij->i", Y, G)
    out = np.subtract(_phi_terms(spec, X).sum(axis=1)[:, None], py)
    out += yg
    out -= X @ G.T
    return out


def _xgrad_terms(spec, t):
    """Per-coordinate t * grad(t); gid's t*log(t) extends to 0 by limit."""
    if spec.kind in ("gid", "kl"):
        return xlogy(t, t)
    if spec.kind == "itakura-saito":
        return np.full_like(t, -1.0)
    return t * _grad_terms(spec, t)


def ov_xdotgrad(spec, v):
    imp = v.dim - v.nnz
    t = v.base + v.val
    out = float(np.sum(_xgrad_terms(spec, t)))
    if imp > 0:  # every implicit coordinate holds the baseline
        out += imp * float(_xgrad_terms(spec, np.array([v.base]))[0])
    return out


def ov_grad(spec, v):
    imp = v.dim - v.nnz
    t = v.base + v.val
    base_g = _scalar_base(spec, _grad_terms, v.base, "gradient") if imp > 0 else 0.0
    return OffsetVec(v.dim, base_g, v.idx, _grad_terms(spec, t) - base_g)


def ov_divergence(spec, x, y):
    """d(x, y) for OffsetVec arguments."""
    g = ov_grad(spec, y)
    return ov_phi(spec, x) - ov_phi(spec, y) - ov_dot(x, g) + ov_xdotgrad(spec, y)


def ov_dot(a, b):
    """Inner product of two OffsetVecs of one dimension, exactly: the sum
    over j of (a.base + a_j)(b.base + b_j) expands into four terms, the
    cross terms needing only value sums and the sparse-sparse match."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch in ov_dot")
    out = a.base * b.base * a.dim
    out += a.base * float(b.val.sum())
    out += b.base * float(a.val.sum())
    idx_a, val_a, idx_b, val_b = a.idx, a.val, b.idx, b.val
    if len(idx_a) == 0 or len(idx_b) == 0:
        return out
    if len(idx_b) < len(idx_a):
        idx_a, val_a, idx_b, val_b = idx_b, val_b, idx_a, val_a
    pos = np.minimum(np.searchsorted(idx_b, idx_a), len(idx_b) - 1)
    hit = idx_b[pos] == idx_a
    return out + float(np.dot(val_a[hit], val_b[pos[hit]]))


def is_leaf(tree, nid):
    return tree.left[nid] < 0


def subtree_rows(tree, nid):
    start = tree.start[nid]
    return tree.perm[start : start + tree.size[nid]]


def node_pivot(tree, nid):
    """A node's member mean, from its coordinate sums."""
    s3 = tree.stats[nid].s3
    n = tree.size[nid]
    return OffsetVec(s3.dim, s3.base / n, s3.idx, s3.val / n)


def bregman_information(tree, nid):
    """Mean divergence of a node's members to the node mean."""
    n = tree.size[nid]
    return tree.stats[nid].s1 / n - ov_phi(tree.spec, node_pivot(tree, nid))


def grad_inv_terms(spec, u):
    """The generator's gradient inverse, coordinatewise."""
    kind = spec.kind
    if kind == "sq-euclidean":
        return spec.sigma**2 * u
    if kind in ("gid", "kl"):
        return np.exp(u)
    if kind == "itakura-saito":
        return -1.0 / u
    return expit(u)  # logistic


def grad_phi_inv(spec, u):
    """Unique x with grad_phi(x) = u; rejects u outside the gradient range,
    which is negative for itakura-saito."""
    u = _as_vector(spec, u, name="u")
    if spec.kind == "itakura-saito" and np.any(u >= 0):
        j = int(np.argmax(u >= 0))
        raise DomainError(f"itakura-saito gradient range is negative; u[{j}] = {u[j]}", j)
    return grad_inv_terms(spec, u)


def steal_threshold(spec, p_curr, p_new):
    """The paper's no-steal bound between two pivots.

    Returns (threshold, minimizer): any point with divergence to p_curr at or
    below the threshold is provably at least as close to p_curr as to p_new.
    """
    p_curr, p_new = (_as_vector(spec, p) for p in (p_curr, p_new))
    for p in (p_curr, p_new):
        _check_domain(spec, p, strict=True)
    thr, y = steal_thresholds(spec, p_curr[None, :], p_new)
    return float(thr[0]), y[0]


def steal_thresholds(spec, pivots, new_pivot):
    """No-steal thresholds of every row of `pivots` against `new_pivot`,
    with their minimizers.

    Row k's bound is (d(y, p_k) + d(y, p_new)) / 2 at y = grad^-1((grad p_k
    + grad p_new) / 2). The pivots are dense rows over every column or over
    some of them; a column left out must hold the same value in every
    pivot, where y equals it and both divergences vanish.
    """
    g = _grad_terms(spec, pivots)
    g_new = _grad_terms(spec, new_pivot)
    y = grad_inv_terms(spec, 0.5 * (g + g_new))
    phi_y = _phi_terms(spec, y)
    da = phi_y - _phi_terms(spec, pivots) - (y - pivots) * g
    db = phi_y - _phi_terms(spec, new_pivot) - (y - new_pivot) * g_new
    return 0.5 * (da + db).sum(axis=-1), y


def merge_cost(spec, size_a, pivot_a, size_b, pivot_b):
    """Cost of replacing two clusters by their size-weighted union, by the
    library's merge-cost arithmetic."""
    rows = np.array([pivot_a, pivot_b], dtype=np.float64)
    sizes = np.array([size_a, size_b], dtype=np.float64)
    pair = np.array([0]), np.array([1])
    return float(_merge_costs(spec, rows, sizes, _phis(spec, rows), *pair)[0])


@dataclass(frozen=True)
class Block:
    a: int  # row-side subtree
    b: int  # column-side subtree


def blocks(p):
    """The blocks of a partition, in order."""
    return [Block(int(x), int(y)) for x, y in zip(p.a, p.b)]


def refine_partition(p, block, tree, side=None):
    """Split one block along a non-leaf side, in place of the block; the
    block count grows by one. Without a side, the A side unless a leaf."""
    k = int(np.flatnonzero((p.a == block.a) & (p.b == block.b))[0])
    a, b = int(p.a[k]), int(p.b[k])
    if side is None:
        side = "a" if not is_leaf(tree, a) else "b"
    node = a if side == "a" else b
    if is_leaf(tree, node):
        raise ValueError(f"cannot refine: chosen {side.upper()} side is a leaf")
    kids = [int(tree.left[node]), int(tree.right[node])]
    repl = [(c, b) for c in kids] if side == "a" else [(a, c) for c in kids]
    new_a = np.concatenate([p.a[:k], [r[0] for r in repl], p.a[k + 1 :]])
    new_b = np.concatenate([p.b[:k], [r[1] for r in repl], p.b[k + 1 :]])
    return BlockPartition(new_a, new_b, label="refined")


def euclidean_block_divergence_sum(stats_a, stats_b, size_a, size_b, spec):
    """Legacy cross-check path for the squared-Euclidean kind only, using
    coordinate sums and squared norms: (|A| T(B) + |B| T(A) - 2 S(A)'S(B)) /
    (2 sigma^2), with T recovered from the x'grad(x) statistic."""
    if spec.kind != "sq-euclidean":
        raise ValueError("legacy form is defined for sq-euclidean only")
    s2 = spec.sigma**2
    ta = s2 * stats_a.s2  # sum of |x|^2 over A
    tb = s2 * stats_b.s2
    return (size_a * tb + size_b * ta - 2.0 * ov_dot(stats_a.s3, stats_b.s3)) / (2.0 * s2)


def brute_block_sums(tree, partition, spec, data):
    """D per block as the literal double sum over dense rows."""
    dense = data.to_dense()
    out = np.empty(partition.n_blocks)
    for k in range(partition.n_blocks):
        ra = subtree_rows(tree, int(partition.a[k]))
        rb = subtree_rows(tree, int(partition.b[k]))
        out[k] = pairwise_divergences(spec, dense[ra], dense[rb]).sum()
    return out


def projected_ascent_q(tree, partition, spec, data, max_iters=500, grad_tol=1e-12):
    """Maximize -D'q - sum n_B q log q subject to the per-row constraints by
    ascent steps projected onto the constraint subspace.

    Starts from the always-feasible uniform point q = 1/(N-1). The ascent
    direction is scaled by the objective's exact (diagonal) curvature, with
    the projection taken in the same metric, so the steps stay well-posed
    despite block parameters spanning many orders of magnitude. Returns
    (q, objective_value) with the objective excluding the additive constant.
    """
    n = data.n_rows
    nblocks = partition.n_blocks
    dvec = brute_block_sums(tree, partition, spec, data)
    na = tree.size[partition.a].astype(float)
    nb = tree.size[partition.b].astype(float)
    ncells = na * nb
    m = np.zeros((n, nblocks))
    for k in range(nblocks):
        m[subtree_rows(tree, int(partition.a[k])), k] = nb[k]

    def value(q):
        return float(-dvec @ q - np.sum(ncells * q * np.log(q)))

    q = np.full(nblocks, 1.0 / (n - 1))
    fq = value(q)
    for _ in range(max_iters):
        grad = -dvec - ncells * (1.0 + np.log(q))
        # curvature of -sum n q log q is n/q; project in the scaled metric
        p = q / ncells
        mpmt = (m * p) @ m.T
        mu = cho_solve(cho_factor(mpmt), m @ (p * grad))
        direction = p * (grad - m.T @ mu)
        slope = float(grad @ direction)
        if slope <= grad_tol * max(1.0, abs(fq)):
            break
        t = 1.0
        improved = False
        for _ in range(80):
            trial = q + t * direction
            if np.all(trial > 0):
                ft = value(trial)
                if ft >= fq + 1e-4 * t * slope:
                    q, fq = trial, ft
                    improved = True
                    break
            t *= 0.5
        if not improved:
            break
    return q, fq


def _logaddexp(x, y):
    """log(exp(x) + exp(y)) on Python floats; -inf when both are -inf."""
    hi = max(x, y)
    if hi == -math.inf:
        return hi
    return hi + math.log1p(math.exp(-abs(x - y)))


def reference_tree_passes(tree, big_l, down):
    """v and log r of every node (see the variational module docstring), one
    node at a time on Python floats: the up pass over the node ids (children
    precede parents), then, if `down`, the down pass over them in reverse.
    Without the down pass every log r is 0."""
    n_nodes = tree.n_nodes
    left, right = tree.left.tolist(), tree.right.tolist()
    size, big_l = tree.size.tolist(), big_l.tolist()
    v, w = [-math.inf] * n_nodes, [-math.inf] * n_nodes
    for k in range(n_nodes):  # up: children precede parents
        lc, rc = left[k], right[k]
        if lc < 0:
            v[k] = big_l[k]
            continue
        w[k] = (size[lc] * v[lc] + size[rc] * v[rc]) / size[k]
        v[k] = _logaddexp(big_l[k], w[k])
    log_r = [0.0] * n_nodes
    if down:
        for k in range(n_nodes - 1, -1, -1):  # down: parents precede children
            if left[k] >= 0:
                # a subtree left with no feasible split (v = -inf) gets nothing
                child = log_r[k] + w[k] - v[k] if v[k] > -math.inf else -math.inf
                log_r[left[k]] = log_r[right[k]] = child
    return np.array(v), np.array(log_r)


def reference_optimize_q(tree, partition, max_sweeps=10_000):
    """optimize_q with the per-node passes: (L, v, log r, q, log q, residual),
    L being the logsumexp of s over the blocks of each row side."""
    a, n_nodes = partition.a, tree.n_nodes
    nb = tree.size[partition.b].astype(np.float64)
    dbar = variational.block_divergence_sums(tree, partition) / (tree.size[a] * nb)
    s = np.log(nb) - dbar
    peak = np.full(n_nodes, -np.inf)
    np.maximum.at(peak, a, s)
    with np.errstate(divide="ignore"):
        big_l = peak + np.log(np.bincount(a, np.exp(s - peak[a]), n_nodes))
    v, log_r = reference_tree_passes(tree, big_l, max_sweeps >= 2)
    logq = log_r[a] - v[a] - dbar
    q = np.exp(logq)
    params = variational.BlockParams(values=q, log_values=logq)
    res = variational.constraint_residuals(tree, partition, params)
    return big_l, v, log_r, q, logq, float(np.max(np.abs(res)))


def reference_finest_partition(tree):
    """All ordered leaf pairs, leaves in the order of their rows in perm, by a
    double loop over the leaves."""
    leaves = [nid for nid in range(tree.n_nodes) if is_leaf(tree, nid)]
    leaves.sort(key=lambda nid: tree.start[nid])
    a, b = [], []
    for x in leaves:
        for y in leaves:
            if x != y:
                a.append(x)
                b.append(y)
    return BlockPartition(a, b, label="finest")


def _apply_operator(op, y):
    if isinstance(op, TransitionModel):
        return op.matmat(y)
    if isinstance(op, DenseBaseline):
        return op.p @ y
    return np.asarray(op) @ y


def reference_propagate(op, y0, config):
    """Label spreading for exactly config.iterations rounds, with no early
    exit: y <- alpha * M y + (1 - alpha) * y0."""
    y0 = np.asarray(y0, dtype=np.float64)
    alpha = config.alpha
    y = y0.copy()
    for _ in range(config.iterations):
        y = alpha * _apply_operator(op, y) + (1.0 - alpha) * y0
    return y


def reference_pairwise_divergences(spec, X, Y):
    """d(x_i, y_j) in one expression, px - py + yg - X G', each of Y's
    terms taken afresh on every call."""
    px = _phi_terms(spec, X).sum(axis=1)
    py = _phi_terms(spec, Y).sum(axis=1)
    G = _grad_terms(spec, Y)
    yg = np.einsum("ij,ij->i", Y, G)
    return px[:, None] - py[None, :] + yg[None, :] - X @ G.T


def reference_dense_transition(data, spec, block_rows, keep_w=False):
    """(p, w) of the exact transition matrix, each block of rows from its
    own pairwise divergences, its diagonal set one row at a time and its
    softmax taken on new arrays; w is None unless keep_w."""
    n = data.n_rows
    dense = data.to_dense()
    p = np.empty((n, n))
    w = np.empty((n, n)) if keep_w else None
    for lo in range(0, n, block_rows):
        hi = min(lo + block_rows, n)
        d_blk = reference_pairwise_divergences(spec, dense[lo:hi], dense)
        for r in range(lo, hi):
            d_blk[r - lo, r] = np.inf
        if keep_w:
            w[lo:hi] = np.exp(-d_blk)
        m = d_blk.min(axis=1, keepdims=True)
        e = np.exp(m - d_blk)
        p[lo:hi] = e / e.sum(axis=1, keepdims=True)
    return p, w


def reference_exact_loglik(data, spec):
    """Kernel-density log-likelihood from the whole N x N divergence matrix
    and one logsumexp over it, plus the package's additive constant (which
    the bound shares; the dense per-row constant is checked against it to a
    tolerance in tests/test_variational.py)."""
    dense = data.to_dense()
    D = reference_pairwise_divergences(spec, dense, dense)
    np.fill_diagonal(D, np.inf)
    lse = logsumexp(-D, axis=1)
    return float(np.sum(lse) + variational._constant(data, spec, total_phi(data, spec)))


def closed_form_propagation(p_matrix, y0, alpha):
    """(1 - alpha) (I - alpha M)^-1 y0; valid when alpha^T is negligible."""
    n = p_matrix.shape[0]
    return (1.0 - alpha) * np.linalg.solve(np.eye(n) - alpha * p_matrix, y0)


def subtree_stats(ws, rows):
    """NodeStats of a subtree with the given rows, adding one row at a time
    in ascending row order from 0 on Python floats and dense columns; the
    support is every column a row stores."""
    s1 = s2 = b3 = b4 = 0.0
    v3, v4 = np.zeros(ws.dim), np.zeros(ws.dim)
    seen = np.zeros(ws.dim, dtype=bool)
    for r in np.sort(rows):
        x = ws.data.row(int(r))
        g = ov_grad(ws.spec, x)
        s1 += float(ws.phi_row[r])
        s2 += float(ws.s2_row[r])
        b3 += x.base
        b4 += g.base
        v3[x.idx] += x.val
        v4[g.idx] += g.val
        seen[x.idx] = True
    idx = np.flatnonzero(seen)
    return NodeStats(
        s1, s2, OffsetVec(ws.dim, b3, idx, v3[idx]), OffsetVec(ws.dim, b4, idx, v4[idx])
    )


def tree_stats(dim, stats):
    """TreeStats holding a list of per-node NodeStats."""
    for st in stats:
        assert np.array_equal(st.s3.idx, st.s4.idx)
    ptr = np.zeros(len(stats) + 1, dtype=np.int64)
    np.cumsum([st.s3.nnz for st in stats], out=ptr[1:])
    return TreeStats(
        dim,
        np.array([st.s1 for st in stats]),
        np.array([st.s2 for st in stats]),
        np.array([st.s3.base for st in stats]),
        np.array([st.s4.base for st in stats]),
        ptr,
        np.concatenate([st.s3.idx for st in stats]),
        np.concatenate([st.s3.val for st in stats]),
        np.concatenate([st.s4.val for st in stats]),
    )


def row_kernel(ws, j):
    """Pivot row j and its gradient values on a dense row of width dim."""
    lo, hi = ws.starts[j], ws.starts[j] + ws.nnz_row[j]
    gdense = np.zeros(ws.dim)
    gdense[ws.csr.indices[lo:hi]] = ws.g_val[lo:hi]
    return j, gdense


def div_to_pivot(ws, rows, kernel):
    """d(x_i, x_j) for the rows i and the pivot row j of `kernel`, each dot
    product summed by np.bincount over row i's stored terms: the arithmetic
    the library's sparse products must reproduce bit for bit."""
    j, gdense = kernel
    flat, lens = ws._gather(rows)
    seg = np.repeat(np.arange(rows.size), lens)
    prod = ws.csr.data[flat] * gdense[ws.csr.indices[flat]]
    dots = np.bincount(seg, weights=prod, minlength=rows.size)
    return _tail(ws.phi_row[rows], ws.row_sum[rows], dots, *ws._pivot_terms(j))


def div_block(ws, rows):
    """d(x_i, x_j) for all i, j in `rows`, row j as the pivot: column j is
    div_to_pivot to row j."""
    return np.stack([div_to_pivot(ws, rows, row_kernel(ws, j)) for j in rows], axis=1)


def _columns(ws, flat):
    """The sorted distinct columns of the entries `flat`, and the
    position of each entry's column among them."""
    idx = ws.csr.indices[flat]
    seen = np.zeros(ws.dim, dtype=bool)
    seen[idx] = True
    cols = np.flatnonzero(seen)
    return cols, np.searchsorted(cols, idx)


def pivot_rows(ws, rows):
    """The sorted union `cols` of the stored columns of `rows`, and the
    rows as dense rows over it: eps + value, as OffsetVec.to_dense."""
    flat, lens = ws._gather(rows)
    cols, at = _columns(ws, flat)
    out = np.full((rows.size, cols.size), ws.eps)
    out[np.repeat(np.arange(rows.size), lens), at] += ws.csr.data[flat]
    return cols, out


TIE_SLACK = 1e-12  # relative to the pivots' generator and x'grad(x) sums


def _no_steal_limits(ws, cur_rows, cur, new_rows, new):
    """Divergence to each current pivot (row k of `cur`) below which a
    member cannot move to the new pivot of row k of `new`: the no-steal
    threshold less a rounding slack. `cur_rows` and `new_rows` are the
    pivots' data rows. A member on two pivots' bisector sits at the
    threshold in exact arithmetic and rounding alone decides whether it
    moves, so it is evaluated as an unpruned build evaluates it. The
    arrays may carry leading axes that broadcast against each other."""
    thr, _ = steal_thresholds(ws.spec, cur, new)
    mag = np.abs(ws.phi_row) + np.abs(ws.s2_row)
    return thr - TIE_SLACK * (mag[cur_rows] + mag[new_rows])


def _sorted_by_dist(rows, dists):
    order = np.lexsort((rows, -dists))
    return rows[order], dists[order]


def reference_grow(ws, scope, m, use_pruning):
    """Anchor growing on per-anchor member lists, a second route to _grow's
    anchors. Each list stays sorted by nonincreasing divergence (ties to
    the lowest row), pruning cuts it at its no-steal limit, and the pivots'
    dense rows are re-indexed as their column union grows. A pivot never
    leaves its anchor but as the next pivot."""
    n = scope.size
    if m < 1 or m > n:
        raise ValueError(f"anchor count m={m} must be in 1..{n}")
    first = int(scope.min())
    d0 = div_to_pivot(ws, scope, row_kernel(ws, first))
    members, dists = _sorted_by_dist(scope.copy(), d0)
    pivot = ws.data.row(first)
    anchors = [Anchor(pivot, first, members, dists)]
    # the pivots as dense rows over the sorted union of their stored columns
    cols = pivot.idx
    pivots = np.empty((m, cols.size))
    pivots[0] = pivot.base + pivot.val
    pivot_rows = np.empty(m, dtype=np.int64)
    pivot_rows[0] = first
    in_cols = np.zeros(ws.dim, dtype=bool)
    in_cols[cols] = True
    is_pivot = np.zeros(ws.data.n_rows, dtype=bool)
    is_pivot[first] = True
    while len(anchors) < m:
        # the farthest member over all anchors with two or more members
        # becomes the next pivot (a singleton donor would empty); ties
        # resolved to the lowest row index (member lists sort that way)
        donor_i = min(
            (k for k, a in enumerate(anchors) if a.members.size >= 2),
            key=lambda k: (-anchors[k].radius, anchors[k].members[0]),
        )
        new_row = int(anchors[donor_i].members[0])
        new_pivot = ws.data.row(new_row)
        if use_pruning:
            top = len(anchors)  # the new pivot's row
            if not in_cols[new_pivot.idx].all():  # re-index the pivot rows
                in_cols[new_pivot.idx] = True
                grown = np.flatnonzero(in_cols)
                wide = np.empty((m, grown.size))
                wide[:top] = ws.eps
                wide[:top, np.searchsorted(grown, cols)] = pivots[:top]
                pivots, cols = wide, grown
            pivots[top] = ws.eps
            pivots[top, np.searchsorted(cols, new_pivot.idx)] += new_pivot.val
            pivot_rows[top] = new_row
            limits = _no_steal_limits(
                ws, pivot_rows[:top], pivots[:top], pivot_rows[top], pivots[top]
            )
        cuts = []
        for k, a in enumerate(anchors):
            if use_pruning:
                cut = int(np.searchsorted(-a.dists, -limits[k], side="right"))
            else:
                cut = a.members.size
            cuts.append(max(cut, 1) if k == donor_i else cut)
        # one evaluation for the candidates of every anchor
        dn_all = div_to_pivot(
            ws,
            np.concatenate([a.members[:c] for a, c in zip(anchors, cuts)]),
            row_kernel(ws, new_row),
        )
        stolen_rows, stolen_d = [], []
        pos = 0
        for k, (a, cut) in enumerate(zip(anchors, cuts)):
            if cut == 0:
                continue
            dn = dn_all[pos : pos + cut]
            pos += cut
            take = (dn < a.dists[:cut]) & ~is_pivot[a.members[:cut]]
            if k == donor_i:
                take[0] = True  # the chosen pivot always moves
            if take.any():
                stolen_rows.append(a.members[:cut][take])
                stolen_d.append(dn[take])
                keep = np.ones(a.members.size, dtype=bool)
                keep[:cut] = ~take
                a.members = a.members[keep]
                a.dists = a.dists[keep]
        is_pivot[new_row] = True
        rows = np.concatenate(stolen_rows)
        dd = np.concatenate(stolen_d)
        rows, dd = _sorted_by_dist(rows, dd)
        anchors.append(Anchor(new_pivot, new_row, rows, dd))
    return anchors


def mean_of_rows(ws, rows):
    """The mean of `rows` as an OffsetVec at base eps: one bincount adds
    their column values in listed order."""
    flat = np.concatenate([np.arange(ws.starts[r], ws.starts[r] + ws.nnz_row[r]) for r in rows])
    acc = np.bincount(ws.csr.indices[flat], weights=ws.csr.data[flat], minlength=ws.dim)
    nz = np.nonzero(acc)[0]
    return OffsetVec(ws.dim, ws.eps, nz.astype(np.int64), acc[nz] / rows.size)


def reference_greedy_merge(spec, sizes, items):
    """Greedy agglomeration of k items on a heap: merge the cheapest live
    pair, a NaN cost ranking as +inf, ties to the lowest (i, j), the order
    of the library's batched merge. The items are in either of the
    library's layouts, dense pivot rows (k, d) or an object array of
    OffsetVecs, and take its per-pair arithmetic (_means, _merge_costs).
    The returned tree's `pivots` holds the merged items only, and its
    `merges` the ranked costs."""
    k = len(sizes)
    total = 2 * k - 1
    sizes = [int(s) for s in sizes]
    left, right, merges = [-1] * k, [-1] * k, []
    items = np.concatenate([items, np.empty((k - 1,) + items.shape[1:], items.dtype)])
    if k == 1:
        return AggloTree(sizes, [], left, right, 0, merges)

    phis = np.empty(total)
    phis[:k] = _phis(spec, items[:k])
    size_f = np.array(sizes + [0] * (k - 1), dtype=np.float64)

    def push(i, j):
        costs = _merge_costs(spec, items, size_f, phis, i, j)
        for c, a, b in zip(costs.tolist(), i.tolist(), j.tolist()):
            heapq.heappush(heap, (math.inf if c != c else c, min(a, b), max(a, b)))

    heap = []
    push(*np.triu_indices(k, 1))  # every initial pair at once
    alive = set(range(k))
    while len(alive) > 1:
        cost, i, j = heapq.heappop(heap)
        if i not in alive or j not in alive:
            continue
        t = len(sizes)
        items[t] = _means(items, size_f, np.array([i]), np.array([j]))[0]
        sizes.append(sizes[i] + sizes[j])
        size_f[t] = sizes[t]
        phis[t] = _phis(spec, items[t : t + 1])[0]
        left.append(i)
        right.append(j)
        merges.append((i, j, float(cost)))
        alive.discard(i)
        alive.discard(j)
        others = np.array(sorted(alive), dtype=np.int64)
        if others.size:
            push(np.full(others.size, t), others)
        alive.add(t)
    return AggloTree(sizes, list(items[k:]), left, right, total - 1, merges)


def inorder_leaves(agglo):
    """The input items of an AggloTree, left to right."""
    out, stack = [], [agglo.root]
    while stack:
        t = stack.pop()
        if agglo.left[t] < 0:
            out.append(t)
        else:
            stack.append(agglo.right[t])
            stack.append(agglo.left[t])
    return out


def reference_cluster_tree(data, spec, use_pruning=True):
    """Grow-and-agglomerate recursively down to singleton leaves, with
    reference_grow on every scope, reference_greedy_merge on its anchors
    (dense rows up to DENSE_DIM_CAP, OffsetVecs above it) and node
    statistics from subtree_stats. Its sizes and member ranges come from the
    recursion, and the ClusterTree's, derived from the children, must equal
    them. build_cluster_tree must match it exactly: structure arrays,
    statistics and raised errors."""
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

    def build_scope(scope, offset):
        n = scope.size
        if n == 1:
            perm[offset] = scope[0]
            return add_node(-1, -1, 1, offset, offset + 1)
        m = min(math.isqrt(n - 1) + 1, n)  # ceil(sqrt(n)), capped at n
        anchors = reference_grow(ws, scope, m, use_pruning)
        sizes = [a.size for a in anchors]
        means = [mean_of_rows(ws, a.members) for a in anchors]
        if spec.dim <= anchor_tree.DENSE_DIM_CAP:
            items = np.stack([mean.to_dense() for mean in means])
        else:
            items = np.fromiter(means, object)
        local = reference_greedy_merge(spec, sizes, items)
        node_of = {}
        cur = offset
        for ai in inorder_leaves(local):
            node_of[ai] = build_scope(anchors[ai].members, cur)
            cur += anchors[ai].size
        for t in range(len(anchors), len(local.sizes)):
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

    stats = [subtree_stats(ws, perm[a:b]) for a, b in zip(start, end)]
    tree = ClusterTree(data, spec, left, right, perm, tree_stats(data.dim, stats))
    for got, want in (tree.size, size), (tree.start, start), (tree.start + tree.size, end):
        assert np.array_equal(got, want), "ranges derived from the children differ"
    return tree


def dense_q_matrix(model, cap=4096):
    """Materialize the compressed transition matrix (test-scale oracle)."""
    n = model.n_points
    if n > cap:
        raise ValueError(f"dense expansion refused for N={n} > cap={cap}")
    tree, part = model.tree, model.partition
    q = np.zeros((n, n))
    for k in range(part.n_blocks):
        ra = subtree_rows(tree, int(part.a[k]))
        rb = subtree_rows(tree, int(part.b[k]))
        q[np.ix_(ra, rb)] = model.params.values[k]
    return q


def row_block_lists(p, tree):
    """Per-row lists of covering block indices (test-scale helper)."""
    out = [[] for _ in range(tree.n_points)]
    for k in range(p.n_blocks):
        for r in subtree_rows(tree, int(p.a[k])):
            out[r].append(k)
    return out


@dataclass
class PartitionCheck:
    ok: bool
    problem: str | None = None

    def __bool__(self):
        return self.ok


def validate_partition(p, tree, cap=4096):
    """Exhaustive O(N^2) coverage check; names the first violation."""
    n = tree.n_points
    if n > cap:
        raise ValueError(f"validation refused for N={n} > cap={cap}")
    end = tree.start + tree.size
    for k in range(p.n_blocks):
        a, b = int(p.a[k]), int(p.b[k])
        if not (0 <= a < tree.n_nodes and 0 <= b < tree.n_nodes):
            return PartitionCheck(False, f"block {k}: node id out of range")
        # contiguous ranges: subtrees overlap iff one range contains the other
        if not (end[a] <= tree.start[b] or end[b] <= tree.start[a]):
            return PartitionCheck(
                False, f"block {k}: sides ({a}, {b}) are overlapping subtrees"
            )
    cover = np.zeros((n, n), dtype=np.int32)
    for k in range(p.n_blocks):
        ra = subtree_rows(tree, int(p.a[k]))
        rb = subtree_rows(tree, int(p.b[k]))
        cover[np.ix_(ra, rb)] += 1
    off = ~np.eye(n, dtype=bool)
    if np.any(cover[off] != 1):
        flat = np.where(off & (cover != 1))
        i, j = int(flat[0][0]), int(flat[1][0])
        word = "uncovered" if cover[i, j] == 0 else f"covered {cover[i, j]} times"
        return PartitionCheck(False, f"ordered pair ({i}, {j}) {word}")
    if np.any(np.diag(cover) != 0):
        i = int(np.argmax(np.diag(cover) != 0))
        return PartitionCheck(False, f"diagonal pair ({i}, {i}) covered")
    return PartitionCheck(True)


def reference_auto_refine(p, tree, rounds):
    """auto_refine one round at a time: sort every block by (-|A||B|, a, b),
    split the first that is not a leaf pair with refine_partition."""
    for _ in range(rounds):
        prod = tree.size[p.a] * tree.size[p.b]
        order = np.lexsort((p.b, p.a, -prod))
        chosen = None
        for k in order:
            a, b = int(p.a[k]), int(p.b[k])
            if not (is_leaf(tree, a) and is_leaf(tree, b)):
                chosen = k
                break
        if chosen is None:
            break  # already the finest
        a, b = int(p.a[chosen]), int(p.b[chosen])
        if is_leaf(tree, a):
            side = "b"
        elif is_leaf(tree, b):
            side = "a"
        else:
            side = "a" if tree.size[a] >= tree.size[b] else "b"
        p = refine_partition(p, Block(a, b), tree, side=side)
    return p


def reference_synthetic(spec):
    """generate_synthetic's corpus drawn one row at a time: one multinomial
    call per row, each row's nonzero counts appended behind a running
    indptr."""
    rng = np.random.default_rng(spec.seed)
    comps = rng.integers(0, spec.k, size=spec.n_rows)
    lengths = rng.poisson(spec.lambdas[comps])
    indptr = np.zeros(spec.n_rows + 1, dtype=np.int64)
    idx_parts, val_parts = [], []
    for i in range(spec.n_rows):
        counts = rng.multinomial(lengths[i], spec.alphas[comps[i]])
        nz = np.nonzero(counts)[0]
        indptr[i + 1] = indptr[i] + nz.size
        idx_parts.append(nz.astype(np.int64))
        val_parts.append(counts[nz].astype(np.float64))
    ids = [str(i + 1) for i in range(spec.n_rows)]
    data = DataMatrix(
        spec.n_rows, spec.dim, indptr, np.concatenate(idx_parts),
        np.concatenate(val_parts), ids,
    )
    labels = LabelSet(
        {ids[i]: int(comps[i]) for i in range(spec.n_rows)},
        [str(k) for k in range(spec.k)],
    )
    return data, labels


def reference_validate(n_rows, n_cols, indptr, indices, values, ids):
    """DataMatrix's checks in their order, each row checked on its own;
    returns the message of the first that fails, or None."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    ids = list(ids)
    if n_rows < 1:
        return "empty dataset"
    if n_cols < 1:
        return "n_cols must be positive"
    if len(ids) != n_rows:
        return "ids length does not match n_rows"
    if len(set(ids)) != n_rows:
        return "row ids must be unique"
    if indptr.shape != (n_rows + 1,) or indptr[0] != 0:
        return "malformed indptr"
    for i in range(n_rows):
        if indptr[i + 1] < indptr[i]:
            return f"malformed indptr: row {i} ends before it starts"
    if indptr[-1] != indices.size or indices.size != values.size:
        return "indptr/indices/values sizes disagree"
    if indices.size:
        if indices.min() < 0 or indices.max() >= n_cols:
            return "column index out of bounds"
        for i in range(n_rows):
            for v in values[indptr[i] : indptr[i + 1]]:
                if not math.isfinite(v):
                    return f"row {i}: stored value {v} is not finite"
        if not np.all(values != 0):
            return "stored values must be nonzero (zeros are implicit)"
        for i in range(n_rows):
            row = indices[indptr[i] : indptr[i + 1]]
            if row.size > 1 and np.any(np.diff(row) <= 0):
                return f"row {i}: column indices not strictly increasing"
    return None


def reference_stratified_subset(ids, labels, fraction, rng):
    """The labeled subset by a per-id loop: each class's members gathered in
    a dict of lists, the classes taken in sorted order, one rng.choice each."""
    if not 0 < fraction < 1:
        raise ValueError("labeled fraction must be in (0, 1)")
    by_class = {}
    for rid in ids:
        by_class.setdefault(labels.assignments[rid], []).append(rid)
    chosen = []
    for cls in sorted(by_class):
        members = by_class[cls]
        k = min(len(members), max(1, round(fraction * len(members))))
        pick = rng.choice(len(members), size=k, replace=False)
        chosen.extend(members[p] for p in sorted(pick))
    if len(chosen) >= len(ids):
        raise ValueError("labeled subset covers all rows; nothing to predict")
    return set(chosen)


def reference_one_hot_seed(ids, labels, labeled_ids):
    """One-hot rows of the labeled ids, one row at a time."""
    y0 = np.zeros((len(ids), labels.n_classes))
    for k, rid in enumerate(ids):
        if rid in labeled_ids:
            y0[k, labels.assignments[rid]] = 1.0
    return y0


def reference_evaluate_accuracy(pred, truth, ids, labeled_ids):
    """Accuracy over the unlabeled rows, counted one row at a time."""
    labeled_ids = set(labeled_ids)
    eval_rows = [k for k, rid in enumerate(ids) if rid not in labeled_ids]
    if not eval_rows:
        raise ValueError("labeled set covers all rows; accuracy undefined")
    hits = sum(1 for k in eval_rows if pred[k] == truth.assignments[ids[k]])
    return hits / len(eval_rows)


def reference_per_class_accuracy(pred, labels, ids, labeled_ids):
    """Per-class accuracy over the unlabeled rows, one list of rows per class."""
    per_class = {}
    for cls in range(labels.n_classes):
        rows = [
            k
            for k, rid in enumerate(ids)
            if rid not in labeled_ids and labels.assignments[rid] == cls
        ]
        if rows:
            per_class[labels.names[cls]] = sum(1 for k in rows if pred[k] == cls) / len(rows)
    return per_class


def reference_save_model(path, model, report, ids, version, extras=None):
    """Write a model file of an older version: version 3 stores an empty
    per-coordinate weight array (covariance_diag) beside the version-4
    arrays and a false header flag spec.has_covariance; version 2 also the
    tree's sizes and member ranges (tree_size, tree_start, tree_end), and
    version 1 also the tree's TreeStats arrays as they are. The header is
    the same but for its version and that flag."""
    tree = model.tree
    spec = model.spec
    meta = {
        "format": "blockwalk-model",
        "version": version,
        "n_points": tree.n_points,
        "spec": {
            "kind": spec.kind,
            "dim": spec.dim,
            "sigma": spec.sigma,
            "epsilon": spec.epsilon,
            "has_covariance": False,
        },
        "partition_label": model.partition.label,
        "bound": {
            "ell": report.ell,
            "constant": report.constant,
            "entropy_term": report.entropy_term,
        },
        "optimizer": {
            "converged": model.params.converged,
            "residual": model.params.residual,
            "sweeps": model.params.sweeps,
        },
        "ids": list(ids),
        "extras": extras or {},
    }
    st = tree.stats
    stats = {
        "stat_s1": st.s1,
        "stat_s2": st.s2,
        "stat_s3_ptr": st.ptr,
        "stat_s3_idx": st.idx,
        "stat_s3_val": st.v3,
        "stat_s3_base": st.b3,
        "stat_s4_ptr": st.ptr,
        "stat_s4_idx": st.idx,
        "stat_s4_val": st.v4,
        "stat_s4_base": st.b4,
    }
    ranges = {
        "tree_size": tree.size,
        "tree_start": tree.start,
        "tree_end": tree.start + tree.size,
    }
    arrays = {
        "meta": np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
        "tree_left": tree.left,
        "tree_right": tree.right,
        **(ranges if version <= 2 else {}),
        "tree_perm": tree.perm,
        **(stats if version == 1 else {}),
        "block_a": model.partition.a,
        "block_b": model.partition.b,
        "q": model.params.values,
        "log_q": model.params.log_values,
        "d_ab": report.d_ab,
        "covariance_diag": np.empty(0),
    }
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
