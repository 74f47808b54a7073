"""Block-partitioned variational model of the transition matrix.

The bound maximized here is

    ell = c - sum_B q_B * D_B - sum_B |A||B| q_B log q_B

subject to, for every datapoint i, sum over its covering blocks of |B| q_B
equal to 1. D_B is the summed divergence from rows of A to centers in B and
decouples into the four per-subtree statistics, so each block costs O(1)
(O(sparse support) with the offset decomposition) instead of |A|*|B|.

The program is solved exactly, with no iteration. With m_B = |B| q_B and
s_B = log|B| - D_B/(|A||B|), the objective is sum_B |A| m_B (s_B - log m_B)
and row i's constraint says that m summed over the blocks whose row side is
on i's root path is 1. Let L_k be the logsumexp of s_B over the blocks with
row side k (-inf for none). At its optimum a subtree k given the path budget
r is worth |k| r (v_k - log r), where one up pass (children before parents)
gives a leaf v = L and an inner node k with children l, r

    w_k = (|l| v_l + |r| v_r) / |k|,    v_k = logaddexp(L_k, w_k),

and one down pass hands each child of k the path budget
log r_child = log r_k + w_k - v_k from log r_root = 0. Then

    log q_B = log r_A - v_A + s_B - log|B|,    ell = c + N v_root,

so the fit costs O(#blocks + #nodes). Each pass runs one level at a time,
one array step per level of ClusterTree.levels: the up pass from the deepest
level, the down pass from the root. This is the closed-form coordinate
structure of the Euclidean variational dual tree (Amizadeh, Thiesson &
Hauskrecht, UAI 2012; Thiesson & Kim, AISTATS 2012) under any Bregman
divergence.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .divergence import dense_rows, row_blocks, total_carrier, total_phi

__all__ = [
    "BlockParams",
    "BoundReport",
    "block_divergence_sums",
    "optimize_q",
    "lower_bound",
    "exact_loglik",
    "constant_term",
]


# ---------------------------------------------------------------------------
# Decoupled block divergence sums
# ---------------------------------------------------------------------------


def _need_fit_data(tree):
    """Refuse a fit or bound on a tree without its rows and statistics, as
    a loaded model is."""
    if tree.data is None or tree.stats is None:
        raise ValueError(
            "a fit or bound needs the data rows and the node statistics, which "
            "a loaded model does not keep; audit a saved bound with "
            "model_io.reevaluate_bound(model, report)"
        )


def block_divergence_sums(tree, partition):
    """D vector over the partition's blocks, in block order: the summed
    divergence from every row of A to every center of B, from the two
    nodes' statistics alone."""
    _need_fit_data(tree)
    st, a, b = tree.stats, partition.a, partition.b
    return (
        tree.size[b] * st.s1[a]
        + tree.size[a] * (st.s2[b] - st.s1[b])
        - st.dot34(a, b)
    )


# ---------------------------------------------------------------------------
# Constant term and exact log-likelihood
# ---------------------------------------------------------------------------


def _constant(data, spec, phi_sum):
    """-N log(N-1) + sum phi + sum carrier over the rows of data, whose
    generator values sum to phi_sum."""
    n = data.n_rows
    return -n * np.log(n - 1) + phi_sum + total_carrier(data, spec, phi_sum)


def constant_term(tree):
    """Additive constant of the bound, from the root's generator sum."""
    _need_fit_data(tree)
    return _constant(tree.data, tree.spec, float(tree.stats.s1[tree.root]))


def exact_loglik(data, spec, cap=8192):
    """Dense kernel-density log-likelihood; test scale only. Each row's
    logsumexp is taken from its block of row_blocks, so no N x N matrix is
    held, and the additive constant is the bound's."""
    lse = np.empty(data.n_rows)
    for lo, hi, blk in row_blocks(spec, dense_rows(spec, data, "exact log-likelihood", cap)):
        lse[lo:hi] = logsumexp(np.negative(blk, out=blk), axis=1)
    return float(np.sum(lse) + _constant(data, spec, total_phi(data, spec)))


# ---------------------------------------------------------------------------
# The optimizer
# ---------------------------------------------------------------------------


@dataclass
class BlockParams:
    """One parameter per block; the compressed transition model."""

    values: np.ndarray
    log_values: np.ndarray
    converged: bool = True
    residual: float = 0.0
    sweeps: int = 0  # tree passes run: 2 (up, down), 1 when max_sweeps < 2
    # (tree, partition, block divergence sums) of the fit, so the bound on
    # that same tree and partition need not sum the blocks again
    fit_sums: tuple | None = field(default=None, repr=False, compare=False)


@dataclass
class BoundReport:
    ell: float
    constant: float
    d_ab: np.ndarray
    entropy_term: float


# the largest constraint residual a converged fit may leave
RESIDUAL_TOL = 1e-10


def optimize_q(tree, partition, spec=None, data=None, max_sweeps=10_000):
    """Maximize the bound under the per-datapoint sum-to-one constraints.

    The program is solved exactly by one up and one down pass over the tree
    (see the module docstring). `max_sweeps` bounds the tree passes: below 2
    the down pass is skipped and every node keeps the whole path budget, so
    the rows overshoot. Convergence is measured, not assumed: it is declared
    when every datapoint's constraint residual is within RESIDUAL_TOL, and
    non-convergence is flagged on the result and warned about.
    """
    a, n_nodes = partition.a, tree.n_nodes
    nb = tree.size[partition.b].astype(np.float64)
    dvec = block_divergence_sums(tree, partition)
    dbar = dvec / (tree.size[a] * nb)
    if not np.all(np.isfinite(dbar)):
        raise ValueError("non-finite block divergence sum")
    s = np.log(nb) - dbar
    # L_k: logsumexp of s over the blocks with row side k, -inf for none
    peak = np.full(n_nodes, -np.inf)
    np.maximum.at(peak, a, s)
    with np.errstate(divide="ignore"):
        big_l = peak + np.log(np.bincount(a, np.exp(s - peak[a]), n_nodes))
    sweeps = 2 if max_sweeps >= 2 else 1
    v, log_r = _tree_passes(tree, big_l, down=sweeps == 2)
    logq = log_r[a] - v[a] - dbar  # s_B - log|B| = -dbar_B
    params = BlockParams(
        values=np.exp(logq), log_values=logq, sweeps=sweeps,
        fit_sums=(tree, partition, dvec),
    )
    res = constraint_residuals(tree, partition, params)
    params.residual = float(np.max(np.abs(res)))
    params.converged = params.residual <= RESIDUAL_TOL
    if not params.converged:
        warnings.warn(
            f"optimizer stopped after {sweeps} sweeps with residual "
            f"{params.residual:.3e}",
            RuntimeWarning,
        )
    return params


def _tree_passes(tree, big_l, down):
    """v and log r of every node (see the module docstring): the up pass from
    the deepest level, then, if `down`, the down pass from the root, one array
    step per level of tree.levels. Without the down pass every log r is 0."""
    left, right, size = tree.left, tree.right, tree.size
    inner = [nodes[left[nodes] >= 0] for nodes in tree.levels]
    v, w = big_l.copy(), np.full(tree.n_nodes, -np.inf)  # a leaf's v is its L
    for k in reversed(inner):
        lc, rc = left[k], right[k]
        w[k] = (size[lc] * v[lc] + size[rc] * v[rc]) / size[k]
        v[k] = np.logaddexp(big_l[k], w[k])
    log_r = np.zeros(tree.n_nodes)
    if down:
        for k in inner:
            # a subtree left with no feasible split (v = -inf) gets nothing
            with np.errstate(invalid="ignore"):
                child = np.where(v[k] > -np.inf, log_r[k] + w[k] - v[k], -np.inf)
            log_r[left[k]] = log_r[right[k]] = child
    return v, log_r


def lower_bound(params, partition, tree, spec=None, data=None):
    """Evaluate the bound exactly for given block parameters. The block
    divergence sums are those the parameters were fit on when they were fit
    on this same tree and partition, and are summed afresh otherwise."""
    fit = params.fit_sums
    if fit is not None and fit[0] is tree and fit[1] is partition:
        dvec = fit[2]
    else:
        dvec = block_divergence_sums(tree, partition)
    q = params.values
    ncells = (tree.size[partition.a] * tree.size[partition.b]).astype(np.float64)
    qd = float(dvec @ q)
    entropy = float(np.sum(ncells * q * params.log_values))
    c = constant_term(tree)
    return BoundReport(ell=c - qd - entropy, constant=c, d_ab=dvec, entropy_term=entropy)


def constraint_residuals(tree, partition, params):
    """Per-datapoint deviation of sum |B| q_B from 1."""
    m = tree.size[partition.b] * params.values
    return tree.ancestors @ np.bincount(partition.a, m, tree.n_nodes) - 1.0
