"""Transition operators and label propagation.

The blocked operator applies the compressed transition model as A (Q (A' v)),
where A is the tree's sparse row-by-node ancestor indicator
(`ClusterTree.ancestors`, the same matrix the optimizer's passes use): A' v
holds the subtree sums of v, Q holds each block's parameter at (row side,
column side), and A adds up, for every row, the contributions of the nodes
on its root path. A product costs O(#blocks + sum of leaf depths). The dense
baseline materializes the exact row-softmax transition matrix (guarded to
test scale) for verification and the exact method.

Label spreading iterates y <- alpha * M y + (1 - alpha) * y0 one-vs-all; the
per-class columns are independent, so they propagate as one batched matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .divergence import pairwise_divergences

__all__ = [
    "TransitionModel",
    "DenseBaseline",
    "PropagationConfig",
    "dense_transition_matrix",
    "propagate_labels",
    "classify_one_vs_all",
    "evaluate_accuracy",
]


@dataclass
class TransitionModel:
    """Tree + partition + block parameters + divergence spec."""

    tree: object
    partition: object
    params: object
    spec: object

    def __post_init__(self):
        if self.params.values.size != self.partition.n_blocks:
            raise ValueError("params do not match partition")
        tree, part = self.tree, self.partition
        self._blocks = sp.csr_matrix(
            (self.params.values, (part.a, part.b)), shape=(tree.n_nodes, tree.n_nodes)
        )

    @property
    def n_points(self):
        return self.tree.n_points

    def matmat(self, v):
        """Apply the compressed operator to an (N,) or (N, C) array."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape[0] != self.n_points:
            raise ValueError(
                f"vector length {v.shape[0]} does not match N={self.n_points}"
            )
        a = self.tree.ancestors
        return a @ (self._blocks @ (a.T @ v))


@dataclass
class DenseBaseline:
    """Exact similarity and transition matrices (zero diagonal)."""

    w: np.ndarray | None
    p: np.ndarray


def dense_transition_matrix(data, spec, cap=8192, keep_w=True, block_rows=512):
    """Exact row-softmax transition matrix with log-sum-exp stabilization."""
    n = data.n_rows
    if n < 2:
        raise ValueError("transition matrix needs at least 2 points")
    if n > cap:
        raise ValueError(f"dense transition matrix refused for N={n} > cap={cap}")
    dense = data.to_dense()
    p = np.empty((n, n))
    w = np.empty((n, n)) if keep_w else None
    for lo in range(0, n, block_rows):
        hi = min(lo + block_rows, n)
        d_blk = pairwise_divergences(spec, dense[lo:hi], dense)
        for r in range(lo, hi):
            d_blk[r - lo, r] = np.inf
        if keep_w:
            w[lo:hi] = np.exp(-d_blk)
        m = d_blk.min(axis=1, keepdims=True)
        e = np.exp(m - d_blk)  # note: -d - (-min d)
        p[lo:hi] = e / e.sum(axis=1, keepdims=True)
    return DenseBaseline(w=w, p=p)


@dataclass
class PropagationConfig:
    alpha: float = 0.01
    iterations: int = 300

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")


def _apply_operator(op, y):
    if isinstance(op, TransitionModel):
        return op.matmat(y)
    if isinstance(op, DenseBaseline):
        return op.p @ y
    return np.asarray(op) @ y


def propagate_labels(op, y0, config=None):
    """Iterate y <- alpha * M y + (1 - alpha) * y0 for the configured number
    of rounds; columns are one-vs-all class indicators."""
    config = config or PropagationConfig()
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim != 2 or y0.shape[1] < 1:
        raise ValueError("y0 must be an N x C matrix with C >= 1")
    if isinstance(op, TransitionModel):
        n = op.n_points
    elif isinstance(op, DenseBaseline):
        n = op.p.shape[0]
    else:
        n = np.asarray(op).shape[0]
    if y0.shape[0] != n:
        raise ValueError(f"y0 has {y0.shape[0]} rows, operator expects {n}")
    alpha = config.alpha
    y = y0.copy()
    for _ in range(config.iterations):
        y = alpha * _apply_operator(op, y) + (1.0 - alpha) * y0
    return y


def classify_one_vs_all(scores):
    """Per-row argmax (ties to the lowest class); flags all-zero rows as
    unreached."""
    scores = np.asarray(scores)
    if scores.ndim != 2 or scores.shape[1] < 1:
        raise ValueError("scores must be N x C with C >= 1")
    classes = np.argmax(scores, axis=1)
    unreached = np.all(scores == 0.0, axis=1)
    return classes, unreached


def evaluate_accuracy(pred, truth, ids, labeled_ids):
    """Fraction of correct predictions over rows NOT in the labeled set."""
    labeled_ids = set(labeled_ids)
    missing = [rid for rid in ids if rid not in truth.assignments]
    if missing:
        raise ValueError(f"truth labels missing for id {missing[0]!r}")
    eval_rows = [k for k, rid in enumerate(ids) if rid not in labeled_ids]
    if not eval_rows:
        raise ValueError("labeled set covers all rows; accuracy undefined")
    hits = sum(1 for k in eval_rows if pred[k] == truth.assignments[ids[k]])
    return hits / len(eval_rows)
