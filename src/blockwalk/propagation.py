"""Transition operators and label propagation.

The blocked operator applies the compressed transition model as A (Q (A' v)),
where A is the tree's sparse row-by-node ancestor indicator
(`ClusterTree.ancestors`, the matrix of the node statistics too): A' v
holds the subtree sums of v, Q holds each block's parameter at (row side,
column side), and A adds up, for every row, the contributions of the nodes
on its root path. A product costs O(#blocks + sum of leaf depths). The dense
baseline materializes the exact row-softmax transition matrix (guarded to
test scale) for verification and the exact method.

Label spreading iterates y <- alpha * M y + (1 - alpha) * y0 one-vs-all; the
per-class columns are independent, so they propagate as one batched matrix.
The update is a fixed function of y, so once an iterate repeats the previous
one bit for bit every later one does too: the loop stops there, with the
scores a fixed-count loop would return, or at the iteration cap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .divergence import dense_rows, row_blocks

__all__ = [
    "TransitionModel",
    "DenseBaseline",
    "PropagationConfig",
    "dense_transition_matrix",
    "propagate_labels",
    "spread_labels",
    "classify_one_vs_all",
    "evaluate_accuracy",
    "per_class_accuracy",
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

    @property
    def n_points(self):
        return self.p.shape[0]

    def matmat(self, v):
        return self.p @ v


def dense_transition_matrix(data, spec, cap=8192, keep_w=False):
    """Exact row-softmax transition matrix with log-sum-exp stabilization;
    the similarity matrix w is filled only when keep_w is set. Each block of
    row_blocks is computed in place in p: the divergences with the zero
    diagonal (as +inf), the shift by the row minimum, exp and the row
    normalization."""
    dense = dense_rows(spec, data, "dense transition matrix", cap)
    n = dense.shape[0]
    p = np.empty((n, n))
    w = np.empty((n, n)) if keep_w else None
    for lo, hi, blk in row_blocks(spec, dense, p):
        if keep_w:
            np.exp(np.negative(blk, out=w[lo:hi]), out=w[lo:hi])
        np.subtract(blk.min(axis=1, keepdims=True), blk, out=blk)  # -d - (-min d)
        np.exp(blk, out=blk)
        blk /= blk.sum(axis=1, keepdims=True)
    return DenseBaseline(w=w, p=p)


@dataclass
class PropagationConfig:
    """iterations caps the updates, which stop at the bitwise fixed point."""

    alpha: float = 0.01
    iterations: int = 300

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")


def spread_labels(op, y0, config=None):
    """Iterate y <- alpha * M y + (1 - alpha) * y0 until an update returns
    the previous iterate's bits, or config.iterations updates; columns are
    one-vs-all class indicators. Returns (scores, updates applied). op is a
    TransitionModel, a DenseBaseline or a bare N x N array."""
    config = config or PropagationConfig()
    if not hasattr(op, "matmat"):
        op = DenseBaseline(None, np.asarray(op))
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim != 2 or y0.shape[1] < 1:
        raise ValueError("y0 must be an N x C matrix with C >= 1")
    if y0.shape[0] != op.n_points:
        raise ValueError(f"y0 has {y0.shape[0]} rows, operator expects {op.n_points}")
    alpha = config.alpha
    y = y0.copy()
    for done in range(1, config.iterations + 1):
        new = alpha * op.matmat(y) + (1.0 - alpha) * y0
        # compare bits, not values: == holds for 0.0 vs -0.0 and fails on NaN
        if np.array_equal(new.view(np.uint64), y.view(np.uint64)):
            return new, done
        y = new
    return y, config.iterations


def propagate_labels(op, y0, config=None):
    """Label-spreading scores, run to the bitwise fixed point or the
    iteration cap: `spread_labels` without its update count."""
    return spread_labels(op, y0, config)[0]


def classify_one_vs_all(scores):
    """Per-row argmax (ties to the lowest class); flags all-zero rows as
    unreached."""
    scores = np.asarray(scores)
    if scores.ndim != 2 or scores.shape[1] < 1:
        raise ValueError("scores must be N x C with C >= 1")
    classes = np.argmax(scores, axis=1)
    unreached = np.all(scores == 0.0, axis=1)
    return classes, unreached


def _class_hits(pred, truth, ids, labeled_ids):
    """Correct predictions and scored rows (those not labeled), per class."""
    labeled_ids = set(labeled_ids)
    scored = ~np.fromiter(map(labeled_ids.__contains__, ids), bool, len(ids))
    want = truth.classes(ids)[scored]
    hit = np.asarray(pred)[scored] == want
    n = truth.n_classes
    return np.bincount(want, weights=hit, minlength=n), np.bincount(want, minlength=n)


def evaluate_accuracy(pred, truth, ids, labeled_ids):
    """Fraction of correct predictions over rows NOT in the labeled set."""
    hits, rows = _class_hits(pred, truth, ids, labeled_ids)
    if not rows.any():
        raise ValueError("labeled set covers all rows; accuracy undefined")
    return float(hits.sum() / rows.sum())  # sums of whole numbers: bit for bit hits / rows


def per_class_accuracy(pred, truth, ids, labeled_ids):
    """Accuracy over the unlabeled rows of each class that has any, by name."""
    hits, rows = _class_hits(pred, truth, ids, labeled_ids)
    return {name: float(h / n) for name, h, n in zip(truth.names, hits, rows) if n}
