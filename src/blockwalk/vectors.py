"""Offset+sparse vectors.

An OffsetVec represents a dense d-vector as a scalar baseline plus sparse
corrections: value `base` on every coordinate except those in `idx`, where it
is `base + val[k]`. Linear combinations never materialize the dense vector,
which keeps wide pivots cheap when d is large (bag-of-words vocabularies)
while staying exact.
"""
from __future__ import annotations

import numpy as np

__all__ = ["OffsetVec", "merge_add"]


def merge_add(idx_a, val_a, idx_b, val_b):
    """Merge two sorted sparse supports, summing values on shared indices."""
    idx = np.concatenate([idx_a, idx_b])
    order = np.argsort(idx, kind="stable")
    idx, val = idx[order], np.concatenate([val_a, val_b])[order]
    start = np.flatnonzero(np.diff(idx, prepend=idx[:1] - 1))  # group starts
    return idx[start], np.add.reduceat(val, start)


class OffsetVec:
    """Dense vector `base` everywhere except `idx`, where it is `base + val`."""

    __slots__ = ("dim", "base", "idx", "val")

    def __init__(self, dim, base, idx, val):
        self.dim = int(dim)
        self.base = float(base)
        self.idx = np.asarray(idx, dtype=np.int64)
        self.val = np.asarray(val, dtype=np.float64)

    @classmethod
    def from_dense(cls, x):
        x = np.asarray(x, dtype=np.float64)
        return cls(x.size, 0.0, np.arange(x.size, dtype=np.int64), x.copy())

    @property
    def nnz(self):
        return self.idx.size

    def to_dense(self):
        x = np.full(self.dim, self.base)
        x[self.idx] += self.val
        return x

    @staticmethod
    def combine(a, wa, b, wb):
        """Linear combination wa*a + wb*b."""
        if a.dim != b.dim:
            raise ValueError("dimension mismatch in OffsetVec.combine")
        idx, val = merge_add(a.idx, a.val * wa, b.idx, b.val * wb)
        return OffsetVec(a.dim, wa * a.base + wb * b.base, idx, val)

    def __repr__(self):
        return f"OffsetVec(dim={self.dim}, base={self.base}, nnz={self.nnz})"

