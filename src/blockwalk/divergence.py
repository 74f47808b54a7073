"""Bregman divergence bundle.

Each divergence kind is defined by its strictly convex generator applied
coordinatewise: the generator value, its gradient, and the induced
divergence d(x, y) = phi(x) - phi(y) - (x - y)' grad(y). The first
argument of a divergence is always the datapoint, the second the kernel
center. One-dimensional textbook definitions (logistic, itakura-saito,
relative entropy) are summed over coordinates.

Two evaluation layers share the same kernels: dense row blocks (the exact
baselines: `dense_rows`, `row_blocks`) and OffsetVec inputs (cluster
statistics, where off-support coordinates sit at a common baseline).

Every data layout shares one domain rule and one carrier per kind. The rule
is `_outside`, and `check_smoothed` applies it to a smoothed sparse matrix,
on its stored values plus the offset and on the offset at its implicit
coordinates; the tree and the exact baselines run it alike. The carrier
sum is `total_carrier`; sq-euclidean takes its log normalizer from
`_normalizer`. The tree and the bound branch on no kind.

A squared distance with per-coordinate weights, sum_j w_j (x_j - y_j)^2, is
sq-euclidean at sigma = 1 on the rescaled rows x_j * sqrt(2 w_j): the same
tree, transition matrix and q. Its bound and exact log-likelihood are the
rescaled model's plus N * sum_j log(2 w_j) / 2, the rescaling's log Jacobian.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, xlogy

__all__ = [
    "KINDS",
    "COUNT_KINDS",
    "DivergenceSpec",
    "DomainError",
    "check_smoothed",
    "total_carrier",
    "total_phi",
    "dense_rows",
    "row_blocks",
    "ov_phi",
]

KINDS = ("sq-euclidean", "gid", "kl", "itakura-saito", "logistic")

# Kinds whose domain requires (near-)positive coordinates and that therefore
# take count smoothing by default. kl is not one: its rows must lie on the
# simplex, which any offset leaves.
COUNT_KINDS = ("gid", "itakura-saito")


def check_epsilon(epsilon):
    """The smoothing offset's rule for a spec and a smoothed matrix: finite, >= 0."""
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be >= 0 and finite, got {epsilon}")


class DomainError(ValueError):
    """Input outside the divergence domain; carries the offending index."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class DivergenceSpec:
    """Divergence kind plus its parameters and the data dimension."""

    kind: str
    dim: int
    sigma: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown divergence kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.kind == "sq-euclidean" and not 0 < self.sigma < np.inf:
            raise ValueError("sigma must be > 0 and finite for sq-euclidean")
        check_epsilon(self.epsilon)


# ---------------------------------------------------------------------------
# Domain checks
# ---------------------------------------------------------------------------


def _outside(kind, x):
    """Mask of the entries of x outside the relative interior of the domain
    of `kind`, where the gradient is finite, or False where the domain is
    all of R."""
    if kind == "logistic":
        return (x <= 0) | (x >= 1)
    if kind == "sq-euclidean":
        return False
    return x <= 0  # gid, kl, itakura-saito


def _rule(kind):
    return "entries in (0,1)" if kind == "logistic" else "positive entries"


def check_smoothed(spec, data):
    """Domain check of a SmoothedMatrix without densifying it: first the
    offset on the implicit coordinates of short rows, then the stored values
    plus the offset, then kl's simplex rule. An entry's error names its row
    and column, the simplex rule's its row."""
    if spec.epsilon != data.epsilon:
        raise ValueError(
            f"spec epsilon {spec.epsilon} differs from the data's smoothing "
            f"offset {data.epsilon}"
        )
    kind, eps, csr = spec.kind, data.epsilon, data.csr()
    short = np.flatnonzero(data.nnz_per_row() < data.dim)
    if short.size and np.any(_outside(kind, eps)):
        i = int(short[0])
        j = int(np.setdiff1d(np.arange(data.dim), data.base.row(i)[0])[0])
        raise DomainError(
            f"{kind} requires {_rule(kind)}; row {i} column {j} is "
            f"implicit, at the smoothing offset {eps}",
            (i, j),
        )
    bad = _outside(kind, csr.data + eps)
    if np.any(bad):
        k = int(np.argmax(bad))
        i = int(np.searchsorted(csr.indptr, k, side="right")) - 1
        j = int(csr.indices[k])
        raise DomainError(
            f"{kind} requires {_rule(kind)}; row {i} column {j} is "
            f"{csr.data[k] + eps} after smoothing",
            (i, j),
        )
    if kind == "kl":
        totals = data.row_sums() + eps * data.dim
        off = np.abs(totals - 1.0)
        if np.any(off > 1e-6):
            i = int(np.argmax(off))
            raise DomainError(
                f"kl requires simplex rows; row {i} sums to {totals[i]:.6g}", i
            )


# ---------------------------------------------------------------------------
# Elementwise kernels
# ---------------------------------------------------------------------------


def _phi_terms(spec, t):
    kind = spec.kind
    if kind == "sq-euclidean":
        return t * t / (2.0 * spec.sigma**2)
    if kind in ("gid", "kl"):
        return xlogy(t, t) - t
    if kind == "itakura-saito":
        return -np.log(t) - 1.0
    return xlogy(t, t) + xlogy(1.0 - t, 1.0 - t)  # logistic


def _grad_terms(spec, t):
    kind = spec.kind
    if kind == "sq-euclidean":
        return t / spec.sigma**2
    if kind in ("gid", "kl"):
        return np.log(t)
    if kind == "itakura-saito":
        return -1.0 / t
    return np.log(t) - np.log1p(-t)  # logistic


# ---------------------------------------------------------------------------
# Dense row blocks (the exact baselines)
# ---------------------------------------------------------------------------


def _normalizer(spec):
    """sq-euclidean's Gaussian log normalizer, the constant phi + carrier."""
    return -0.5 * spec.dim * np.log(2.0 * np.pi * spec.sigma**2)


def total_carrier(data, spec, phi_sum):
    """Log carrier summed over the rows of a SmoothedMatrix, whose generator
    values sum to phi_sum, without densifying it."""
    n, d = data.n_rows, data.dim
    if spec.kind in ("gid", "kl"):
        stored = float(gammaln(data.csr().data + data.epsilon + 1.0).sum())
        implicit = float((d - data.nnz_per_row()).sum() * gammaln(data.epsilon + 1.0))
        return -(stored + implicit)
    if spec.kind == "sq-euclidean":
        return n * _normalizer(spec) - phi_sum
    return 0.0


def total_phi(data, spec):
    """Generator values summed over the rows of a SmoothedMatrix, from its
    stored values and, at the offset, its implicit coordinates."""
    implicit = data.n_rows * data.dim - data.base.nnz
    total = float(_phi_terms(spec, data.csr().data + data.epsilon).sum())
    if implicit:
        total += implicit * _scalar_base(spec, _phi_terms, data.epsilon, "generator")
    return total


# Rows per block of the dense N x N baselines, which hold one block of
# pairwise divergences beside their output at a time.
ROW_BLOCK = 512


def dense_rows(spec, data, what, cap):
    """The rows of a SmoothedMatrix as one dense array, for the exact
    baseline `what` (named in the messages): N must be 2 to cap, and the
    rows must pass check_smoothed."""
    n = data.n_rows
    if n < 2:
        raise ValueError(f"{what} needs at least 2 points")
    if n > cap:
        raise ValueError(f"{what} refused for N={n} > cap={cap}")
    check_smoothed(spec, data)
    return data.to_dense()


def row_blocks(spec, Y, out=None):
    """The divergences d(y_i, y_j) between the dense_rows Y, one block of
    ROW_BLOCK rows at a time. The centers' terms (generator sums, gradient,
    y'grad(y)) are taken once. Yields (lo, hi, blk), blk holding the rows
    lo:hi as ((px - py) + yg) - X @ G.T with +inf on the diagonal, written
    into out[lo:hi], or into one buffer reused by every block when out is
    None."""
    n = Y.shape[0]
    py = _phi_terms(spec, Y).sum(axis=1)
    G = _grad_terms(spec, Y)
    yg = np.einsum("ij,ij->i", Y, G)
    buf = np.empty((min(ROW_BLOCK, n), n)) if out is None else None
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        X = Y[lo:hi]
        px = _phi_terms(spec, X).sum(axis=1)
        blk = np.subtract(px[:, None], py, out=buf[: hi - lo] if out is None else out[lo:hi])
        blk += yg
        blk -= X @ G.T
        blk[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        yield lo, hi, blk


# ---------------------------------------------------------------------------
# OffsetVec layer. Off-support coordinates sit at `base`; a full-support
# vector has no implicit coordinates and its mapped base is pinned to 0.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _scalar_base(spec, fn, base, what):
    """Map the baseline through a scalar kernel, requiring a finite result."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = float(fn(spec, np.array([base], dtype=np.float64))[0])
    if not np.isfinite(out):
        raise DomainError(
            f"{spec.kind} {what} undefined at off-support value {base} "
            "(increase the smoothing offset)"
        )
    return out


def ov_phi(spec, v):
    imp = v.dim - v.nnz
    t = v.base + v.val
    out = float(np.sum(_phi_terms(spec, t)))
    if imp > 0:
        out += imp * _scalar_base(spec, _phi_terms, v.base, "generator")
    return out
