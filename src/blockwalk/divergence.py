"""Bregman divergence bundle.

Each divergence kind is defined by its strictly convex generator applied
coordinatewise: the generator value, its gradient, and the induced
divergence d(x, y) = phi(x) - phi(y) - (x - y)' grad(y). The first
argument of a divergence is always the datapoint, the second the kernel
center. One-dimensional textbook definitions (logistic, itakura-saito,
relative entropy) are summed over coordinates.

Three evaluation layers share the same kernels: scalars/dense vectors (public
API), dense row batches (exact baselines), and OffsetVec inputs (cluster
statistics, where off-support coordinates sit at a common baseline).

Every data layout shares one domain rule and one carrier per kind. The rule
is `_outside`: `_check_domain` applies it to a vector or a stack of rows,
and `check_smoothed` to a smoothed sparse matrix, on its stored values plus
the offset and on the offset at its implicit coordinates. The carrier is
`carrier_rows` (`total_carrier` is its sum over a smoothed matrix);
sq-euclidean takes its log normalizer from `_normalizer`. The tree and the
bound branch on no kind.

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
    "phi",
    "grad_phi",
    "bregman_divergence",
    "check_smoothed",
    "total_carrier",
    "phi_rows",
    "pairwise_divergences",
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


def _outside(kind, x, strict):
    """Mask of the entries of x outside the domain of `kind`, or False where
    the domain is all of R. `strict` asks for the relative interior, where
    the gradient is finite; only gid and kl admit zero outside it."""
    if kind in ("gid", "kl"):
        return x <= 0 if strict else x < 0
    if kind == "itakura-saito":
        return x <= 0
    if kind == "logistic":
        return (x <= 0) | (x >= 1)
    return False  # sq-euclidean


def _rule(kind, strict):
    if kind == "logistic":
        return "entries in (0,1)"
    if kind in ("gid", "kl") and not strict:
        return "nonnegative entries"
    return "positive entries"


def _check_domain(spec, x, strict, name="x"):
    """Reject entries of a vector or a stack of rows outside the domain; the
    error's index is j for a vector and (i, j) for rows."""
    bad = _outside(spec.kind, x, strict)
    if np.any(bad):
        at = tuple(int(k) for k in np.unravel_index(int(np.argmax(bad)), x.shape))
        raise DomainError(
            f"{spec.kind} requires {_rule(spec.kind, strict)}; "
            f"{name}[{', '.join(map(str, at))}] = {x[at]}",
            at[0] if x.ndim == 1 else at,
        )


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
    if short.size and np.any(_outside(kind, eps, strict=True)):
        i = int(short[0])
        j = int(np.setdiff1d(np.arange(data.dim), data.base.row(i)[0])[0])
        raise DomainError(
            f"{kind} requires {_rule(kind, True)}; row {i} column {j} is "
            f"implicit, at the smoothing offset {eps}",
            (i, j),
        )
    bad = _outside(kind, csr.data + eps, strict=True)
    if np.any(bad):
        k = int(np.argmax(bad))
        i = int(np.searchsorted(csr.indptr, k, side="right")) - 1
        j = int(csr.indices[k])
        raise DomainError(
            f"{kind} requires {_rule(kind, True)}; row {i} column {j} is "
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


def _as_vector(spec, x, name="x"):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.dim,):
        raise ValueError(f"{name} must have shape ({spec.dim},), got {x.shape}")
    return x


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
# Public pointwise API
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Dense row batches (exact baselines, brute-force oracles)
# ---------------------------------------------------------------------------


def phi_rows(spec, X):
    X = np.asarray(X, dtype=np.float64)
    _check_domain(spec, X, strict=False, name="X")
    return _phi_terms(spec, X).sum(axis=1)


def _normalizer(spec):
    """sq-euclidean's Gaussian log normalizer, the constant phi + carrier."""
    return -0.5 * spec.dim * np.log(2.0 * np.pi * spec.sigma**2)


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


def total_carrier(data, spec, total_phi):
    """Log carrier summed over the rows of a SmoothedMatrix, whose generator
    values sum to total_phi, without densifying it."""
    n, d = data.n_rows, data.dim
    if spec.kind in ("gid", "kl"):
        stored = float(gammaln(data.csr().data + data.epsilon + 1.0).sum())
        implicit = float((d - data.nnz_per_row()).sum() * gammaln(data.epsilon + 1.0))
        return -(stored + implicit)
    if spec.kind == "sq-euclidean":
        return n * _normalizer(spec) - total_phi
    return 0.0


# Rows per block of the dense N x N baselines, which hold one block of
# pairwise divergences beside their output at a time.
ROW_BLOCK = 512


def _divergences_to(spec, Y):
    """Divergences to the centers Y, one block of rows at a time.

    Y's strict domain check, generator sums, gradient and y'grad(y) are
    taken here, once. Returns fill(X, out=None), which writes d(x_i, y_j)
    for the rows X into out (len(X), len(Y)), or into a new array, as
    ((px - py) + yg) - X @ G.T and returns it. fill does not check X:
    pairwise_divergences does, and the dense baselines pass rows of Y
    itself.
    """
    Y = np.asarray(Y, dtype=np.float64)
    _check_domain(spec, Y, strict=True, name="Y")
    py = _phi_terms(spec, Y).sum(axis=1)
    G = _grad_terms(spec, Y)
    yg = np.einsum("ij,ij->i", Y, G)

    def fill(X, out=None):
        px = _phi_terms(spec, X).sum(axis=1)
        out = np.subtract(px[:, None], py, out=out)
        out += yg
        out -= X @ G.T
        return out

    return fill


def pairwise_divergences(spec, X, Y):
    """Matrix of d(x_i, y_j) for dense row stacks X (n,d) and Y (m,d)."""
    X = np.asarray(X, dtype=np.float64)
    _check_domain(spec, X, strict=False, name="X")
    return _divergences_to(spec, Y)(X)


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
