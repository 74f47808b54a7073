"""Block-partitioned variational model of the transition matrix.

The bound maximized here is

    ell = c - sum_B q_B * D_B - sum_B |A||B| q_B log q_B

subject to, for every datapoint i, sum over its covering blocks of |B| q_B
equal to 1. D_B is the summed divergence from rows of A to centers in B and
decouples into the four per-subtree statistics, so each block costs O(1)
(O(sparse support) with the offset decomposition) instead of |A|*|B|.

The optimizer solves the strictly concave program through its dual: one
multiplier per datapoint, stationarity giving log q_B = -1 - D_B/(|A||B|) +
(mean multiplier over A). Newton steps on the dual use conjugate gradients
with Hessian-vector products evaluated by subtree-sum and path-accumulate
passes over the tree, so each iteration is O(#blocks + N). Both passes are
products with the tree's ancestor indicator A (up: A' v, down: A x); no pass
loops over tree levels.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg
from scipy.special import gammaln, logsumexp

from .divergence import carrier_rows, pairwise_divergences, phi_rows

__all__ = [
    "BlockParams",
    "BoundReport",
    "euclidean_block_divergence_sum",
    "block_divergence_sums",
    "optimize_q",
    "lower_bound",
    "exact_loglik",
    "constant_term",
]


# ---------------------------------------------------------------------------
# Decoupled block divergence sums
# ---------------------------------------------------------------------------


def euclidean_block_divergence_sum(stats_a, stats_b, size_a, size_b, spec):
    """Legacy cross-check path for the squared-Euclidean kind only, using
    coordinate sums and squared norms: (|A| T(B) + |B| T(A) - 2 S(A)'S(B)) /
    (2 sigma^2), with T recovered from the x'grad(x) statistic."""
    if spec.kind != "sq-euclidean":
        raise ValueError("legacy form is defined for sq-euclidean only")
    s2 = spec.sigma**2
    ta = s2 * stats_a.s2  # sum of |x|^2 over A
    tb = s2 * stats_b.s2
    return (size_a * tb + size_b * ta - 2.0 * stats_a.s3.dot(stats_b.s3)) / (2.0 * s2)


def block_divergence_sums(tree, partition):
    """D vector over the partition's blocks, in block order: the summed
    divergence from every row of A to every center of B, from the two
    nodes' statistics alone."""
    st, a, b = tree.stats, partition.a, partition.b
    return (
        tree.size[b] * st.s1[a]
        + tree.size[a] * (st.s2[b] - st.s1[b])
        - st.dot34(a, b)
    )


# ---------------------------------------------------------------------------
# Constant term and exact log-likelihood
# ---------------------------------------------------------------------------


def _total_carrier(data, spec, total_phi):
    """Sum of the log carrier over all rows."""
    kind = spec.kind
    n, d = data.n_rows, data.dim
    if kind in ("gid", "kl"):
        stored = float(gammaln(data.csr().data + data.epsilon + 1.0).sum())
        implicit = float((d - data.nnz_per_row()).sum() * gammaln(data.epsilon + 1.0))
        return -(stored + implicit)
    # Gaussian kinds: phi + carrier is one constant per row
    if kind == "sq-euclidean":
        const = -0.5 * d * np.log(2.0 * np.pi * spec.sigma**2)
        return n * const - total_phi
    if kind == "mahalanobis":
        const = -0.5 * d * np.log(2.0 * np.pi) - 0.5 * float(
            np.sum(np.log(spec.covariance_diag / 2.0))
        )
        return n * const - total_phi
    return 0.0


def constant_term(tree):
    """Additive constant of the bound: -N log(N-1) + sum phi + sum carrier."""
    data, spec = tree.data, tree.spec
    if data is None:
        raise ValueError(
            "the bound needs the data rows, which a loaded model does not keep; "
            "audit a saved bound with model_io.reevaluate_bound(model, report)"
        )
    n = data.n_rows
    total_phi = float(tree.stats.s1[tree.root])
    carrier = _total_carrier(data, spec, total_phi)
    return -n * np.log(n - 1) + total_phi + carrier


def exact_loglik(data, spec, cap=8192):
    """Dense kernel-density log-likelihood; test scale only."""
    n = data.n_rows
    if n < 2:
        raise ValueError("exact log-likelihood needs at least 2 points")
    if n > cap:
        raise ValueError(f"exact log-likelihood refused for N={n} > cap={cap}")
    dense = data.to_dense()
    D = pairwise_divergences(spec, dense, dense)
    np.fill_diagonal(D, np.inf)
    lse = logsumexp(-D, axis=1)
    extra = phi_rows(spec, dense) + carrier_rows(spec, dense)
    return float(np.sum(lse + extra) - n * np.log(n - 1))


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
    sweeps: int = 0


@dataclass
class BoundReport:
    ell: float
    constant: float
    d_ab: np.ndarray
    entropy_term: float


class _DualSolver:
    def __init__(self, tree, partition, dvec):
        self.anc = tree.ancestors
        self.anc_t = self.anc.T
        self.n_nodes = tree.n_nodes
        self.a = partition.a
        self.na = tree.size[self.a].astype(np.float64)
        self.nb = tree.size[partition.b].astype(np.float64)
        self.ncells = self.na * self.nb
        self.dbar = dvec / self.ncells
        if not np.all(np.isfinite(self.dbar)):
            raise ValueError("non-finite block divergence sum")
        self.n = tree.n_points

    def up(self, v):
        """Per-block mean of v over the block's row side."""
        return (self.anc_t @ v)[self.a] / self.na

    def log_q(self, lam):
        return np.minimum(-1.0 - self.dbar + self.up(lam), 700.0)

    def q_of(self, lam):
        return np.exp(self.log_q(lam))

    def scatter_down(self, weights):
        """Per-row sums of block weights over the blocks covering the row."""
        return self.anc @ np.bincount(self.a, weights, minlength=self.n_nodes)

    def residual(self, q):
        return self.scatter_down(self.nb * q)

    def hessp(self, q, v):
        return self.scatter_down(self.nb * q * self.up(v))

    def dual_value(self, lam, q):
        return float(self.ncells @ q - lam.sum())

    def init_lam(self):
        acc = np.full(self.n_nodes, np.inf)
        np.minimum.at(acc, self.a, self.dbar)
        # per-row minimum over the root path; every row has its leaf
        return 1.0 + np.minimum.reduceat(acc[self.anc.indices], self.anc.indptr[:-1])


def optimize_q(tree, partition, spec=None, data=None, tol=1e-10, max_sweeps=10_000):
    """Maximize the bound under the per-datapoint sum-to-one constraints.

    The objective is strictly concave on the feasible polytope, so the
    optimum is unique; convergence is declared when every datapoint's
    constraint residual is within `tol`. Non-convergence is flagged on the
    result, never silently accepted.
    """
    dvec = block_divergence_sums(tree, partition)
    solver = _DualSolver(tree, partition, dvec)
    lam = solver.init_lam()
    q = solver.q_of(lam)
    sweeps = 0
    converged = False
    res = np.inf
    for sweeps in range(1, max_sweeps + 1):
        r = solver.residual(q)
        g = r - 1.0
        res = float(np.max(np.abs(g)))
        if res <= tol:
            converged = True
            break
        diag = solver.scatter_down(solver.nb * q / solver.na)
        diag = np.maximum(diag, 1e-300)
        op = LinearOperator(
            (solver.n, solver.n), matvec=lambda v: solver.hessp(q, v)
        )
        pre = LinearOperator((solver.n, solver.n), matvec=lambda v: v / diag)
        cg_rtol = min(0.1, np.sqrt(res))
        step, info = cg(op, -g, rtol=cg_rtol, atol=0.0, M=pre, maxiter=400)
        if info != 0 or not np.all(np.isfinite(step)):
            step = -g / diag
        # full step when it contracts the residual (local Newton phase; the
        # dual value itself flattens into rounding noise near the optimum),
        # else Armijo backtracking on the dual (global phase)
        trial = lam + step
        q_t = solver.q_of(trial)
        if np.max(np.abs(solver.residual(q_t) - 1.0)) < res:
            lam = trial
            q = q_t
            continue
        f0 = solver.dual_value(lam, q)
        slope = float(g @ step)
        t = 1.0
        while True:
            trial = lam + t * step
            q_t = solver.q_of(trial)
            if solver.dual_value(trial, q_t) <= f0 + 1e-4 * t * slope:
                lam = trial
                q = q_t
                break
            t *= 0.5
            if t < 1e-18:
                break
        if t < 1e-18:
            break  # no progress possible at working precision
    if not converged:
        r = solver.residual(q)
        res = float(np.max(np.abs(r - 1.0)))
        converged = res <= tol
    if not converged:
        warnings.warn(
            f"optimizer stopped after {sweeps} sweeps with residual {res:.3e}",
            RuntimeWarning,
        )
    logq = solver.log_q(lam)
    return BlockParams(
        values=np.exp(logq),
        log_values=logq,
        converged=bool(converged),
        residual=res,
        sweeps=sweeps,
    )


def lower_bound(params, partition, tree, spec=None, data=None):
    """Evaluate the bound exactly for given block parameters."""
    dvec = block_divergence_sums(tree, partition)
    q = params.values
    ncells = (tree.size[partition.a] * tree.size[partition.b]).astype(np.float64)
    qd = float(dvec @ q)
    entropy = float(np.sum(ncells * q * params.log_values))
    c = constant_term(tree)
    return BoundReport(ell=c - qd - entropy, constant=c, d_ab=dvec, entropy_term=entropy)


def constraint_residuals(tree, partition, params):
    """Per-datapoint deviation of sum |B| q_B from 1."""
    solver = _DualSolver(tree, partition, np.zeros(partition.n_blocks))
    return solver.residual(params.values) - 1.0
