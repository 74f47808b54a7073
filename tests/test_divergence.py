import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal, poisson

from blockwalk.dataset import smooth
from blockwalk.divergence import DivergenceSpec, DomainError, ov_phi
from blockwalk.propagation import dense_transition_matrix
from blockwalk.variational import exact_loglik
from blockwalk.vectors import OffsetVec

from conftest import ALL_KINDS, sample_in_domain
from oracles import (
    bregman_divergence,
    carrier_rows,
    grad_phi,
    grad_phi_inv,
    ov_divergence,
    ov_grad,
    ov_xdotgrad,
    pairwise_divergences,
    phi,
    reference_pairwise_divergences,
)
from test_anchor_tree import dense_to_data


GID2 = DivergenceSpec("gid", 2)
SE2 = DivergenceSpec("sq-euclidean", 2, sigma=1.0)


class TestSpec:
    @pytest.mark.parametrize("sigma", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_bandwidth_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma must be > 0 and finite"):
            DivergenceSpec("sq-euclidean", 2, sigma=sigma)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -0.5])
    def test_offset_finite_and_nonnegative(self, eps):
        # nan passed `eps < 0`; the check must name the value it refuses
        with pytest.raises(ValueError, match=f"epsilon must be >= 0 and finite, got {eps}"):
            DivergenceSpec("gid", 2, epsilon=eps)


class TestPhi:
    def test_gid_example(self):
        assert phi(GID2, [1.0, 2.0]) == pytest.approx(-1.613706, abs=1e-6)

    def test_sq_euclidean_example(self):
        assert phi(SE2, [3.0, 4.0]) == pytest.approx(12.5)

    def test_gid_all_ones(self):
        for d in (1, 3, 17):
            spec = DivergenceSpec("gid", d)
            assert phi(spec, np.ones(d)) == pytest.approx(-d)

    def test_domain_violation_reports_index(self):
        spec = DivergenceSpec("itakura-saito", 3)
        with pytest.raises(DomainError) as err:
            phi(spec, [1.0, -2.0, 3.0])
        assert err.value.index == 1

    def test_row_violation_reports_row_and_column(self):
        spec = DivergenceSpec("gid", 3)
        X = np.ones((3, 3))
        X[1, 2] = -1.0
        with pytest.raises(DomainError) as err:
            pairwise_divergences(spec, X, np.ones((2, 3)))
        assert err.value.index == (1, 2)
        X[1, 2] = 0.0  # in gid's domain, outside its relative interior
        pairwise_divergences(spec, X, np.ones((2, 3)))
        with pytest.raises(DomainError) as err:
            pairwise_divergences(spec, np.ones((2, 3)), X)
        assert err.value.index == (1, 2)

    def test_logistic_requires_open_unit_interval(self):
        spec = DivergenceSpec("logistic", 2)
        with pytest.raises(DomainError):
            phi(spec, [0.5, 1.0])

    def test_gid_negative_rejected_zero_allowed(self):
        spec = DivergenceSpec("gid", 2)
        assert phi(spec, [0.0, 1.0]) == pytest.approx(-1.0)
        with pytest.raises(DomainError):
            phi(spec, [-0.1, 1.0])


class TestGrad:
    def test_gid_log(self):
        np.testing.assert_allclose(grad_phi(GID2, [1.0, np.e]), [0.0, 1.0], atol=1e-12)

    def test_sq_euclidean_scaling(self):
        spec = DivergenceSpec("sq-euclidean", 2, sigma=2.0)
        np.testing.assert_allclose(grad_phi(spec, [4.0, 8.0]), [1.0, 2.0])

    def test_mahalanobis_identity(self, rng):
        # phi(x) = x^T Sigma^-1 x is sq-euclidean (sigma=1) on the rows
        # x * sqrt(2 / Sigma); by the chain rule its gradient is 2x at
        # Sigma = I
        spec = DivergenceSpec("sq-euclidean", 2)
        scale = np.sqrt(2.0 / np.ones(2))
        x = rng.normal(size=2)
        np.testing.assert_allclose(scale * grad_phi(spec, x * scale), 2 * x)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_finite_differences(self, kind, rng):
        d = 4
        spec = DivergenceSpec(kind, d)
        for _ in range(20):
            x = sample_in_domain(kind, rng, 1, d)[0]
            g = grad_phi(spec, x)
            h = 1e-6
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                num = (phi(spec, x + e) - phi(spec, x - e)) / (2 * h)
                assert num == pytest.approx(g[j], rel=1e-5, abs=1e-7)


class TestGradInv:
    def test_gid_exp(self):
        np.testing.assert_allclose(grad_phi_inv(GID2, [0.0, 1.0]), [1.0, np.e])

    def test_sq_euclidean(self):
        spec = DivergenceSpec("sq-euclidean", 2, sigma=2.0)
        np.testing.assert_allclose(grad_phi_inv(spec, [1.0, 2.0]), [4.0, 8.0])

    def test_itakura_saito_rejects_nonnegative(self):
        spec = DivergenceSpec("itakura-saito", 2)
        with pytest.raises(DomainError):
            grad_phi_inv(spec, [-1.0, 0.5])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_inverse_composition(self, kind, rng):
        d = 5
        spec = DivergenceSpec(kind, d)
        for _ in range(50):
            x = sample_in_domain(kind, rng, 1, d)[0]
            back = grad_phi_inv(spec, grad_phi(spec, x))
            np.testing.assert_allclose(back, x, atol=1e-10, rtol=1e-10)


class TestBregmanDivergence:
    def test_gid_example(self):
        assert bregman_divergence(GID2, [1.0, 2.0], [2.0, 1.0]) == pytest.approx(
            0.693147, abs=1e-6
        )

    def test_itakura_saito_example(self):
        spec = DivergenceSpec("itakura-saito", 1)
        assert bregman_divergence(spec, [1.0], [2.0]) == pytest.approx(
            0.193147, abs=1e-6
        )

    def test_sq_euclidean_example(self):
        assert bregman_divergence(SE2, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(12.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bregman_divergence(GID2, [1.0, 2.0, 3.0], [1.0, 1.0])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nonnegative_and_zero_at_self(self, kind, rng):
        # 10^4 random in-domain pairs per kind
        d = 6
        spec = DivergenceSpec(kind, d)
        X = sample_in_domain(kind, rng, 100, d)
        Y = sample_in_domain(kind, rng, 100, d)
        D = pairwise_divergences(spec, X, Y)
        assert D.min() >= -1e-12
        for i in range(0, 100, 7):
            assert abs(bregman_divergence(spec, Y[i], Y[i])) <= 1e-12

    def test_euclidean_reduction_exact(self, rng):
        for sigma in (0.5, 1.0, 3.0):
            spec = DivergenceSpec("sq-euclidean", 8, sigma=sigma)
            for _ in range(25):
                x = rng.normal(size=8)
                y = rng.normal(size=8)
                want = np.sum((x - y) ** 2) / (2 * sigma**2)
                assert bregman_divergence(spec, x, y) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_mean_minimizes_expected_divergence(self, kind, rng):
        d = 4
        spec = DivergenceSpec(kind, d)
        X = sample_in_domain(kind, rng, 30, d)
        mu = X.mean(axis=0)
        at_mean = sum(bregman_divergence(spec, x, mu) for x in X)
        for _ in range(100):
            if kind == "sq-euclidean":
                s = mu + rng.normal(0, 0.3, d)
            elif kind == "logistic":
                s = np.clip(mu + rng.normal(0, 0.05, d), 1e-3, 1 - 1e-3)
            else:
                s = mu * rng.uniform(0.7, 1.4, d)
                if kind == "kl":
                    s = s / s.sum() * mu.sum()
            at_s = sum(bregman_divergence(spec, x, s) for x in X)
            assert at_mean <= at_s + 1e-9

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n, m", [(7, 6), (1, 9), (40, 33)])
    def test_pairwise_same_bits_as_one_expression(self, rng, kind, n, m):
        spec = DivergenceSpec(kind, 5)
        X = sample_in_domain(kind, rng, n, 5)
        Y = sample_in_domain(kind, rng, m, 5)
        got = pairwise_divergences(spec, X, Y)
        assert got.tobytes() == reference_pairwise_divergences(spec, X, Y).tobytes()

    def test_pairwise_matches_pointwise(self, rng):
        for kind in ALL_KINDS:
            d = 5
            spec = DivergenceSpec(kind, d)
            X = sample_in_domain(kind, rng, 7, d)
            Y = sample_in_domain(kind, rng, 6, d)
            D = pairwise_divergences(spec, X, Y)
            for i in range(7):
                for j in range(6):
                    assert D[i, j] == pytest.approx(
                        bregman_divergence(spec, X[i], Y[j]), rel=1e-9, abs=1e-12
                    )


class TestKlAsSimplexGid:
    def test_kl_equals_gid_formula_on_simplex(self, rng):
        d = 6
        kl = DivergenceSpec("kl", d)
        for _ in range(20):
            x = rng.uniform(0.05, 1.0, d)
            x /= x.sum()
            y = rng.uniform(0.05, 1.0, d)
            y /= y.sum()
            want = float(np.sum(x * np.log(x / y)))
            assert bregman_divergence(kl, x, y) == pytest.approx(want, abs=1e-12)


class TestCarrier:
    def test_gid_log_factorials(self):
        spec = DivergenceSpec("gid", 3)
        x = np.array([0.0, 1.0, 3.0])
        assert carrier_rows(spec, x[None])[0] == pytest.approx(-np.log(6.0))

    def test_sq_euclidean_constant_with_phi(self, rng):
        # phi + carrier is the Gaussian normalizer, independent of x
        spec = DivergenceSpec("sq-euclidean", 4, sigma=1.7)
        want = -2.0 * np.log(2 * np.pi * 1.7**2)
        for _ in range(5):
            x = rng.normal(size=4)
            assert phi(spec, x) + carrier_rows(spec, x[None])[0] == pytest.approx(want)

    @pytest.mark.parametrize("kind", ["sq-euclidean", "mahalanobis", "gid"])
    def test_kernel_is_the_family_density(self, kind, rng):
        # log p(x | y) = -d(x, y) + phi(x) + log carrier(x): a Gaussian with
        # covariance sigma^2, a product of Poissons for gid; the diagonal
        # Mahalanobis case is sq-euclidean (sigma=1) on the rows
        # x * sqrt(2 / Sigma), a Gaussian with covariance Sigma / 2 once
        # the whitening's log Jacobian is added
        d = 4
        if kind == "mahalanobis":
            cov = rng.uniform(0.5, 2.0, d)
            spec = DivergenceSpec("sq-euclidean", d)
        else:
            cov = None
            spec = DivergenceSpec(kind, d, sigma=1.7)
        for _ in range(5):
            if kind == "gid":
                x = rng.integers(0, 6, d).astype(float)
                y = rng.uniform(0.5, 4.0, d)
                want = float(np.sum(poisson.logpmf(x, y)))
            elif kind == "mahalanobis":
                x, y = rng.normal(size=d), rng.normal(size=d)
                want = multivariate_normal.logpdf(x, y, np.diag(cov / 2))
                scale = np.sqrt(2.0 / cov)
                x, y = x * scale, y * scale
            else:
                x, y = rng.normal(size=d), rng.normal(size=d)
                want = multivariate_normal.logpdf(x, y, spec.sigma**2 * np.eye(d))
            carrier = carrier_rows(spec, x[None])[0]
            got = -bregman_divergence(spec, x, y) + phi(spec, x) + carrier
            if kind == "mahalanobis":
                got += float(np.sum(np.log(scale)))
            assert got == pytest.approx(want, rel=1e-12)

    def test_whitened_rows_are_a_diagonal_gaussian_kernel(self, rng):
        # the kernel exp(-sum_k (x_k - y_k)^2 / S_k) is sq-euclidean at
        # sigma=1 on the rows x * sqrt(2 / S): the same transition matrix,
        # and the exact log-likelihood of a leave-one-out KDE with
        # covariance diag(S / 2) less the whitening's log Jacobian
        n, d = 40, 3
        cov = rng.uniform(0.5, 2.0, d)
        x = rng.normal(0.0, 2.0, (n, d))
        data = smooth(dense_to_data(x * np.sqrt(2.0 / cov)), 0.0)
        spec = DivergenceSpec("sq-euclidean", d)
        logits = -(((x[:, None, :] - x[None, :, :]) ** 2) / cov).sum(axis=2)
        np.fill_diagonal(logits, -np.inf)
        want = np.exp(logits - logits.max(axis=1, keepdims=True))
        want /= want.sum(axis=1, keepdims=True)
        got = dense_transition_matrix(data, spec).p
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        kde = multivariate_normal(np.zeros(d), np.diag(cov / 2))
        logp = np.array([kde.logpdf(x[i] - x) for i in range(n)])
        np.fill_diagonal(logp, -np.inf)
        want = float(np.sum(logsumexp(logp, axis=1)) - n * np.log(n - 1))
        shift = n * np.sum(0.5 * np.log(2.0 / cov))
        assert exact_loglik(data, spec) + shift == pytest.approx(want, rel=1e-12)


class TestOffsetVecKernels:
    @pytest.mark.parametrize("kind", ["sq-euclidean", "gid", "itakura-saito"])
    def test_partial_support_matches_dense(self, kind, rng):
        d = 9
        spec = DivergenceSpec(kind, d, epsilon=0.5)
        idx = np.array([1, 4, 6])
        val = np.array([2.0, 0.5, 3.0])
        v = OffsetVec(d, 0.5, idx, val)
        dense = v.to_dense()
        assert ov_phi(spec, v) == pytest.approx(phi(spec, dense), rel=1e-12)
        g = ov_grad(spec, v)
        np.testing.assert_allclose(g.to_dense(), grad_phi(spec, dense), rtol=1e-12)
        assert ov_xdotgrad(spec, v) == pytest.approx(
            float(dense @ grad_phi(spec, dense)), rel=1e-12
        )

    def test_divergence_matches_dense(self, rng):
        d = 8
        spec = DivergenceSpec("gid", d, epsilon=0.25)
        a = OffsetVec(d, 0.25, np.array([0, 3]), np.array([1.0, 4.0]))
        b = OffsetVec(d, 0.25, np.array([3, 5]), np.array([2.0, 2.0]))
        want = bregman_divergence(spec, a.to_dense(), b.to_dense())
        assert ov_divergence(spec, a, b) == pytest.approx(want, rel=1e-12)

    def test_zero_base_partial_support_raises_for_gid_grad(self):
        spec = DivergenceSpec("gid", 4)
        v = OffsetVec(4, 0.0, np.array([1]), np.array([2.0]))
        with pytest.raises(DomainError):
            ov_grad(spec, v)

    def test_zero_base_full_support_ok(self):
        spec = DivergenceSpec("gid", 2)
        v = OffsetVec(2, 0.0, np.array([0, 1]), np.array([1.0, 2.0]))
        g = ov_grad(spec, v)
        np.testing.assert_allclose(g.to_dense(), [0.0, np.log(2.0)])
