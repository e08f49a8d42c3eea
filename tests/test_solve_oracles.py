"""The numpy-only triangular solves against scipy.linalg references.

The runtime solves with numpy alone; scipy is a test dependency and serves
here as the independent oracle.  The OLS back-substitution must equal
``solve_triangular`` exactly on the fixture and to rounding on random
designs.  The posterior draws must match the Cholesky-solve construction
(``cho_solve`` for the mean, ``solve_triangular`` for the draws) applied to
the same seeded normals and inverse-gammas.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

import streams
import twinreg as T

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "loanloss_quarterly.csv"


@pytest.fixture(scope="module")
def design():
    return T.build_design(T.apply_transforms(T.parse_csv(FIXTURE.read_bytes())))


def reference_beta(X, y):
    Q, R = np.linalg.qr(X)
    return solve_triangular(R, Q.T @ y)


def reference_draws(d, prior, draws, seed):
    """Posterior draws built with scipy's Cholesky solves from the same stream."""
    X, y = d.X, d.y
    n, p = X.shape
    resid = y - X @ reference_beta(X, y)
    s2_ols = float(resid @ resid) / (n - p)
    xbar = np.zeros(p)
    xbar[1:] = X[:, 1:].mean(axis=0)
    Z = X - xbar
    lam0 = s2_ols / prior.coef_sd**2
    mu0 = prior.coef_mean
    A = Z.T @ Z + np.diag(lam0)
    L = np.linalg.cholesky(A)
    mu_n = cho_solve((L, True), Z.T @ y + lam0 * mu0)
    a_n = prior.sigma2_shape + 0.5 * n
    b_n = prior.sigma2_shape * s2_ols + 0.5 * (
        float(y @ y) + float(mu0 * lam0 @ mu0) - float(mu_n @ (A @ mu_n))
    )
    rs = T.RandomSource(seed)
    sigma2 = rs.inverse_gammas(draws, a_n, b_n)
    z = streams.normals(rs, draws * p).reshape(draws, p)
    w = solve_triangular(L, z.T, lower=True, trans="T")
    beta_c = mu_n[:, None] + np.sqrt(sigma2)[None, :] * w
    beta = beta_c.T.copy()
    beta[:, 0] = beta_c[0, :] - beta_c[1:, :].T @ xbar[1:]
    return beta, sigma2


class TestQrSolve:
    def test_bitwise_equal_on_fixture(self, design):
        beta = T.fit_ols(design).estimates
        assert np.array_equal(beta, reference_beta(design.X, design.y))

    def test_random_designs_agree_to_rounding(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(10, 60))
            p = int(rng.integers(2, 9))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
            y = rng.normal(size=n)
            names = tuple(f"x{j}" for j in range(p))
            beta = T.fit_ols(T.DesignMatrix(X=X, y=y, names=names)).estimates
            ref = reference_beta(X, y)
            assert np.max(np.abs(beta - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestSamplePosteriorOracle:
    @pytest.mark.parametrize("seed", [1, 42, 2024])
    def test_fixture_draws_match_cholesky_solves(self, design, seed):
        prior = T.default_prior(design)
        post = T.sample_posterior(design, T.fit_ols(design), prior, 5000, T.RandomSource(seed))
        beta, sigma2 = reference_draws(design, prior, 5000, seed)
        sd = beta.std(axis=0)
        assert np.all(np.max(np.abs(post.beta - beta), axis=0) <= 1e-12 * sd)
        assert np.allclose(post.sigma2, sigma2, rtol=1e-12, atol=0.0)

    def test_random_design_with_tight_prior(self):
        rng = np.random.default_rng(8)
        n, p = 30, 5
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        y = X @ np.arange(1.0, p + 1.0) + rng.normal(size=n)
        d = T.DesignMatrix(X=X, y=y, names=tuple(f"x{j}" for j in range(p)))
        prior = T.default_prior(d, coef_sd=0.05)
        post = T.sample_posterior(d, T.fit_ols(d), prior, 4000, T.RandomSource(3))
        beta, _ = reference_draws(d, prior, 4000, 3)
        sd = beta.std(axis=0)
        assert np.all(np.max(np.abs(post.beta - beta), axis=0) <= 1e-12 * sd)
