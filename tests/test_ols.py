"""Tests for design construction, the least-squares fit, and diagnostics.

The fit oracle is the normal-equations solution computed directly in each
test; p-values are cross-checked against scipy's t distribution, and every
diagnostic is recomputed from its textbook formula.
"""

import math

import numpy as np
import pytest
from scipy import stats

from twinreg import (
    DataError,
    DesignMatrix,
    SingularDesignError,
    apply_transforms,
    build_design,
    diagnostics,
    fit_ols,
    parse_csv,
)

HEADER = "date,loss,total_pop,ratio,aplir,ffr,av_claims"


def random_design(rng, n, p):
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = rng.normal(size=n)
    names = ["(Intercept)"] + [f"x{j}" for j in range(1, p)]
    return DesignMatrix(X=X, y=y, names=tuple(names))


def normal_equation_fit(X, y):
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    resid = y - X @ beta
    sigma2 = float(resid @ resid) / (X.shape[0] - X.shape[1])
    se = np.sqrt(sigma2 * np.diag(np.linalg.inv(xtx)))
    return beta, se, sigma2


def frame_from_rows(rows):
    return apply_transforms(parse_csv(("\n".join([HEADER, *rows]) + "\n").encode()))


class TestBuildDesign:
    def test_columns_and_names(self):
        rng = np.random.default_rng(0)
        rows = []
        dates = [
            "2011-04-01", "2011-07-01", "2011-10-01", "2012-01-01", "2012-04-01",
            "2012-07-01", "2012-10-01", "2013-01-01", "2013-04-01", "2013-07-01",
        ]
        for d in dates:
            rows.append(
                f"{d},{rng.uniform(0.2, 1.5):.4f},{int(rng.integers(3e8, 3.2e8))},"
                f"{rng.uniform(0.96, 0.98):.6f},{rng.uniform(3, 5):.4f},"
                f"{rng.uniform(0.05, 2):.4f},{int(rng.integers(1e6, 4e6))}"
            )
        frame = frame_from_rows(rows)
        d = build_design(frame)
        assert d.names == (
            "(Intercept)", "Month", "Year", "AdjPop", "Ratio", "APLIR", "FFR", "ExpClaims",
        )
        assert d.X.shape == (10, 8)
        assert np.array_equal(d.X[:, 0], np.ones(10))
        assert np.array_equal(d.X[:, 1], frame.month_index.astype(float))
        assert np.array_equal(d.X[:, 7], frame.exp_claims)
        assert np.array_equal(d.y, frame.loss)

    def test_too_few_rows_rejected(self):
        rows = [
            "2011-04-01,0.5,300000000,0.97,3.3,0.10,3000000",
            "2011-07-01,0.6,300100000,0.97,3.4,0.11,2900000",
        ]
        with pytest.raises(DataError):
            build_design(frame_from_rows(rows))


class TestFitOls:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(10, 50))
            p = int(rng.integers(2, 7))
            d = random_design(rng, n, p)
            fit = fit_ols(d)
            beta, se, sigma2 = normal_equation_fit(d.X, d.y)
            assert np.allclose(fit.estimates, beta, rtol=1e-9, atol=1e-11)
            assert np.allclose(fit.std_errors, se, rtol=1e-9)
            assert fit.sigma2_hat == pytest.approx(sigma2, rel=1e-9)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(2)
        d = random_design(rng, 30, 5)
        beta_true = np.array([1.0, -2.0, 0.5, 3.0, -0.25])
        exact = DesignMatrix(X=d.X, y=d.X @ beta_true, names=d.names)
        fit = fit_ols(exact)
        assert np.allclose(fit.estimates, beta_true, atol=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(3)
        d = random_design(rng, 40, 6)
        fit = fit_ols(d)
        assert np.max(np.abs(d.X.T @ fit.residuals)) < 1e-9
        assert fit.fitted == pytest.approx(d.y - fit.residuals)

    def test_p_values_are_two_sided_t(self):
        rng = np.random.default_rng(4)
        d = random_design(rng, 25, 4)
        fit = fit_ols(d)
        for t, p in zip(fit.t_stats, fit.p_values):
            assert p == pytest.approx(2 * stats.t.sf(abs(t), 21), rel=1e-10)

    def test_r2_and_adjusted_r2(self):
        rng = np.random.default_rng(5)
        d = random_design(rng, 30, 4)
        fit = fit_ols(d)
        resid = d.y - d.X @ fit.estimates
        sst = float(np.sum((d.y - d.y.mean()) ** 2))
        r2 = 1.0 - float(resid @ resid) / sst
        assert fit.r2 == pytest.approx(r2, rel=1e-10)
        assert fit.adj_r2 == pytest.approx(1 - (1 - r2) * 29 / 26, rel=1e-10)

    def test_regressor_scaling_equivariance(self):
        rng = np.random.default_rng(6)
        d = random_design(rng, 30, 4)
        scaled = d.X.copy()
        scaled[:, 2] *= 100.0
        fit_a = fit_ols(d)
        fit_b = fit_ols(DesignMatrix(X=scaled, y=d.y, names=d.names))
        assert fit_b.estimates[2] == pytest.approx(fit_a.estimates[2] / 100.0, rel=1e-9)
        assert fit_b.std_errors[2] == pytest.approx(fit_a.std_errors[2] / 100.0, rel=1e-9)
        assert fit_b.t_stats[2] == pytest.approx(fit_a.t_stats[2], rel=1e-9)
        assert fit_b.p_values[2] == pytest.approx(fit_a.p_values[2], rel=1e-9)

    def test_response_scaling_equivariance(self):
        rng = np.random.default_rng(7)
        d = random_design(rng, 30, 4)
        fit_a = fit_ols(d)
        fit_b = fit_ols(DesignMatrix(X=d.X, y=3.0 * d.y, names=d.names))
        assert np.allclose(fit_b.estimates, 3.0 * fit_a.estimates, rtol=1e-9)
        assert np.allclose(fit_b.std_errors, 3.0 * fit_a.std_errors, rtol=1e-9)
        assert fit_b.r2 == pytest.approx(fit_a.r2, rel=1e-12)

    def test_duplicate_column_raises_named_error(self):
        rng = np.random.default_rng(8)
        X = np.column_stack([np.ones(20), rng.normal(size=20)])
        X = np.column_stack([X, X[:, 1]])
        d = DesignMatrix(X=X, y=rng.normal(size=20), names=("(Intercept)", "a", "b"))
        with pytest.raises(SingularDesignError, match="b"):
            fit_ols(d)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_rank_check_is_relative_to_each_column(self, scale):
        # a tiny or huge column is neither dependent nor makes the others look so
        d = random_design(np.random.default_rng(11), 30, 4)
        scaled = d.X.copy()
        scaled[:, 2] *= scale
        fit_b = fit_ols(DesignMatrix(X=scaled, y=d.y, names=d.names))
        assert np.allclose(fit_b.t_stats, fit_ols(d).t_stats, rtol=1e-9)

    def test_zero_column_raises_named_error(self):
        d = random_design(np.random.default_rng(12), 20, 4)
        X = d.X.copy()
        X[:, 2] = 0.0
        with pytest.raises(SingularDesignError, match="x2"):
            fit_ols(DesignMatrix(X=X, y=d.y, names=d.names))

    # a column whose sum of squares overflows: the fit runs on each column at
    # its own power-of-two scale, so it is the fit of that column times
    # 2**-600 (no longer a data error), with x3's coefficient scaled back
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_column_is_named_data_error(self):
        d = random_design(np.random.default_rng(13), 20, 4)
        X = d.X.copy()
        X[0, 3] = 1e200
        fit = fit_ols(DesignMatrix(X=X, y=d.y, names=d.names))
        X[:, 3] = np.ldexp(X[:, 3], -600)
        ref = fit_ols(DesignMatrix(X=X, y=d.y, names=d.names))
        for got, want in ((fit.estimates, ref.estimates), (fit.std_errors, ref.std_errors)):
            assert np.array_equal(got[:3], want[:3])
            assert got[3] == math.ldexp(want[3], -600)
        for field in ("t_stats", "p_values", "residuals", "fitted"):
            assert np.array_equal(getattr(fit, field), getattr(ref, field))
        assert (fit.sigma2_hat, fit.r2) == (ref.sigma2_hat, ref.r2)

    # c = 2**k (a + b) is dependent at any scale; the rank check sees it on
    # the scaled design, so a tiny c is never blamed on its size
    @pytest.mark.parametrize("k", [0, 500, -500, -540, -600, -1000])
    def test_tiny_or_huge_dependent_column_is_named(self, k):
        d = random_design(np.random.default_rng(14), 30, 3)
        c = np.ldexp(d.X[:, 1] + d.X[:, 2], k)
        names = (*d.names, "c")
        with pytest.raises(SingularDesignError, match="'c' is linearly dependent"):
            fit_ols(DesignMatrix(X=np.column_stack([d.X, c]), y=d.y, names=names))

    def test_nonfinite_input_rejected(self):
        rng = np.random.default_rng(9)
        d = random_design(rng, 15, 3)
        bad = d.y.copy()
        bad[4] = np.nan
        with pytest.raises(DataError):
            fit_ols(DesignMatrix(X=d.X, y=bad, names=d.names))

    @pytest.mark.parametrize("level", [0.5, 0.1])
    def test_constant_response_rejected(self, level):
        # 37 copies of 0.1 do not average to exactly 0.1, so their rounded
        # sum of squares is ~7e-33 rather than 0; both levels must be refused
        d = random_design(np.random.default_rng(10), 37, 8)
        with pytest.raises(DataError, match="constant"):
            fit_ols(DesignMatrix(X=d.X, y=np.full(37, level), names=d.names))

    # rss of the response times 2**-480 lies below the normal doubles; the
    # fit runs on y at its own scale, so the t statistics still equal the
    # unscaled fit's (no longer refused) and the estimates scale exactly
    def test_near_exact_fit_whose_residual_squares_underflow_is_refused(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(40), np.arange(40.0), rng.normal(size=40)])
        y = X @ np.array([1.0, 0.5, -2.0]) + 1e-9 * rng.normal(size=40)
        names = ("(Intercept)", "a", "b")
        base = fit_ols(DesignMatrix(X=X, y=y, names=names))
        for k in (-440, -480):
            scaled = fit_ols(DesignMatrix(X=X, y=np.ldexp(y, k), names=names))
            assert np.array_equal(scaled.t_stats, base.t_stats)
            assert np.array_equal(scaled.estimates, np.ldexp(base.estimates, k))
            assert np.array_equal(scaled.residuals, np.ldexp(base.residuals, k))


class TestDiagnostics:
    def test_vif_matches_auxiliary_regressions(self):
        rng = np.random.default_rng(10)
        n = 60
        base = rng.normal(size=n)
        X = np.column_stack([
            np.ones(n),
            base + 0.1 * rng.normal(size=n),
            base + 0.1 * rng.normal(size=n),
            rng.normal(size=n),
        ])
        names = ("(Intercept)", "a", "b", "c")
        d = DesignMatrix(X=X, y=rng.normal(size=n), names=names)
        diag = diagnostics(d, fit_ols(d))
        for j, name in enumerate(names[1:], start=1):
            others = np.delete(X, j, axis=1)
            coef, _, _, _ = np.linalg.lstsq(others, X[:, j], rcond=None)
            resid = X[:, j] - others @ coef
            sst = float(np.sum((X[:, j] - X[:, j].mean()) ** 2))
            r2 = 1.0 - float(resid @ resid) / sst
            assert diag.vif[name] == pytest.approx(1.0 / (1.0 - r2), rel=1e-9)

    def test_durbin_watson_formula(self):
        rng = np.random.default_rng(12)
        d = random_design(rng, 30, 3)
        fit = fit_ols(d)
        diag = diagnostics(d, fit)
        e = fit.residuals
        dw = float(np.sum(np.diff(e) ** 2) / np.sum(e**2))
        assert diag.dw_stat == pytest.approx(dw, rel=1e-12)

    def test_breusch_pagan_lm_formula(self):
        rng = np.random.default_rng(13)
        d = random_design(rng, 40, 4)
        fit = fit_ols(d)
        diag = diagnostics(d, fit)
        e2 = fit.residuals**2
        coef, _, _, _ = np.linalg.lstsq(d.X, e2, rcond=None)
        resid = e2 - d.X @ coef
        r2 = 1.0 - float(resid @ resid) / float(np.sum((e2 - e2.mean()) ** 2))
        lm = 40 * r2
        assert diag.bp_stat == pytest.approx(lm, rel=1e-9)
        assert diag.bp_p == pytest.approx(stats.chi2.sf(lm, 3), rel=1e-9)

    def test_jarque_bera_formula(self):
        rng = np.random.default_rng(14)
        d = random_design(rng, 50, 3)
        fit = fit_ols(d)
        diag = diagnostics(d, fit)
        e = fit.residuals
        m2 = np.mean((e - e.mean()) ** 2)
        skew = np.mean((e - e.mean()) ** 3) / m2**1.5
        kurt = np.mean((e - e.mean()) ** 4) / m2**2
        jb = 50 / 6 * (skew**2 + (kurt - 3) ** 2 / 4)
        assert diag.jb_stat == pytest.approx(jb, rel=1e-9)
        assert diag.jb_p == pytest.approx(stats.chi2.sf(jb, 2), rel=1e-9)

    def test_mean_residual_near_zero(self):
        rng = np.random.default_rng(15)
        d = random_design(rng, 30, 4)
        diag = diagnostics(d, fit_ols(d))
        assert abs(diag.mean_resid) < 1e-12

    def test_collinearity_advisory_fires(self):
        rng = np.random.default_rng(16)
        n = 50
        base = rng.normal(size=n)
        X = np.column_stack([np.ones(n), base + 0.01 * rng.normal(size=n), base])
        d = DesignMatrix(X=X, y=rng.normal(size=n), names=("(Intercept)", "a", "b"))
        diag = diagnostics(d, fit_ols(d))
        assert any("multicollinearity" in a for a in diag.advisories)

    def test_autocorrelation_advisory_fires(self):
        n = 60
        rng = np.random.default_rng(17)
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        # strongly positively autocorrelated response noise
        e = np.cumsum(rng.normal(size=n))
        d = DesignMatrix(X=X, y=e, names=("(Intercept)", "a"))
        diag = diagnostics(d, fit_ols(d))
        assert diag.dw_stat < 1.5
        assert any("Durbin-Watson" in a for a in diag.advisories)

    def test_clean_design_has_no_advisories(self):
        rng = np.random.default_rng(18)
        d = random_design(rng, 200, 3)
        diag = diagnostics(d, fit_ols(d))
        assert diag.advisories == ()

    def test_vif_cutoff_is_configurable(self):
        rng = np.random.default_rng(19)
        d = random_design(rng, 40, 3)
        diag = diagnostics(d, fit_ols(d), vif_cutoff=1.0)
        assert any("multicollinearity" in a for a in diag.advisories)
