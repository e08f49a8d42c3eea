"""Bayesian engine: conjugate Normal-Inverse-Gamma regression with ROPE analysis.

Sampling is exact (i.i.d. draws from the closed-form posterior), not MCMC, so
runs are deterministic given a seed and need no convergence diagnostics.

Model and parameterization
--------------------------
Slope columns are centered before conditioning, following the convention of
weakly-informative reference implementations (rstanarm-style): the intercept
prior applies to the expected response at average predictor values, where
"centered intercept = mean response" is a meaningful default, and the raw
intercept is recovered per draw as alpha_c - sum_j beta_j * xbar_j.

With Z the centered design, the conjugate update for (beta_c, sigma2) is

    Lambda_n = Z'Z + Lambda_0          mu_n = Lambda_n^-1 (Z'y + Lambda_0 mu_0)
    a_n = a_0 + n/2                    b_n = b_0 + (y'y + mu_0'Lambda_0 mu_0
                                                    - mu_n'Lambda_n mu_n)/2

then sigma2 ~ InvGamma(a_n, b_n) and beta_c | sigma2 ~ N(mu_n, sigma2 Lambda_n^-1).

Default priors are auto-scaled from the data: coefficient sd 2.5 * sd(y)/sd(x_j)
(intercept: 2.5 * sd(y) around mean(y)).  Because the conditional prior
covariance is sigma2 * Lambda_0^-1, the prior precision is multiplied by the
OLS residual variance so that those sds are in natural response units rather
than units of sigma.  The sigma2 prior is InvGamma(shape, scale) with shape 1
and, unless overridden, scale auto-set to shape times the OLS residual
variance so the prior scale matches the data scale.

The update runs on Z and y at the power-of-two scale ``ols.fit_ols`` chose,
where no sum of squares over- or underflows; the scale-back is folded into
U_inv's rows and mu_n, and each returned number passes the output rule
``kernels.scaled_back``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .kernels import RandomSource, median_of_sorted, spread
from .kernels import scale_exponent, scaled_back
from .ols import DesignMatrix, OlsFit


@dataclass
class PriorSpec:
    coef_mean: np.ndarray
    coef_sd: np.ndarray
    sigma2_shape: float = 1.0
    sigma2_scale: float | None = None  # None: auto-scale to shape * s2_ols

    def validate(self, p: int) -> None:
        if self.coef_mean.shape != (p,) or self.coef_sd.shape != (p,):
            raise DataError(
                f"prior mean/sd must have length {p}, got "
                f"{self.coef_mean.shape[0]} and {self.coef_sd.shape[0]}"
            )
        if not (self.coef_sd > 0).all():
            raise DataError("prior coefficient sds must be strictly positive")
        for what, v in (("shape", self.sigma2_shape), ("scale", self.sigma2_scale)):
            if v is not None and not 0 < v < math.inf:
                raise DataError(f"sigma2 prior {what} must be finite and positive, got {v}")


@dataclass
class PosteriorDraws:
    """Joint posterior draws: beta is draws-by-p, sigma2 is length draws.

    beta is column-major, so each parameter's draws are contiguous.
    """

    beta: np.ndarray
    sigma2: np.ndarray
    names: tuple[str, ...]


@dataclass
class PosteriorSummary:
    name: str
    draws: np.ndarray
    median: float
    ci_low: float
    ci_high: float
    ci_midpoint: float
    level: float  # the credible level of ci_low .. ci_high
    rope_low: float
    rope_high: float
    pirope: float


def default_prior(
    d: DesignMatrix,
    coef_sd: float | None = None,
    sigma2_shape: float = 1.0,
    sigma2_scale: float | None = None,
) -> PriorSpec:
    """Auto-scaled weakly-informative prior; coef_sd overrides every coefficient sd."""
    # the sds at each column's own power-of-two scale, where no square overflows
    x_exp, y_exp = scale_exponent(d.X, axis=0), int(scale_exponent(d.y))
    y = np.ldexp(d.y, -y_exp)
    sd_y = float(np.std(y, ddof=1))
    mean = np.zeros(d.p)
    mean[0] = scaled_back(np.mean(y), y_exp, f"prior mean of {d.names[0]!r}")
    if coef_sd is not None:
        if coef_sd <= 0:
            raise DataError("coef_sd override must be strictly positive")
        sds = np.full(d.p, float(coef_sd))
    else:
        slopes = np.ldexp(d.X[:, 1:].T, -x_exp[1:, None], order="C")
        sd_x = np.std(slopes, axis=1, ddof=1)
        constant = np.flatnonzero(sd_x == 0.0)
        if constant.size:
            name = d.names[constant[0] + 1]
            raise DataError(f"regressor {name!r} is constant; cannot auto-scale its prior")
        sds = scaled_back(
            np.append(2.5 * sd_y, 2.5 * sd_y / sd_x),
            np.append(y_exp, y_exp - x_exp[1:]),
            [f"prior sd of {c!r}" for c in d.names],
        )
    return PriorSpec(
        coef_mean=mean,
        coef_sd=sds,
        sigma2_shape=sigma2_shape,
        sigma2_scale=sigma2_scale,
    )


def sample_posterior(
    d: DesignMatrix,
    fit: OlsFit,
    prior: PriorSpec,
    draws: int,
    rs: RandomSource,
) -> PosteriorDraws:
    """Exact draws from the conjugate posterior; see the module docstring."""
    if draws < 1000:
        raise ValueError(f"draws must be at least 1000, got {draws}")
    X, y = fit.scaled_design(d)
    n, p = X.shape
    prior.validate(p)
    y_exp = fit.y_exp
    coef_exp = y_exp - fit.x_exp  # a coefficient at the fit's scale is 2**-coef_exp times it

    # the OLS residual variance of this design sets the natural-unit prior scaling
    s2_ols = math.ldexp(fit.sigma2_hat, -2 * y_exp)
    if s2_ols <= 0.0:
        s2_ols = float(np.var(y, ddof=1))  # > 0: fit_ols refuses a constant response

    xbar = np.zeros(p)
    xbar[1:] = X[:, 1:].mean(axis=0)
    Z = X - xbar

    # at the fit's scale, an sd whose square overflows gives precision 0, a flat
    # prior; a sigma2 scale that overflows, sigma2 draws the output rule refuses
    with np.errstate(over="ignore", divide="ignore"):
        lam0 = s2_ols / np.ldexp(prior.coef_sd, -coef_exp) ** 2
        mu0 = np.ldexp(prior.coef_mean, -coef_exp)
        scale = prior.sigma2_scale
        b0 = prior.sigma2_shape * s2_ols if scale is None else float(np.ldexp(scale, -2 * y_exp))
    if not np.isfinite(lam0).all():  # an sd so small that its precision overflows
        j = int(np.argmin(np.isfinite(lam0)))
        raise DataError(f"prior sd of {d.names[j]!r} too small: {prior.coef_sd[j]:.6g}")
    A = Z.T @ Z + np.diag(lam0)
    # A = L L' so A^-1 = U_inv U_inv' with U_inv = (L')^-1, a single p x p inverse
    U_inv = np.linalg.inv(np.linalg.cholesky(A).T)
    mu_n = U_inv @ (U_inv.T @ (Z.T @ y + lam0 * mu0))

    a_n = prior.sigma2_shape + 0.5 * n
    b_n = b0 + 0.5 * (float(y @ y) + float(mu0 * lam0 @ mu0) - float(mu_n @ (A @ mu_n)))
    if b_n <= 0.0:
        raise DataError(f"posterior scale collapsed to {b_n}; check the prior spec")

    # sigma2 is drawn at 2**-2m of the fit's scale, near 1, and U_inv's rows at
    # 2**m times the units of each coefficient: their product, the spread of
    # the draws, is formed at the scale of the draws themselves
    m = int(scale_exponent(b_n)) // 2
    sigma2 = rs.inverse_gammas(draws, a_n, math.ldexp(b_n, -2 * m))
    what = [f"posterior of {c!r}" for c in d.names]
    mu_n = scaled_back(mu_n, coef_exp, what)
    U_inv = scaled_back(U_inv, (coef_exp + m)[:, None], [[w] for w in what])
    xbar = np.ldexp(xbar, fit.x_exp)

    def to_draws(z, dst, rows):
        # row k is mu_n + sqrt(sigma2_k) * U_inv z_k, i.e. L' w_k = z_k; the
        # block is worked in C order and then copied into the columns: with
        # a column-major out=, matmul runs a transposed GEMM whose bits differ;
        # a draw beyond the doubles is left inf, refused by summarize_posterior
        with np.errstate(over="ignore", invalid="ignore"):
            block = z @ U_inv.T
            block *= np.sqrt(sigma2[rows])[:, None]
            block += mu_n
            block[:, 0] -= block[:, 1:] @ xbar[1:]
        dst[...] = block

    beta = np.empty((draws, p), order="F")
    rs.normal_rows(beta, to_draws)
    # the draws are positive, so the smallest and the largest decide the rule
    exp = 2 * (y_exp + m)
    scaled_back([sigma2.min(), sigma2.max()], exp, "sigma2 draws")
    np.ldexp(sigma2, exp, out=sigma2)
    return PosteriorDraws(beta=beta, sigma2=sigma2, names=d.names)


def rope_bounds(loss: Sequence[float]) -> tuple[float, float]:
    """Region of practical equivalence: +/- sd(loss)/10 (n-1 denominator)."""
    x = np.asarray(loss, dtype=float)
    if len(x) < 2:
        raise ValueError("rope_bounds needs at least 2 values")
    exp = scale_exponent(x)
    high = float(scaled_back(np.std(np.ldexp(x, -exp), ddof=1) / 10.0, exp, "ROPE bound"))
    return -high, high


class _SortedColumn(np.ndarray):
    """A column that ``summarize_posterior`` has just sorted in place."""


def _ascending(draws: Sequence[float]) -> np.ndarray:
    """draws as an ascending float array; only a _SortedColumn skips the check."""
    if isinstance(draws, _SortedColumn):
        return draws
    x = np.asarray(draws, dtype=float)
    if not (x[1:] >= x[:-1]).all():
        x = np.sort(x)
    return x


def _interval_draws(draws: Sequence[float], level: float, name: str) -> np.ndarray:
    """_ascending(draws), once name's checks pass: at least 100 draws and 0 < level < 1."""
    x = _ascending(draws)
    if len(x) < 100:
        raise ValueError(f"{name} needs at least 100 draws, got {len(x)}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    return x


def _quantile(x: np.ndarray, q: float) -> float:
    """numpy's default ("linear") quantile of an ascending column, bit for bit."""
    n = len(x)
    vi = (n - 1) * q
    lo = math.floor(vi)
    if lo >= n - 1:
        return float(x[-1])
    a, b = float(x[lo]), float(x[lo + 1])
    g = vi - lo
    return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g


def credible_interval(draws: Sequence[float], level: float) -> tuple[float, float]:
    """Equal-tailed interval between the (1-level)/2 and 1-(1-level)/2 quantiles."""
    x = _interval_draws(draws, level, "credible_interval")
    alpha = (1.0 - level) / 2.0
    return _quantile(x, alpha), _quantile(x, 1.0 - alpha)


def hdi_interval(draws: Sequence[float], level: float) -> tuple[float, float]:
    """Highest-density interval: the shortest window holding the target mass."""
    x = _interval_draws(draws, level, "hdi_interval")
    n = len(x)
    m = int(math.ceil(level * n))  # level < 1, so m <= n: one window at m = n
    widths = x[m - 1 :] - x[: n - m + 1]
    k = int(np.argmin(widths))
    return float(x[k]), float(x[k + m - 1])


def _count_within(x: np.ndarray, lo: float, hi: float) -> int:
    """Number of entries of the ascending column x inside [lo, hi]."""
    if not lo <= hi:
        return 0
    return int(np.searchsorted(x, hi, "right") - np.searchsorted(x, lo, "left"))


def pirope(
    draws: Sequence[float],
    ci: tuple[float, float],
    rope: tuple[float, float],
) -> float:
    """Percent of the draws inside the CI that also land inside the ROPE."""
    x = _ascending(draws)
    denom = _count_within(x, ci[0], ci[1])
    if denom == 0:
        raise DataError("degenerate credible interval: no draws inside it")
    both = _count_within(x, max(ci[0], rope[0]), min(ci[1], rope[1]))
    return 100.0 * both / denom


def summarize_posterior(
    post: PosteriorDraws,
    loss: Sequence[float],
    level: float = 0.89,
    use_hdi: bool = False,
) -> list[PosteriorSummary]:
    """Per-parameter median, credible interval, ROPE bounds, and PIROPE.

    Sorts each column of ``post.beta`` in place, so its rows are no longer
    joint draws afterwards (copy ``post.beta`` first to keep them), and each
    summary's ``draws`` is its sorted column.  ``kernels.spread`` gives each
    worker thread a contiguous run of columns to sort, and the sorts
    allocate nothing column-sized.  Every number is then read on the calling
    thread from a ``_SortedColumn`` view of its column, which the interval
    and PIROPE use without checking its order.
    """
    rope = rope_bounds(loss)
    interval = hdi_interval if use_hdi else credible_interval
    draws, p = post.beta.shape
    spread(lambda a, b: post.beta[:, a:b].sort(axis=0), p, draws)
    out = []
    for j, name in enumerate(post.names):
        ranked = post.beta[:, j].view(_SortedColumn)
        # the output rule, first on the extremes, which show any draw that
        # is not finite (nan sorts last), so the interval sees none
        scaled_back([ranked[0], ranked[-1]], 0, f"draws of {name!r}")
        lo, hi = interval(ranked, level)
        values = [median_of_sorted(ranked), lo, hi, 0.5 * (lo + hi)]
        what = [f"{v} of {name!r}" for v in ("median", "ci_low", "ci_high", "ci_midpoint")]
        median, lo, hi, mid = map(float, scaled_back(values, 0, what))
        out.append(
            PosteriorSummary(
                name=name,
                draws=post.beta[:, j],
                median=median,
                ci_low=lo,
                ci_high=hi,
                ci_midpoint=mid,
                level=level,
                rope_low=rope[0],
                rope_high=rope[1],
                pirope=pirope(ranked, (lo, hi), rope),
            )
        )
    return out
