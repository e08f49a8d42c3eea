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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import DataError
from .kernels import RandomSource, median_of_sorted, run_parallel, worker_count
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
    y = d.y
    p = d.p
    sd_y = _sd(y, "response")
    mean = np.zeros(p)
    mean[0] = float(np.mean(y))
    if coef_sd is not None:
        if coef_sd <= 0:
            raise DataError("coef_sd override must be strictly positive")
        sds = np.full(p, float(coef_sd))
    else:
        sds = np.empty(p)
        sds[0] = 2.5 * sd_y
        for j in range(1, p):
            sd_x = _sd(d.X[:, j], f"regressor {d.names[j]!r}")
            if sd_x == 0.0:
                raise DataError(
                    f"regressor {d.names[j]!r} is constant; cannot auto-scale its prior"
                )
            sds[j] = 2.5 * sd_y / sd_x
    return PriorSpec(
        coef_mean=mean,
        coef_sd=sds,
        sigma2_shape=sigma2_shape,
        sigma2_scale=sigma2_scale,
    )


def _sd(x: np.ndarray, what: str) -> float:
    """Sample sd of x (n-1 denominator); a typed error if its squares overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(x, ddof=1))
    if not math.isfinite(sd):
        raise DataError(f"{what} too large: its variance overflows a double")
    return sd


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
    X, y = d.X, d.y
    n, p = X.shape
    prior.validate(p)

    # the OLS residual variance of this design sets the natural-unit prior scaling
    s2_ols = fit.sigma2_hat
    if s2_ols <= 0.0:
        s2_ols = max(float(np.var(y, ddof=1)), 1e-300)

    xbar = np.zeros(p)
    xbar[1:] = X[:, 1:].mean(axis=0)
    Z = X - xbar

    with np.errstate(over="ignore"):  # an sd whose square overflows: precision 0, a flat prior
        lam0 = s2_ols / prior.coef_sd**2
    mu0 = prior.coef_mean
    A = Z.T @ Z + np.diag(lam0)
    # A = L L' so A^-1 = U_inv U_inv' with U_inv = (L')^-1, a single p x p inverse
    U_inv = np.linalg.inv(np.linalg.cholesky(A).T)
    mu_n = U_inv @ (U_inv.T @ (Z.T @ y + lam0 * mu0))

    a_n = prior.sigma2_shape + 0.5 * n
    b0 = (
        prior.sigma2_scale
        if prior.sigma2_scale is not None
        else prior.sigma2_shape * s2_ols
    )
    with np.errstate(over="ignore", invalid="ignore"):
        b_n = b0 + 0.5 * (
            float(y @ y) + float(mu0 * lam0 @ mu0) - float(mu_n @ (A @ mu_n))
        )
    if not math.isfinite(b_n):
        raise DataError("response too large: the posterior scale overflows a double")
    if b_n <= 0.0:
        raise DataError(f"posterior scale collapsed to {b_n}; check the prior spec")

    sigma2 = rs.inverse_gammas(draws, a_n, b_n)

    def to_draws(z, dst, rows):
        # row k is mu_n + sqrt(sigma2_k) * U_inv z_k, i.e. L' w_k = z_k; the
        # block is worked in C order and then copied into the columns: with
        # a column-major out=, matmul runs a transposed GEMM whose bits differ
        block = z @ U_inv.T
        block *= np.sqrt(sigma2[rows])[:, None]
        block += mu_n
        block[:, 0] -= block[:, 1:] @ xbar[1:]
        dst[...] = block

    beta = np.empty((draws, p), order="F")
    rs.normal_rows(beta, to_draws)
    return PosteriorDraws(beta=beta, sigma2=sigma2, names=d.names)


def rope_bounds(loss: Sequence[float]) -> tuple[float, float]:
    """Region of practical equivalence: +/- sd(loss)/10 (n-1 denominator)."""
    x = np.asarray(loss, dtype=float)
    if len(x) < 2:
        raise ValueError("rope_bounds needs at least 2 values")
    high = float(np.std(x, ddof=1)) / 10.0
    return -high, high


class _SortedColumn(np.ndarray):
    """A column buffer that ``summarize_posterior`` has just sorted."""


def _ascending(draws: Sequence[float]) -> np.ndarray:
    """draws as an ascending float array; only a _SortedColumn skips the check."""
    if isinstance(draws, _SortedColumn):
        return draws
    x = np.asarray(draws, dtype=float)
    if not (x[1:] >= x[:-1]).all():
        x = np.sort(x)
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
    x = _ascending(draws)
    if len(x) < 100:
        raise ValueError(f"credible_interval needs at least 100 draws, got {len(x)}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    alpha = (1.0 - level) / 2.0
    return _quantile(x, alpha), _quantile(x, 1.0 - alpha)


def hdi_interval(draws: Sequence[float], level: float) -> tuple[float, float]:
    """Highest-density interval: the shortest window holding the target mass."""
    x = _ascending(draws)
    if len(x) < 100:
        raise ValueError(f"hdi_interval needs at least 100 draws, got {len(x)}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    n = len(x)
    m = int(math.ceil(level * n))
    if m >= n:
        return float(x[0]), float(x[-1])
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

    Each column is sorted once; every number is then read from that copy,
    a ``_SortedColumn`` the interval and PIROPE use without checking its order.
    Columns are sorted a round at a time, one column per worker thread
    (``kernels.worker_count``: columns too short to give each thread its
    slices are all sorted on the calling thread).  Each worker copies its
    column into the one buffer it keeps for the whole call and sorts it
    there.  The interval, median and PIROPE of a round's columns are read on
    the calling thread, before the next round reuses the buffers.
    """
    rope = rope_bounds(loss)
    interval = hdi_interval if use_hdi else credible_interval
    draws, p = post.beta.shape
    bufs = [np.empty(draws).view(_SortedColumn) for _ in range(worker_count(p, draws))]
    out = []
    for j0 in range(0, p, len(bufs)):
        cols = range(j0, min(j0 + len(bufs), p))
        run_parallel([partial(_sort_into, buf, post.beta[:, j]) for buf, j in zip(bufs, cols)])
        for ranked, j in zip(bufs, cols):
            lo, hi = interval(ranked, level)
            out.append(
                PosteriorSummary(
                    name=post.names[j],
                    draws=post.beta[:, j],
                    median=median_of_sorted(ranked),
                    ci_low=lo,
                    ci_high=hi,
                    ci_midpoint=0.5 * (lo + hi),
                    level=level,
                    rope_low=rope[0],
                    rope_high=rope[1],
                    pirope=pirope(ranked, (lo, hi), rope),
                )
            )
    return out


def _sort_into(buf: np.ndarray, col: np.ndarray) -> None:
    """Sort a copy of col in buf, the column buffer a worker reuses."""
    np.copyto(buf, col)
    buf.sort()
