"""Frequentist engine: OLS fit with inference and assumption diagnostics.

The fit solves the least-squares problem through a Householder QR
factorization rather than the normal equations; the fixture design is
ill-conditioned (a near-constant ratio column with a coefficient in the
hundreds) and QR keeps the solve accurate.  Standard errors come from the
triangular factor:

    (X'X)^-1 = R^-1 R^-T,   se_j = sqrt(sigma2_hat * [(X'X)^-1]_jj)

with sigma2_hat = RSS / (n - p) and two-sided t tails for p-values.  The fit
runs on X and y with each column scaled by the power of two that brings its
largest |value| into [0.5, 1), an exact equilibration under which no sum of
squares over- or underflows, and returns its loss-unit numbers through the
output rule ``kernels.scaled_back``.  It keeps those exponents and the Q, R
and diagonal of the scaled design, so the diagnostics and the sampler decide
no scale and factor nothing again: the VIFs come from the diagonal and
Breusch-Pagan back-substitutes against Q, R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ModelFrame, read_only
from .errors import DataError, SingularDesignError
from .kernels import chi2_sf, scale_exponent, scaled_back, student_t_sf2

INTERCEPT_NAME = "(Intercept)"

_RANK_TOL = 1e-10


@dataclass
class DesignMatrix:
    X: np.ndarray
    y: np.ndarray
    names: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass
class OlsFit:
    names: tuple[str, ...]
    estimates: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    residuals: np.ndarray
    fitted: np.ndarray
    sigma2_hat: float
    r2: float
    adj_r2: float
    df_resid: int
    x_exp: np.ndarray  # the fit ran on X * 2**-x_exp, column by column,
    y_exp: int  # and on y * 2**-y_exp; the fields below belong to that scale
    xtx_inv_diag: np.ndarray  # diagonal of (X'X)^-1
    q: np.ndarray  # thin QR factors, reused by diagnostics
    r: np.ndarray

    def scaled_design(self, d: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
        """X and y of d at the scale this fit ran on."""
        return np.ldexp(d.X, -self.x_exp), np.ldexp(d.y, -self.y_exp)


@dataclass
class Diagnostics:
    vif: dict[str, float]
    bp_stat: float
    bp_p: float
    jb_stat: float
    jb_p: float
    dw_stat: float
    mean_resid: float
    advisories: tuple[str, ...]


def build_design(frame: ModelFrame) -> DesignMatrix:
    """Design with columns [1, Month, Year, AdjPop, Ratio, APLIR, FFR, ExpClaims]."""
    n = len(frame)
    cols = frame.regressor_columns()
    p = len(cols) + 1
    if n <= p:
        raise DataError(
            f"insufficient data: need more rows than parameters (n={n}, p={p})"
        )
    X = np.column_stack([np.ones(n)] + cols)
    return read_only(
        DesignMatrix(X=X, y=frame.loss.astype(float), names=(INTERCEPT_NAME,) + frame.names)
    )


def _factor(X: np.ndarray, names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factors of X, with a rank check on R's diagonal.

    Each |R_jj| is compared with column j's own norm, so one column's scale
    cannot make another look dependent on the preceding ones.
    """
    sumsq = np.einsum("ij,ij->j", X, X)
    Q, R = np.linalg.qr(X)
    bad = np.nonzero(np.abs(np.diag(R)) <= _RANK_TOL * np.sqrt(sumsq))[0]
    if bad.size:
        j = int(bad[0])
        raise SingularDesignError(
            f"design is rank deficient: column {names[j]!r} is linearly "
            "dependent on the preceding columns",
            column=names[j],
        )
    return Q, R


def _back_substitute(Q: np.ndarray, R: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares solution of R beta = Q'y, row by row from the last."""
    qty = Q.T @ y
    beta = np.empty_like(qty)
    for i in range(R.shape[0] - 1, -1, -1):
        beta[i] = (qty[i] - R[i, i + 1 :] @ beta[i + 1 :]) / R[i, i]
    return beta


def fit_ols(d: DesignMatrix) -> OlsFit:
    X, y = d.X, d.y
    n, p = X.shape
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DataError("design matrix and response must be finite")
    if n <= p:
        raise DataError(f"need n > p for residual inference (n={n}, p={p})")
    if y.min() == y.max():
        raise DataError(f"response is constant ({float(y[0])!r}); there is nothing to explain")

    x_exp, y_exp = scale_exponent(X, axis=0), int(scale_exponent(y))
    X, y = np.ldexp(X, -x_exp), np.ldexp(y, -y_exp)
    Q, R = _factor(X, d.names)
    df_resid = n - p
    r_inv = np.linalg.solve(R, np.eye(p))
    xtx_inv_diag = np.sum(r_inv * r_inv, axis=1)
    beta = _back_substitute(Q, R, y)
    fitted = X @ beta
    resid = y - fitted
    rss = float(resid @ resid)
    sst = float(np.sum((y - y.mean()) ** 2))
    sigma2 = rss / df_resid
    se = np.sqrt(sigma2 * xtx_inv_diag)

    with np.errstate(divide="ignore", invalid="ignore"):
        t = beta / se
    t = np.where(np.isnan(t), 0.0, t)
    pvals = np.array([student_t_sf2(float(tj), df_resid) for tj in t])

    # y is not constant, so sst > 0
    r2 = 1.0 - rss / sst
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - p)

    coef_exp = y_exp - x_exp
    fit = OlsFit(
        names=d.names,
        estimates=scaled_back(beta, coef_exp, [f"estimate of {c!r}" for c in d.names]),
        std_errors=scaled_back(se, coef_exp, [f"std error of {c!r}" for c in d.names]),
        t_stats=t,
        p_values=pvals,
        residuals=scaled_back(resid, y_exp, "residuals"),
        fitted=scaled_back(fitted, y_exp, "fitted values"),
        sigma2_hat=float(scaled_back(sigma2, 2 * y_exp, "sigma2_hat")),
        r2=r2,
        adj_r2=adj_r2,
        df_resid=df_resid,
        x_exp=x_exp,
        y_exp=y_exp,
        xtx_inv_diag=xtx_inv_diag,
        q=Q,
        r=R,
    )
    return read_only(fit)


def diagnostics(d: DesignMatrix, fit: OlsFit, vif_cutoff: float = 10.0) -> Diagnostics:
    """VIF, Breusch-Pagan, Jarque-Bera, Durbin-Watson, and residual mean.

    Advisory messages are collected (not raised) when max VIF reaches the
    cutoff or Durbin-Watson leaves [1.5, 2.5].
    """
    X = fit.scaled_design(d)[0]
    n, p = X.shape
    e_exp = int(scale_exponent(fit.residuals))
    e = np.ldexp(fit.residuals, -e_exp)

    # with an intercept in the design, VIF_j = SST_j * [(X'X)^-1]_jj
    sst = [float(np.sum((X[:, j] - X[:, j].mean()) ** 2)) for j in range(p)]
    vif = {d.names[j]: sst[j] * float(fit.xtx_inv_diag[j]) for j in range(1, p)}

    e2 = e**2
    resid2 = e2 - X @ _back_substitute(fit.q, fit.r, e2)
    rss2 = float(resid2 @ resid2)
    tss2 = float(np.sum((e2 - e2.mean()) ** 2))
    ec = e - e.mean()
    m2, m3, m4 = (float(np.mean(ec**k)) for k in (2, 3, 4))
    diff2 = float(np.sum(np.diff(e) ** 2))

    # Breusch-Pagan LM: n times the R^2 of e^2 regressed on the full design
    bp_stat = n * (1.0 - rss2 / tss2) if tss2 > 0.0 else 0.0
    bp_p = chi2_sf(bp_stat, p - 1)

    if m2 > 0.0:
        skew = m3 / m2**1.5
        kurt = m4 / m2**2
    else:
        skew, kurt = 0.0, 3.0
    jb_stat = n / 6.0 * (skew**2 + 0.25 * (kurt - 3.0) ** 2)
    jb_p = chi2_sf(jb_stat, 2.0)

    denom = float(e @ e)
    dw = diff2 / denom if denom > 0.0 else 0.0

    advisories = []
    worst = max(vif, key=lambda k: vif[k])
    if vif[worst] >= vif_cutoff:
        advisories.append(
            f"multicollinearity: VIF {vif[worst]:.1f} for {worst} exceeds {vif_cutoff:g}"
        )
    if not 1.5 <= dw <= 2.5:
        advisories.append(f"autocorrelation: Durbin-Watson {dw:.2f} outside [1.5, 2.5]")

    return Diagnostics(
        vif=vif,
        bp_stat=float(bp_stat),
        bp_p=float(bp_p),
        jb_stat=float(jb_stat),
        jb_p=float(jb_p),
        dw_stat=dw,
        mean_resid=float(scaled_back(e.mean(), e_exp, "mean_resid")),
        advisories=tuple(advisories),
    )
