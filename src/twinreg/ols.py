"""Frequentist engine: OLS fit with inference and assumption diagnostics.

The fit solves the least-squares problem through a Householder QR
factorization rather than the normal equations; the fixture design is
ill-conditioned (a near-constant ratio column with a coefficient in the
hundreds) and QR keeps the solve accurate.  Standard errors come from the
triangular factor:

    (X'X)^-1 = R^-1 R^-T,   se_j = sqrt(sigma2_hat * [(X'X)^-1]_jj)

with sigma2_hat = RSS / (n - p) and two-sided t tails for p-values.  The fit
keeps Q, R and that diagonal, so the diagnostics factor nothing again: the
VIFs come from the diagonal and Breusch-Pagan back-substitutes against Q, R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ModelFrame, read_only
from .errors import DataError, SingularDesignError
from .kernels import SQUARES_MIN, chi2_sf, student_t_sf2

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
    xtx_inv_diag: np.ndarray  # diagonal of (X'X)^-1
    q: np.ndarray  # thin QR factors of the design, reused by diagnostics
    r: np.ndarray


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
    # describe and the prior refuse such a column too (each row's sd has the
    # bits of describe's); once its squares underflow, _factor cannot see it
    rows = np.stack(cols)
    with np.errstate(over="ignore", invalid="ignore"):
        sd = np.std(rows, axis=1, ddof=1)
        tiny = np.flatnonzero((sd * sd < SQUARES_MIN) & (rows.min(axis=1) < rows.max(axis=1)))
    if tiny.size:
        name = frame.names[tiny[0]]
        raise DataError(f"regressor {name!r} too small: its variance underflows a double")
    X = np.column_stack([np.ones(n)] + cols)
    return read_only(
        DesignMatrix(X=X, y=frame.loss.astype(float), names=(INTERCEPT_NAME,) + frame.names)
    )


def _factor(X: np.ndarray, names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factors of X, with a rank check on R's diagonal.

    Each |R_jj| is compared with column j's own norm, so one column's scale
    cannot make another look dependent on the preceding ones.
    """
    with np.errstate(over="ignore"):
        sumsq = np.einsum("ij,ij->j", X, X)
    over = np.nonzero(~np.isfinite(sumsq))[0]
    if over.size:
        raise DataError(
            f"regressor {names[over[0]]!r} too large: its sum of squares overflows a double"
        )
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

    Q, R = _factor(X, d.names)
    df_resid = n - p
    with np.errstate(over="ignore", invalid="ignore"):
        r_inv = np.linalg.solve(R, np.eye(p))
        xtx_inv_diag = np.sum(r_inv * r_inv, axis=1)
        beta = _back_substitute(Q, R, y)
        fitted = X @ beta
        resid = y - fitted
        rss = float(resid @ resid)
        sst = float(np.sum((y - y.mean()) ** 2))
        sigma2 = rss / df_resid
        se = np.sqrt(sigma2 * xtx_inv_diag)
    # a tiny R_jj can blow up row j of R^-1 and the rows above it, never the
    # rows below, so the last non-finite entry names the column
    over = np.flatnonzero(~np.isfinite(xtx_inv_diag))
    if over.size:
        raise DataError(
            f"regressor {d.names[over[-1]]!r} too small: "
            "the inverse of its sum of squares overflows a double"
        )
    # a finite se needs a finite rss; sst is the largest sum of squares
    if not (math.isfinite(sst) and np.isfinite(se).all()):
        raise DataError("response too large: its sums of squares overflow a double")
    if sst < SQUARES_MIN or (rss < SQUARES_MIN and resid.any()):
        raise DataError("response too small: its sums of squares underflow a double")

    with np.errstate(divide="ignore", invalid="ignore"):
        t = beta / se
    t = np.where(np.isnan(t), 0.0, t)
    pvals = np.array([student_t_sf2(float(tj), df_resid) for tj in t])

    # y is not constant, so sst > 0
    r2 = 1.0 - rss / sst
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - p)

    fit = OlsFit(
        names=d.names,
        estimates=beta,
        std_errors=se,
        t_stats=t,
        p_values=pvals,
        residuals=resid,
        fitted=fitted,
        sigma2_hat=sigma2,
        r2=r2,
        adj_r2=adj_r2,
        df_resid=df_resid,
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
    X = d.X
    n, p = X.shape
    e = fit.residuals

    # with an intercept in the design, VIF_j = SST_j * [(X'X)^-1]_jj
    sst = [float(np.sum((X[:, j] - X[:, j].mean()) ** 2)) for j in range(p)]
    vif = {d.names[j]: sst[j] * float(fit.xtx_inv_diag[j]) for j in range(1, p)}

    # e^2 and e^4 can overflow where the fit's own sums did not
    with np.errstate(over="ignore", invalid="ignore"):
        e2 = e**2
        resid2 = e2 - X @ _back_substitute(fit.q, fit.r, e2)
        rss2 = float(resid2 @ resid2)
        tss2 = float(np.sum((e2 - e2.mean()) ** 2))
        ec = e - e.mean()
        m2, m3, m4 = (float(np.mean(ec**k)) for k in (2, 3, 4))
        diff2 = float(np.sum(np.diff(e) ** 2))
    if not all(math.isfinite(v) for v in (rss2, tss2, m2, m3, m4, diff2)):
        raise DataError("residuals too large: their squares or fourth powers overflow a double")
    if m4 < SQUARES_MIN and ec.any():
        raise DataError("residuals too small: their fourth powers underflow a double")

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
        mean_resid=float(e.mean()),
        advisories=tuple(advisories),
    )
