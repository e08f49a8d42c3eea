"""Reference values that share no code with twinreg or ``math.lgamma``.

``ln_gamma`` normalizes the hand-written densities the tail tests integrate,
``t_density`` and ``f_density``, so an oracle and the tail under test never
share a log-gamma term.  The
``*_by_mpmath`` tails are 50-digit regularized incomplete betas and gammas at
the exact double arguments the tail under test receives, and
``nig_posterior_by_mpmath`` is the conjugate update to 60 digits from the
doubles the sampler reads.

``numpy_summarize`` and ``numpy_one_way_anova`` are the numpy forms of
``describe.summarize`` and ``describe.one_way_anova`` that the Python-float
forms replaced, copied unchanged under new names: the bit-for-bit oracle
for those.  They share the array output rule and ``f_sf`` with twinreg.
"""

import math
from types import SimpleNamespace
from typing import Hashable, Sequence

import mpmath
import numpy as np

from twinreg.data import ModelFrame
from twinreg.describe import AnovaResult, SummaryRow
from twinreg.errors import DataError
from twinreg.floats import f_sf
from twinreg.kernels import scale_exponent, scaled_back


def ln_gamma_by_recurrence(n_halves: int) -> float:
    """ln Gamma(n_halves / 2) for odd n_halves, built up from Gamma(1/2) = sqrt(pi)."""
    acc = 0.5 * math.log(math.pi)
    z = 0.5
    while z + 1.0 <= n_halves / 2.0 + 1e-9:
        acc += math.log(z)
        z += 1.0
    return acc


def ln_gamma(x: float) -> float:
    """ln Gamma(x): the recurrence at a half-integer x, else 50-digit mpmath."""
    if (2.0 * x) % 2.0 == 1.0:
        return ln_gamma_by_recurrence(int(2.0 * x))
    with mpmath.workdps(50):
        return float(mpmath.loggamma(x))


def t_density(u: float, df: float) -> float:
    """The Student-t density with df degrees of freedom at u."""
    c = math.exp(ln_gamma((df + 1) / 2) - ln_gamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1.0 + u * u / df) ** (-(df + 1) / 2)


def f_density(u: float, d1: float, d2: float) -> float:
    """The F(d1, d2) density at u."""
    c = math.exp(
        ln_gamma((d1 + d2) / 2)
        - ln_gamma(d1 / 2)
        - ln_gamma(d2 / 2)
        + (d1 / 2) * math.log(d1 / d2)
    )
    return c * u ** (d1 / 2 - 1) * (1.0 + d1 * u / d2) ** (-(d1 + d2) / 2)


def _f_tail(f, d1, d2):
    d1, d2 = mpmath.mpf(d1), mpmath.mpf(d2)
    return mpmath.betainc(d2 / 2, d1 / 2, 0, d2 / (d2 + d1 * f), regularized=True)


def t_sf2_by_mpmath(t: float, df: float):
    """P(|T| >= |t|) as I_x(df/2, 1/2) at x = df / (df + t**2), to 50 digits."""
    with mpmath.workdps(50):
        return _f_tail(mpmath.mpf(t) ** 2, 1, df)


def f_sf_by_mpmath(f: float, d1: float, d2: float):
    """P(F >= f) as I_x(d2/2, d1/2) at x = d2 / (d2 + d1 f), to 50 digits."""
    with mpmath.workdps(50):
        return _f_tail(mpmath.mpf(f), d1, d2)


def chi2_sf_by_mpmath(x: float, df: float):
    """P(X >= x) as the regularized upper incomplete gamma Q(df/2, x/2), to 50 digits."""
    with mpmath.workdps(50):
        return mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)


def relative_error(got: float, want) -> float:
    """|got / want - 1| for a double got and a 50-digit want."""
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(got) / want - 1))


def nig_posterior_by_mpmath(d, fit, prior):
    """The Normal-Inverse-Gamma posterior of ``bayes.sample_posterior`` to 60 digits.

    Computed from the doubles the sampler reads, the design and response at
    the fit's scale, on an exactly centered design, with bₙ in the textbook
    form b₀ + (y'y + μ₀'Λ₀μ₀ − μₙ'Λₙμₙ)/2.  Its terms cancel by up to ~320
    digits when Λ₀ nears the largest double, so it works at 400.  Returns a_n and
    b_n at the fit's scale, and ``loc`` and ``scale``, each raw coefficient's
    Student-t marginal (2 a_n degrees of freedom) in its own units: the
    intercept unfolded from the centered one, c'μₙ with
    c = (1, −x̄₁·2**x_exp[0], …).
    """
    X, y = fit.scaled_design(d)
    n, p = X.shape
    with mpmath.workdps(400):
        coef_exp = [int(e) for e in fit.y_exp - fit.x_exp]
        s2 = mpmath.ldexp(fit.sigma2_hat, -2 * fit.y_exp)
        sd = [mpmath.ldexp(v, -e) for v, e in zip(prior.coef_sd.tolist(), coef_exp)]
        lam0 = [s2 / v**2 for v in sd]
        mu0 = [mpmath.ldexp(v, -e) for v, e in zip(prior.coef_mean.tolist(), coef_exp)]
        Z = mpmath.matrix(X.tolist())
        c = mpmath.matrix(1, p)
        c[0] = 1
        for j in range(1, p):
            xbar = mpmath.fsum(Z[:, j]) / n
            c[j] = -xbar * mpmath.ldexp(1, int(fit.x_exp[0]))
            for i in range(n):
                Z[i, j] -= xbar
        A = Z.T * Z + mpmath.diag(lam0)
        zy = Z.T * mpmath.matrix(y.tolist())
        mu_n = mpmath.lu_solve(A, mpmath.matrix([zy[j] + lam0[j] * mu0[j] for j in range(p)]))
        yy = mpmath.fsum(mpmath.mpf(v) ** 2 for v in y.tolist())
        quad = yy + mpmath.fsum(lj * mj**2 for lj, mj in zip(lam0, mu0)) - (mu_n.T * A * mu_n)[0]
        a_n = prior.sigma2_shape + mpmath.mpf(n) / 2
        if prior.sigma2_scale is None:
            b_n = prior.sigma2_shape * s2 + quad / 2
        else:
            b_n = mpmath.ldexp(prior.sigma2_scale, -2 * fit.y_exp) + quad / 2
        cov = A**-1 * (b_n / a_n)  # the marginals' squared scales at the fit's scale
        rows = [c] + [mpmath.matrix([[int(i == j) for i in range(p)]]) for j in range(1, p)]
        loc = [mpmath.ldexp((r * mu_n)[0], e) for r, e in zip(rows, coef_exp)]
        scale = [mpmath.ldexp(mpmath.sqrt((r * cov * r.T)[0]), e) for r, e in zip(rows, coef_exp)]
        return SimpleNamespace(a_n=a_n, b_n=b_n, loc=loc, scale=scale)


def numpy_median_of_sorted(x: np.ndarray):
    """Median along the last axis of ascending rows, bit-identical to ``np.median``."""
    n = x.shape[-1]
    if n % 2:
        return x[..., n // 2]
    return (x[..., n // 2 - 1] + x[..., n // 2]) / 2


def numpy_summarize(frame: ModelFrame) -> list[SummaryRow]:
    """One SummaryRow per variable; sd uses the n-1 denominator."""
    n = len(frame)
    if n == 0:
        raise DataError("cannot summarize an empty frame")
    names = (*frame.names, "Loss")
    cols = np.stack([*frame.regressor_columns(), frame.loss])
    exp = scale_exponent(cols, axis=1)[:, None]
    cols = np.ldexp(cols, -exp)
    ranked = np.sort(cols, axis=1)
    stats = np.column_stack([  # mean, sd, median, min, max
        cols.mean(axis=1), cols.std(axis=1, ddof=1) if n > 1 else np.zeros(len(cols)),
        numpy_median_of_sorted(ranked), ranked[:, 0], ranked[:, -1],
    ])
    what = [[f"{s} of {name!r}" for s in ("mean", "sd", "median", "min", "max")] for name in names]
    rows = scaled_back(stats, exp, what)
    return [SummaryRow(name, *map(float, row)) for name, row in zip(names, rows)]


def numpy_one_way_anova(
    values: Sequence[float],
    groups: Sequence[Hashable],
    label: str = "group",
) -> AnovaResult:
    """F = (SSB/(k-1)) / (SSW/(n-k)); upper-tail p via the F distribution."""
    y = np.asarray(values, dtype=float)
    if len(y) != len(groups):
        raise DataError("values and groups must have equal length")
    code_of: dict[Hashable, int] = {}  # codes follow first appearance
    codes = np.array([code_of.setdefault(g, len(code_of)) for g in groups], dtype=np.intp)
    k, n = len(code_of), len(y)
    if k < 2:
        raise DataError(f"ANOVA needs at least 2 groups, got {k}")
    if n <= k:
        raise DataError(
            f"ANOVA needs more observations than groups (n={n}, k={k})"
        )
    y = np.ldexp(y, -scale_exponent(y))  # F does not depend on the scale
    ssb = 0.0
    ssw = 0.0
    # each group as one contiguous slice, its values in input order
    ys = y[np.argsort(codes, kind="stable")]
    ends = np.cumsum(np.bincount(codes)).tolist()
    grand = y.mean()
    for start, end in zip([0, *ends], ends):
        sub = ys[start:end]
        mean = np.add.reduce(sub) / len(sub)
        ssb += len(sub) * (mean - grand) ** 2
        ssw += float(np.add.reduce(np.square(sub - mean)))
    msb = ssb / (k - 1)
    msw = ssw / (n - k)
    if msw == 0.0:
        f = 0.0 if msb == 0.0 else math.inf
    else:
        with np.errstate(over="ignore"):  # inf: the groups differ beyond a double's range
            f = msb / msw
    return AnovaResult(
        group_label=label,
        k=k,
        n=n,
        f_stat=f,
        df_between=k - 1,
        df_within=n - k,
        p_value=f_sf(f, k - 1, n - k),
    )
