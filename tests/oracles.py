"""Reference values that share no code with twinreg or ``math.lgamma``.

``ln_gamma`` normalizes the hand-written densities the tail tests integrate,
so an oracle and the tail under test never share a log-gamma term.  The
``*_by_mpmath`` tails are 50-digit regularized incomplete betas and gammas at
the exact double arguments the tail under test receives.
"""

import math

import mpmath


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
