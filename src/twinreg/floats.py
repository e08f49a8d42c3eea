"""Distribution tails, the output rule for one float, and a check that values are finite.

Only the standard library is imported, so ``describe``, ``anova`` and
``aggregate`` run without numpy.  Each tail takes its log-gamma terms from
``math.lgamma``:

* ``reg_inc_beta``  -- continued fraction evaluated by the modified Lentz
                       method, switching via the symmetry relation at
                       x = (a + 1)/(a + b + 2).
* ``chi2_sf``       -- regularized incomplete gamma: power series on the left,
                       Lentz continued fraction on the right.

The F tail is a thin wrapper over the regularized incomplete beta, and the
two-sided Student-t tail is the F(1, df) tail at t**2.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import ConvergenceError, DataError

_CF_EPS = 3e-16
_CF_TINY = 1e-300
_CF_MAX_ITER = 500


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    try:
        ln_gammas = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    except OverflowError:  # lgamma's, past ~2.56e305
        raise ValueError(
            f"reg_inc_beta requires a + b below ~2.56e305, got a={a}, b={b}"
        ) from None
    front = math.exp(ln_gammas + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _lentz_guard(v: float) -> float:
    # modified Lentz: a denominator that vanishes is replaced by a tiny one
    return _CF_TINY if abs(v) < _CF_TINY else v


def _beta_cf(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the standard even/odd continued fraction
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _lentz_guard(1.0 - qab * x / qap)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _lentz_guard(1.0 + aa * d)
        c = _lentz_guard(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _lentz_guard(1.0 + aa * d)
        c = _lentz_guard(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ConvergenceError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def student_t_sf2(t: float, df: float) -> float:
    """Two-sided Student-t tail P(|T| >= |t|) with df degrees of freedom."""
    if not df > 0.0:
        raise ValueError(f"student_t_sf2 requires df > 0, got {df}")
    return f_sf(t * t, 1.0, df)  # T**2 is F(1, df); 1.0 * f and 0.5 * 1.0 are exact


def f_sf(f: float, df1: float, df2: float) -> float:
    """Upper tail of the F distribution, P(F >= f)."""
    if not (df1 > 0.0 and df2 > 0.0):
        raise ValueError(f"f_sf requires positive df, got df1={df1}, df2={df2}")
    if f < 0.0:
        raise ValueError(f"f_sf requires f >= 0, got {f}")
    # f = 0 and f = inf give x = 1 and x = 0, where reg_inc_beta is exact
    return reg_inc_beta(0.5 * df2, 0.5 * df1, df2 / (df2 + df1 * f))


def chi2_sf(x: float, df: float) -> float:
    """Upper tail of the chi-squared distribution, P(X >= x)."""
    if not df > 0.0:
        raise ValueError(f"chi2_sf requires df > 0, got {df}")
    if x < 0.0:
        raise ValueError(f"chi2_sf requires x >= 0, got {x}")
    a, x = 0.5 * df, 0.5 * x  # Q(a, x), the regularized upper incomplete gamma
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    try:
        ln_gamma_a = math.lgamma(a)
    except OverflowError:  # lgamma's, past ~2.56e305
        raise ValueError(f"chi2_sf requires df below ~5.12e305, got df={df}") from None
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x, ln_gamma_a)
    return _gamma_q_cf(a, x, ln_gamma_a)


def _gamma_p_series(a: float, x: float, ln_gamma_a: float) -> float:
    ap = a
    total = 1.0 / a
    term = total
    for _ in range(_CF_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _CF_EPS:
            return total * math.exp(-x + a * math.log(x) - ln_gamma_a)
    raise ConvergenceError(f"incomplete gamma series did not converge for a={a}, x={x}")


def _gamma_q_cf(a: float, x: float, ln_gamma_a: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _CF_TINY
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / _lentz_guard(an * d + b)
        c = _lentz_guard(b + an / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h * math.exp(-x + a * math.log(x) - ln_gamma_a)
    raise ConvergenceError(f"incomplete gamma fraction did not converge for a={a}, x={x}")


# frexp exponents of the largest finite double and of the smallest normal one
_EXP_MAX, _EXP_MIN = 1024, -1021


def scale_exponent(x: Sequence[float]) -> int:
    """The frexp exponent e of max |x| (0 for zeros), as ``kernels.scale_exponent``."""
    return math.frexp(max(map(abs, x)))[1]


def scaled_back(x: float, e: int, what: str) -> float:
    """x * 2**e, the output rule of every stage: a nonzero result that would not be a
    normal double is a DataError naming ``what``, decided from frexp exponents."""
    ex = math.frexp(x)[1] + e
    small = ex < _EXP_MIN and x != 0.0
    if small or ex > _EXP_MAX or not math.isfinite(x):
        size = "small" if small else "large"
        raise DataError(f"{what} too {size}: {x:.6g} * 2**{e} is not a normal double")
    return math.ldexp(x, e)


def require_finite(x: Sequence[float], what: str, labels: Sequence[object] = ()) -> None:
    """A DataError naming ``what`` for the first inf or nan in x, and its label if any."""
    if not all(map(math.isfinite, x)):
        i = next(i for i, v in enumerate(x) if not math.isfinite(v))
        at = f" on {labels[i]}" if i < len(labels) else ""
        raise DataError(f"non-finite {what} {x[i]!r}{at}")
