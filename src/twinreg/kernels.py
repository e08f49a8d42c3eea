"""Special functions, distribution tails, and a seedable random source.

Everything here is reproducible from the named algorithms and the standard
library's ``math.lgamma``, which gives every tail its log-gamma terms:

* ``reg_inc_beta``  -- continued fraction evaluated by the modified Lentz
                       method, switching via the symmetry relation at
                       x = (a + 1)/(a + b + 2).
* ``chi2_sf``       -- regularized incomplete gamma: power series on the left,
                       Lentz continued fraction on the right.
* ``RandomSource``  -- splitmix64 (Steele/Lea/Flood counter-based generator,
                       64-bit seed).  Normals are Box-Muller pairs whose
                       cos(2 pi u) is an exact fold of u and a fixed odd
                       polynomial, so only its log is left to the math
                       library.  Gamma variates use Marsaglia-Tsang
                       rejection with the exact log test alone, no squeeze;
                       inverse-gamma draws are reciprocals of gamma draws.
* ``scale_exponent``, ``scaled_back`` -- the power of two at which each stage
                       computes, and the output rule that brings a result
                       back, refusing a value that is not a normal double.

The F tail is a thin wrapper over the regularized incomplete beta, and the
two-sided Student-t tail is the F(1, df) tail at t**2.
"""

from __future__ import annotations

import math
import os
import threading
from functools import partial

import numpy as np

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
        ln_front = (
            math.lgamma(a + b)
            - math.lgamma(a)
            - math.lgamma(b)
            + a * math.log(x)
            + b * math.log1p(-x)
        )
    except OverflowError:  # lgamma's, past ~2.56e305
        raise ValueError(
            f"reg_inc_beta requires a + b below ~2.56e305, got a={a}, b={b}"
        ) from None
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _lentz_guard(v: float) -> float:
    # modified Lentz: a denominator that vanishes is replaced by a tiny one
    return _CF_TINY if abs(v) < _CF_TINY else v


def _beta_cf(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the standard even/odd continued fraction
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
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


def scale_exponent(x: np.ndarray, axis: int | None = None):
    """The frexp exponent e of max |x| along axis (0 for zeros): x * 2**-e has
    its largest |value| in [0.5, 1), where no sum of squares over- or underflows."""
    return np.frexp(np.max(np.abs(x), axis=axis))[1]


def scaled_back(x, e, what):
    """x * 2**e, e broadcast against x: the output rule of every stage.

    A value whose nonzero result would not be a normal double is a DataError
    naming it, decided from frexp exponents, so no floating-point flag is
    raised.  ``what`` names x, or each of its values in an array-like of x's shape.
    """
    x = np.asarray(x, dtype=float)
    ex = np.frexp(x)[1] + e
    small = (ex < _EXP_MIN) & (x != 0.0)
    bad = small | (ex > _EXP_MAX) | ~np.isfinite(x)
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        v, k = np.broadcast_to(x, bad.shape)[i], np.broadcast_to(e, bad.shape)[i]
        label = what if isinstance(what, str) else np.broadcast_to(np.array(what), bad.shape)[i]
        size = "small" if small[i] else "large"
        raise DataError(f"{label} too {size}: {v:.6g} * 2**{k} is not a normal double")
    return np.ldexp(x, e)


def median_of_sorted(x: np.ndarray):
    """Median along the last axis of ascending rows, bit-identical to ``np.median``."""
    n = x.shape[-1]
    if n % 2:
        return x[..., n // 2]
    return (x[..., n // 2 - 1] + x[..., n // 2]) / 2


_U64_MASK = (1 << 64) - 1
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB
_INV_2POW53 = 2.0**-53
# -sin(2 pi c) / c in powers of c**2, lowest first: a 40-digit (mpmath) least-squares
# fit of -sin(pi b) / b on 400 Chebyshev nodes of b**2 in [0, 1/4], rounded to doubles,
# then term k times 2**(2k+1) for b = 2c, which is exact; cos(2 pi u) from
# _cos_2pi_into is within 4e-16 of the true value (2.8e-16 measured against mpmath)
_COS_COEF = (
    -6.283185307179586,
    41.341702240399755,
    -81.60524927607362,
    76.70585975282509,
    -42.05869392543926,
    15.094641676478926,
    -3.8199281010531383,
    0.7177338593450135,
    -0.10089722381061697,
)
_SLICE = 1 << 15  # outputs made per pass: a slice and its scratch stay in L2
# threads that large calls spread over: the CPUs this process may run on
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:  # no affinity call on this platform
    _WORKERS = os.cpu_count() or 1
_SERIAL_SLICES = 8  # each worker takes at least this many slices of work


def spread(job, pieces: int, size: int) -> None:
    """Call job(a, b) once per worker thread, on a contiguous run a .. b-1 of pieces.

    Each piece is size outputs.  There are at most ``_WORKERS`` workers (the
    CPUs in the affinity mask; a cgroup CPU quota is not seen), at most one
    per piece, and each takes at least ``_SERIAL_SLICES`` slices of
    ``_SLICE`` outputs, so calls under twice that many slices run as one job
    on the calling thread.
    """
    slices = pieces * -(-size // _SLICE)
    workers = max(1, min(_WORKERS, pieces, slices // _SERIAL_SLICES))
    cuts = [w * pieces // workers for w in range(workers + 1)]
    run_parallel([partial(job, a, b) for a, b in zip(cuts, cuts[1:])])


def run_parallel(jobs: list) -> None:
    """Run each job once: the first on the calling thread, the rest on a thread each.

    Jobs must be independent: numpy releases the GIL inside its loops, so
    they overlap.  The first failure is re-raised here once every thread
    has finished.
    """
    errors = []

    def run(job):
        try:
            job()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    started = []
    try:
        for job in jobs[1:]:
            t = threading.Thread(target=run, args=(job,))
            t.start()
            started.append(t)
        run(jobs[0])
    finally:
        for t in started:
            t.join()
    if errors:
        raise errors[0]


def _splitmix(z: np.ndarray, t: np.ndarray, ramp: np.ndarray, seed: int, k: int) -> None:
    """z = splitmix64 outputs from counter k on, spaced as ramp says; t is scratch.

    seed + k * gamma is linear in the counter, so the slice starts as one add
    onto the fixed ramp; the finalizer then runs in place.
    """
    np.add(ramp, np.uint64((seed + k * _SM64_GAMMA) & _U64_MASK), out=z)
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(_SM64_MIX1)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_SM64_MIX2)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t


def _ramp(n: int, step: int) -> np.ndarray:
    """step * gamma multiples, the offsets of n counters step apart."""
    ramp = np.arange(0, n * step, step, dtype=np.uint64)
    ramp *= np.uint64(_SM64_GAMMA)
    return ramp


def _as_uniforms(raw: np.ndarray) -> np.ndarray:
    """Every uniform of the stream: raw outputs' top 53 bits * 2**-53, in raw's memory."""
    raw >>= np.uint64(11)
    # in place: exact below 2**53, and each word is read before its double
    # is written over it (np.multiply would copy the overlap)
    u = raw.view(np.float64)
    np.copyto(u, raw, casting="unsafe")
    u *= _INV_2POW53
    return u


def _cos_2pi_into(o: np.ndarray, u: np.ndarray, s: np.ndarray) -> None:
    """o = cos(2 pi u) for uniforms u = k * 2**-53; u and s are overwritten.

    The exact fold c = 1/4 - |u - 1/2| gives cos(2 pi u) = -sin(2 pi c), |c| <= 1/4,
    and that is c * P(c**2) by Horner over _COS_COEF, one in-place ufunc per step
    in this order, with c**2 in s and the Horner sum in u.  Only +, -, *, and abs
    round, so the bits do not depend on the math library or the CPU.
    """
    np.subtract(u, 0.5, out=o)
    np.abs(o, out=o)
    np.subtract(0.25, o, out=o)
    np.multiply(o, o, out=s)
    np.multiply(s, _COS_COEF[-1], out=u)
    for c in reversed(_COS_COEF[1:-1]):
        u += c
        u *= s
    u += _COS_COEF[0]
    o *= u


def _box_muller_into(o: np.ndarray, seed: int, count: int, ramp: np.ndarray) -> None:
    """Normal i of o from outputs count+2i+1 (u1) and count+2i+2 (u2).

    The whole pipeline runs on one block while it is in cache: splitmix64,
    ``_as_uniforms``, then sqrt(-2 log(1 - u1)) * cos(2 pi u2), one ufunc per operation,
    with the cosine from ``_cos_2pi_into``; log is the one step whose bits come from
    numpy's math library.  ramp holds the step-2 offsets and is only read.  The scratch,
    freed on return, is as long as o: z holds the raw outputs, then u2 and the Horner
    sum, then u1; r holds the mixing scratch, then c**2, then -2 log(1 - u1) and its root.
    """
    z, r = np.empty(len(o), dtype=np.uint64), np.empty(len(o))
    ri = r.view(np.uint64)
    _splitmix(z, ri, ramp, seed, count + 2)
    _cos_2pi_into(o, _as_uniforms(z), r)
    _splitmix(z, ri, ramp, seed, count + 1)
    np.subtract(1.0, _as_uniforms(z), out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    o *= r


def _marsaglia_tsang_into(dv, accept, x, u, t, c: float, d: float) -> None:
    """One batched Marsaglia-Tsang round: d * v in dv, the exact log test in accept.

    With w = 1 + c x and v = w * w * w, a candidate passes when
    log(u) < 0.5 * x**2 + d - d * v + d * log(v).  Each step is one in-place
    ufunc, in the order of that expression, so the bits are the expression's
    and the round allocates nothing: x and u are overwritten, and t is
    scratch of their length.
    """
    np.multiply(c, x, out=dv)
    dv += 1.0
    np.multiply(dv, dv, out=t)
    t *= dv  # v
    np.square(x, out=x)
    x *= 0.5
    x += d
    np.multiply(d, t, out=dv)
    x -= dv
    # where v <= 0, log(v) is nan or -inf, so the test refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(t, out=t)
        t *= d
        x += t
        np.log(u, out=u)
        np.less(u, x, out=accept)


class RandomSource:
    """splitmix64 stream with vectorized draws, defined by counter.

    Output k is mix64(seed + k * gamma) with the splitmix64 finalizer, so
    equal seeds give bit-identical streams and any output can be made
    without the ones before it.  Its uniform, the top 53 bits times 2**-53
    in [0, 1), comes from ``_as_uniforms`` for every draw.  Each draw takes
    the next block of counters; c is the counter before it.

    ``normal_rows(out, transform)`` draws a (rows, p) array of standard
    normals from outputs c+1 .. c+2*rows*p: normal (r, j) is
    sqrt(-2 log(1 - u1)) * cos(2 pi u2) with u1 and u2 the uniforms of
    outputs c+2(r*p+j)+1 and c+2(r*p+j)+2.  The cosine is an exact fold of
    u2 and a fixed polynomial (``_cos_2pi_into``) that gives the same bits
    on any CPU; the log is numpy's, whose last bit may depend on the SIMD
    level numpy dispatches.  The rows are made in blocks of ``_SLICE // p`` rows
    (a final block of one row joins the block before it), each in scratch
    while it is in cache and handed to the transform, which writes its rows
    of out, so a caller never holds all the normals beside their
    transformed copy.  The blocks are spread over the workers by
    ``spread``.  Each worker holds three blocks of scratch, the block and
    Box-Muller's two, which are freed before the transform runs so that its
    own scratch may take their room; a threaded worker's scratch is thus at
    most three eighths of its share of the output.  Each worker derives its
    counters from the call's starting counter and its first row, so no two
    workers share a counter and the output is the same bits for any number
    of workers.  Only the calling thread reads or advances the instance's
    counter.

    ``inverse_gammas`` (shape >= 1) runs batched Marsaglia-Tsang rejection
    rounds, whose (1 + c x)**3 is a product of three factors, not a power.
    A round of m candidates takes outputs c+1 .. c+3m: candidate i's normal
    is row i of an (m, 1) ``normal_rows`` call, from outputs c+2i+1 and
    c+2i+2, and its uniform is that of output c+2m+1+i.  The call's
    transform makes each block's uniforms and runs the test while the block
    is in cache, so every round is spread over the workers and neither
    draw is ever held whole.  The first round has one candidate per output;
    each later round redraws only the refused ones.

    Instances are single-owner: concurrent use requires independent instances
    with distinct seeds.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64_MASK
        self._count = 0

    def normal_rows(self, out: np.ndarray, transform) -> None:
        """Draw the rows of out, a (rows, p) array of any layout, through transform.

        Row k takes the next normals in order, k*p .. (k+1)*p - 1, and the
        counter advances by 2 * rows * p.  Each block of rows is made in
        C-ordered scratch and transform(z, out[rows], rows) writes it, so a
        caller maps normals to draws while the block is in cache.
        """
        rows, p = out.shape
        step = max(1, _SLICE // p)
        ramp = _ramp(min(rows, step + 1) * p, 2)
        count = self._count

        def job(a, b):
            block = np.empty(len(ramp))
            r0, last = min(a * step, rows), min(b * step, rows)
            while r0 < last:
                # a last block of one row joins the block before it, because
                # numpy multiplies a one-row matrix with gemv, whose bits
                # differ from gemm's
                r1 = last if last - r0 <= step + 1 else r0 + step
                z = block[: (r1 - r0) * p]
                _box_muller_into(z, self.seed, count + 2 * r0 * p, ramp[: len(z)])
                transform(z.reshape(-1, p), out[r0:r1], slice(r0, r1))
                r0 = r1

        spread(job, -(-rows // step), step * p)
        self._count += 2 * rows * p

    def _round(self, m: int, c: float, d: float):
        """One Marsaglia-Tsang round of m candidates: d * v and the test's result.

        With k the counter before the call, candidate i's normal comes from
        outputs k+2i+1 and k+2i+2 and its uniform from k+2m+1+i, and the
        counter advances by 3m.
        """
        dv, accept = np.empty(m), np.empty(m, dtype=bool)
        ramp = _ramp(min(m, _SLICE + 1), 1)  # a merged last block has _SLICE + 1 rows
        first = self._count + 2 * m + 1

        def test(z, dst, rows):
            raw, t = np.empty(len(z), dtype=np.uint64), np.empty(len(z))
            _splitmix(raw, t.view(np.uint64), ramp[: len(z)], self.seed, first + rows.start)
            u = _as_uniforms(raw)
            _marsaglia_tsang_into(dst.reshape(-1), accept[rows], z.reshape(-1), u, t, c, d)

        self.normal_rows(dv.reshape(m, 1), test)
        self._count += m
        return dv, accept

    def inverse_gammas(self, n: int, shape: float, scale: float) -> np.ndarray:
        """n inverse-gamma variates with batched (vectorized) rejection."""
        if not (shape >= 1.0 and scale > 0.0):
            raise ValueError(
                f"inverse_gammas requires shape >= 1 and scale > 0, got {shape}, {scale}"
            )
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out, accept = self._round(n, c, d)
        pending = np.flatnonzero(~accept)
        while pending.size:
            dv, accept = self._round(pending.size, c, d)
            out[pending[accept]] = dv[accept]
            pending = pending[~accept]
        return np.divide(scale, out, out=out)
