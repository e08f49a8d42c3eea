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
# -sin(pi b) / b in powers of b**2, lowest first: a least-squares fit at 40
# digits (mpmath) on 400 Chebyshev nodes of b**2 in [0, 1/4], each rounded to
# the nearest double; cos(2 pi u) from _cos_2pi_into is then within 4e-16 of
# the true value (2.8e-16 measured against mpmath)
_COS_COEF = (
    -3.141592653589793,
    5.167712780049969,
    -2.5501640398773007,
    0.599264529318946,
    -0.08214588657312355,
    0.007370430506093225,
    -0.00046629981702308817,
    2.1903499125519212e-05,
    -7.697847275590284e-07,
)
_SLICE = 1 << 15  # outputs made per pass: a slice and its scratch stay in L2
# threads that large calls spread over: the CPUs this process may run on
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:  # no affinity call on this platform
    _WORKERS = os.cpu_count() or 1
_SERIAL_SLICES = 8  # each worker takes at least this many slices of work


def worker_count(pieces: int, size: int) -> int:
    """Threads for pieces independent jobs of size outputs each.

    At most ``_WORKERS`` and one per piece, and each thread takes at least
    ``_SERIAL_SLICES`` slices of ``_SLICE`` outputs, so short calls stay on
    the calling thread.
    """
    slices = pieces * -(-size // _SLICE)
    return max(1, min(_WORKERS, pieces, slices // _SERIAL_SLICES))


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
    """The top 53 bits of raw outputs as doubles in [0, 1), in raw's own memory."""
    raw >>= np.uint64(11)
    # in place: exact below 2**53, and each word is read before its double
    # is written over it (np.multiply would copy the overlap)
    u = raw.view(np.float64)
    np.copyto(u, raw, casting="unsafe")
    u *= _INV_2POW53
    return u


def _cos_2pi_into(o: np.ndarray, s: np.ndarray, h: np.ndarray) -> None:
    """o = cos(2 pi u) for u = k * 2**-53, where o holds the integers k < 2**53.

    The fold b = 1/2 - |2u - 1| is exact and gives cos(2 pi u) = -sin(pi b)
    with |b| <= 1/2; then -b * P(b**2) by Horner over _COS_COEF, one
    in-place ufunc per step in this order.  Only +, -, *, and abs round, so
    the bits do not depend on the math library or the CPU.  s and h are
    scratch as long as o.
    """
    o *= 2.0**-52
    o -= 1.0
    np.abs(o, out=o)
    np.subtract(0.5, o, out=o)
    np.multiply(o, o, out=s)
    np.multiply(s, _COS_COEF[-1], out=h)
    for c in reversed(_COS_COEF[1:-1]):
        h += c
        h *= s
    h += _COS_COEF[0]
    o *= h


def _box_muller_into(
    o: np.ndarray, seed: int, count: int, ramp: np.ndarray, z: np.ndarray, r: np.ndarray
) -> None:
    """Normal i of o from outputs count+2i+1 (u1) and count+2i+2 (u2).

    The whole pipeline runs on one block while it is in cache: splitmix64,
    the top 53 bits as a double, then sqrt(-2 log(1 - u1)) * cos(2 pi u2),
    one ufunc per operation, with the cosine from ``_cos_2pi_into``; log is
    the one step whose bits come from numpy's math library.  ramp holds the
    step-2 offsets and is only read.  z (raw outputs, and the Horner sum
    between the two passes) and r (the mixing scratch, b**2 between the
    passes, then u1) are as long as o.
    """
    ri = r.view(np.uint64)
    _splitmix(z, ri, ramp, seed, count + 2)
    z >>= np.uint64(11)
    np.copyto(o, z, casting="unsafe")  # exact below 2**53; no cast buffer
    _cos_2pi_into(o, r, z.view(np.float64))
    _splitmix(z, ri, ramp, seed, count + 1)
    z >>= np.uint64(11)
    np.copyto(r, z, casting="unsafe")
    r *= _INV_2POW53
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    o *= r


def _normal_rows_into(out, first, last, step, seed, count, ramp, transform) -> None:
    """Rows first .. last-1 of out, made step rows at a time.

    Row k's normals come from outputs count+2kp+1 .. count+2(k+1)p.  With a
    transform, each block is made in scratch and handed on as
    transform(z, out[rows], rows); without one it is made in out itself.
    A last block of one row joins the block before it, because numpy
    multiplies a one-row matrix with gemv, whose bits differ from gemm's.
    ramp is as long as the largest block's normals.
    """
    p = out.shape[1]
    raw = np.empty(len(ramp), dtype=np.uint64)
    u1 = np.empty(len(ramp))
    block = np.empty(len(ramp)) if transform is not None else None
    r0 = first
    while r0 < last:
        r1 = min(r0 + step, last)
        if last - r1 == 1:
            r1 = last
        rows = slice(r0, r1)
        dst = out[rows]
        k = dst.size
        o = dst.reshape(-1) if block is None else block[:k]
        _box_muller_into(o, seed, count + 2 * r0 * p, ramp[:k], raw[:k], u1[:k])
        if block is not None:
            transform(o.reshape(dst.shape), dst, rows)
        r0 = r1


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


def _first_round_into(dv, accept, first, last, seed, count, ramps, c, d) -> None:
    """Candidates first .. last-1 of a first round of n = len(dv), a slice at a time.

    Candidate i's normal comes from outputs count+2i+1 and count+2i+2 and
    its uniform from count+2n+1+i, the outputs ``normals(n)`` and then
    ``uniforms(n)`` would give it; both are made and tested while the slice
    is in cache, leaving d * v in dv and the test's result in accept.
    ramps holds the step-2 and step-1 offsets of a slice and is only read.
    """
    n = len(dv)
    k = min(_SLICE, last - first)
    x, raw, t = np.empty(k), np.empty(k, dtype=np.uint64), np.empty(k)
    for a in range(first, last, _SLICE):
        m = min(_SLICE, last - a)
        _box_muller_into(x[:m], seed, count + 2 * a, ramps[0][:m], raw[:m], t[:m])
        _splitmix(raw[:m], t[:m].view(np.uint64), ramps[1][:m], seed, count + 2 * n + 1 + a)
        u = _as_uniforms(raw[:m])
        _marsaglia_tsang_into(dv[a : a + m], accept[a : a + m], x[:m], u, t[:m], c, d)


class RandomSource:
    """splitmix64 stream with vectorized draw methods.

    The generator is counter-based: output k is mix64(seed + k * gamma) with
    the splitmix64 finalizer, so equal seeds give bit-identical streams and
    any output can be made without the ones before it.  Each method consumes
    the next block of counters.  With c the counter before the call,
    ``uniforms(n)`` takes outputs c+1 .. c+n.  ``normals(n)`` takes c+1 ..
    c+2n and pairs them for Box-Muller as u1 from the odd offsets (c+1, c+3,
    ..., c+2n-1) and u2 from the even ones (c+2, ..., c+2n); normal i uses
    outputs c+2i+1 and c+2i+2, exactly the pair that ``uniforms(2n)`` would
    return at positions 2i and 2i+1.  Normal i is sqrt(-2 log(1 - u1)) *
    cos(2 pi u2), where the cosine is an exact fold and a fixed polynomial
    (``_cos_2pi_into``) that gives the same bits on any CPU; the log is
    numpy's, whose last bit may depend on the SIMD level numpy dispatches.
    ``inverse_gammas`` (shape >= 1) takes one normal and one uniform per
    candidate in each batched Marsaglia-Tsang rejection round, whose
    (1 + c x)**3 is a product of three factors, not a power: a round of m
    candidates takes the outputs of ``normals(m)`` and then ``uniforms(m)``.
    Its first round, one candidate per output, is made slice by slice on the
    workers as ``normal_rows`` is, each slice's normals and uniforms tested
    while in cache, so neither is ever held whole; the later rounds redraw
    only the refused candidates, on the calling thread.

    ``normal_rows(out)`` fills a (rows, p) array with the same normals that
    ``normals(rows * p)`` would return, row after row: normal (r, j) uses
    outputs c+2(r*p+j)+1 and c+2(r*p+j)+2 on any number of workers.
    ``normals(n)`` is its p = 1 case.  The rows are made in blocks of
    ``_SLICE // p`` rows (a final block of one row joins the block before
    it), each while it is in cache; with a transform, a block is made in
    scratch and handed to the transform, which writes its rows of out, so a
    caller never holds all the normals beside their transformed copy.  A call
    is cut into one contiguous run of blocks per worker thread, with at most
    ``_WORKERS`` workers (the CPUs in the affinity mask; a cgroup CPU quota is
    not seen) and at least ``_SERIAL_SLICES`` blocks each, so calls under
    twice that stay on the calling thread.  Each worker has two blocks of
    scratch, three with a transform, so a threaded worker's scratch is at
    most three eighths of its share of the output.  Each worker derives its
    counters from the call's starting counter and its first row, so no two
    workers share a counter and the output is the same bits for any number
    of workers.  Only the calling thread reads or advances the instance's
    counter.

    Instances are single-owner: concurrent use requires independent instances
    with distinct seeds.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64_MASK
        self._count = 0

    def _raw_block(self, n: int) -> np.ndarray:
        """Outputs c+1 .. c+n; the caller advances c."""
        out = np.empty(n, dtype=np.uint64)
        ramp = _ramp(min(n, _SLICE), 1)
        t = np.empty_like(ramp)
        for s in range(0, n, _SLICE):
            z = out[s : s + _SLICE]
            _splitmix(z, t[: len(z)], ramp[: len(z)], self.seed, self._count + 1 + s)
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1) from the top 53 bits of the stream."""
        raw = self._raw_block(n)
        self._count += n
        return _as_uniforms(raw)

    def normal_rows(self, out: np.ndarray, transform=None) -> None:
        """Fill the rows of out, a (rows, p) array, with standard normals.

        Row k takes the next normals in order, k*p .. (k+1)*p - 1, and the
        counter advances by 2 * rows * p.  With transform, each block of rows
        is made in C-ordered scratch and transform(z, out[rows], rows) writes
        it, so a caller can map normals to draws while the block is in cache,
        and out may have any 2-D layout.  Without one the normals are made in
        out itself, which must then be C-contiguous.
        """
        if transform is None and not out.flags.c_contiguous:
            raise ValueError("normal_rows needs a C-contiguous (rows, p) array")
        rows, p = out.shape
        step = max(1, _SLICE // p)
        blocks = -(-rows // step)
        workers = worker_count(blocks, step * p)
        cuts = [min(w * blocks // workers * step, rows) for w in range(workers)] + [rows]
        ramp = _ramp(min(rows, step + 1) * p, 2)
        run_parallel(
            [
                partial(
                    _normal_rows_into, out, a, b, step, self.seed, self._count, ramp, transform
                )
                for a, b in zip(cuts, cuts[1:])
            ]
        )
        self._count += 2 * rows * p

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller, two uniforms each."""
        out = np.empty(n)
        self.normal_rows(out.reshape(n, 1))
        return out

    def inverse_gammas(self, n: int, shape: float, scale: float) -> np.ndarray:
        """n inverse-gamma variates with batched (vectorized) rejection."""
        if not (shape >= 1.0 and scale > 0.0):
            raise ValueError(
                f"inverse_gammas requires shape >= 1 and scale > 0, got {shape}, {scale}"
            )
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out, accept = np.empty(n), np.empty(n, dtype=bool)
        slices = -(-n // _SLICE)
        workers = worker_count(slices, _SLICE)
        cuts = [min(w * slices // workers * _SLICE, n) for w in range(workers)] + [n]
        ramps = (_ramp(min(n, _SLICE), 2), _ramp(min(n, _SLICE), 1))
        run_parallel(
            [
                partial(_first_round_into, out, accept, a, b, self.seed, self._count, ramps, c, d)
                for a, b in zip(cuts, cuts[1:])
            ]
        )
        self._count += 3 * n
        pending = np.flatnonzero(~accept)
        while pending.size:
            m = pending.size
            dv, t, accept = np.empty(m), np.empty(m), np.empty(m, dtype=bool)
            _marsaglia_tsang_into(dv, accept, self.normals(m), self.uniforms(m), t, c, d)
            out[pending[accept]] = dv[accept]
            pending = pending[~accept]
        return np.divide(scale, out, out=out)
