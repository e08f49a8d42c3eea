"""Tests for the special-function and random-source kernels.

Expected values come from sources independent of the implementation under
test: closed forms, binomial sums for integer-parameter incomplete betas,
adaptive quadrature of the t and F densities and the incomplete-gamma power
series (normalizing constants from ``oracles.ln_gamma``: the gamma recurrence
from Gamma(1/2) = sqrt(pi) at half-integers, 50-digit mpmath elsewhere), and
50-digit mpmath incomplete betas and gammas for the tails the pipeline prints.
"""

import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import streams
from oracles import chi2_sf_by_mpmath, f_sf_by_mpmath, ln_gamma, relative_error, t_sf2_by_mpmath
from twinreg import data, describe, kernels, ols

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "loanloss_quarterly.csv"


def inc_beta_binomial_sum(a: int, b: int, x: float) -> float:
    """I_x(a, b) for integer a, b as a binomial tail sum."""
    n = a + b - 1
    return sum(
        math.comb(n, j) * x**j * (1.0 - x) ** (n - j) for j in range(a, n + 1)
    )


def t_density(u: float, df: float) -> float:
    c = math.exp(ln_gamma((df + 1) / 2) - ln_gamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1.0 + u * u / df) ** (-(df + 1) / 2)


def f_density(u: float, d1: float, d2: float) -> float:
    c = math.exp(
        ln_gamma((d1 + d2) / 2)
        - ln_gamma(d1 / 2)
        - ln_gamma(d2 / 2)
        + (d1 / 2) * math.log(d1 / d2)
    )
    return c * u ** (d1 / 2 - 1) * (1.0 + d1 * u / d2) ** (-(d1 + d2) / 2)


def gamma_q_series(a: float, x: float) -> float:
    """Q(a, x) via the lower-tail power series (valid for x < a + 1)."""
    term = 1.0 / a
    total = term
    k = 0
    while abs(term) > 1e-18 * abs(total):
        k += 1
        term *= x / (a + k)
        total += term
    return 1.0 - total * math.exp(-x + a * math.log(x) - ln_gamma(a))


class TestRegIncBeta:
    def test_endpoints(self):
        assert kernels.reg_inc_beta(2.0, 3.0, 0.0) == 0.0
        assert kernels.reg_inc_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_special_case(self):
        # I_x(1, 1) is the uniform CDF
        for x in (0.1, 0.25, 0.5, 0.9):
            assert kernels.reg_inc_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)

    def test_integer_parameters_binomial_sum(self):
        cases = [(2, 3, 0.5), (1, 4, 0.2), (5, 2, 0.73), (7, 7, 0.41), (3, 9, 0.08)]
        for a, b, x in cases:
            want = inc_beta_binomial_sum(a, b, x)
            assert kernels.reg_inc_beta(float(a), float(b), x) == pytest.approx(
                want, abs=1e-13
            )
        assert inc_beta_binomial_sum(2, 3, 0.5) == pytest.approx(11.0 / 16.0)

    def test_symmetry(self):
        for a, b, x in [(0.5, 4.0, 0.3), (14.5, 0.5, 0.97), (3.3, 2.2, 0.6)]:
            lhs = kernels.reg_inc_beta(a, b, x)
            rhs = 1.0 - kernels.reg_inc_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 41)
        vals = [kernels.reg_inc_beta(2.7, 0.9, float(x)) for x in xs]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            kernels.reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            kernels.reg_inc_beta(1.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            kernels.reg_inc_beta(1.0, 1.0, 1.5)

    def test_log_gamma_overflow_is_a_value_error(self):
        # lgamma overflows past ~2.56e305: a refusal naming the arguments,
        # not a bare OverflowError
        with pytest.raises(ValueError, match=r"a=1e\+306, b=2.0"):
            kernels.reg_inc_beta(1e306, 2.0, 0.5)
        with pytest.raises(ValueError, match=r"a=5e\+305, b=5e\+305"):
            kernels.f_sf(2.0, 1e306, 1e306)


class TestStudentTSf2:
    def test_center_and_limits(self):
        assert kernels.student_t_sf2(0.0, 29.0) == 1.0
        assert kernels.student_t_sf2(math.inf, 5.0) == 0.0
        assert kernels.student_t_sf2(-math.inf, 5.0) == 0.0

    def test_even_in_t(self):
        for t in (0.3, 1.7, 2.05, 15.2):
            assert kernels.student_t_sf2(t, 29.0) == kernels.student_t_sf2(-t, 29.0)

    def test_df1_is_cauchy(self):
        # two-sided Cauchy tail has the closed form 1 - (2/pi) atan(t)
        for t in (0.5, 1.0, 3.0):
            want = 1.0 - 2.0 / math.pi * math.atan(t)
            assert kernels.student_t_sf2(t, 1.0) == pytest.approx(want, rel=1e-12)

    def test_against_quadrature(self):
        for t, df in [(2.05, 29.0), (1.38, 29.0), (2.36, 29.0), (4.0, 7.0)]:
            tail, _ = integrate.quad(t_density, t, math.inf, args=(df,))
            assert kernels.student_t_sf2(t, df) == pytest.approx(2.0 * tail, rel=1e-9)

    def test_extreme_tail_window(self):
        v = kernels.student_t_sf2(15.2, 29.0)
        assert 2.3e-15 <= v <= 2.7e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            kernels.student_t_sf2(1.0, 0.0)


def f_sf_with_endpoint_returns(f: float, df1: float, df2: float) -> float:
    """f_sf as written with early returns at f = 0 and f = inf, the oracle."""
    if not (df1 > 0.0 and df2 > 0.0):
        raise ValueError(f"f_sf requires positive df, got df1={df1}, df2={df2}")
    if f < 0.0:
        raise ValueError(f"f_sf requires f >= 0, got {f}")
    if f == 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    return kernels.reg_inc_beta(0.5 * df2, 0.5 * df1, df2 / (df2 + df1 * f))


def outcome(fn, *args):
    """fn(*args) as its float.hex, or its exception's type and message."""
    try:
        return fn(*args).hex()
    except Exception as exc:
        return type(exc), str(exc)


class TestFSf:
    def test_limits(self):
        assert kernels.f_sf(0.0, 3.0, 33.0) == 1.0
        assert kernels.f_sf(math.inf, 3.0, 33.0) == 0.0

    def test_same_bits_as_the_endpoint_returns(self):
        dfs = (1e-3, 0.5, 1.0, 2.5, 29.0, 1e3, 1e7)
        for f in (0.0, -0.0, 5e-324, 1.0, 1e308, math.inf, math.nan):
            for df1 in dfs:
                for df2 in dfs:
                    want = outcome(f_sf_with_endpoint_returns, f, df1, df2)
                    assert outcome(kernels.f_sf, f, df1, df2) == want, (f, df1, df2)

    def test_square_of_t(self):
        # F(1, df) upper tail at t^2 is the two-sided t tail at t, to the bit
        ts = (0.0, -0.0, 1e-200, 0.3, -1.5, 2.4, 7.75, 40.0, 1e154, 1e200, math.inf, -math.inf)
        for t in ts:
            for df in (0.5, 1.0, 2.5, 12.0, 29.0, 1e6):
                assert kernels.student_t_sf2(t, df) == kernels.f_sf(t * t, 1.0, df), (t, df)

    def test_against_quadrature(self):
        for f, d1, d2 in [(4.26, 3.0, 33.0), (11.3, 9.0, 27.0), (0.7, 5.0, 20.0)]:
            tail, _ = integrate.quad(f_density, f, math.inf, args=(d1, d2))
            assert kernels.f_sf(f, d1, d2) == pytest.approx(tail, rel=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            kernels.f_sf(-0.1, 3.0, 33.0)
        with pytest.raises(ValueError):
            kernels.f_sf(1.0, 0.0, 33.0)


class TestChi2Sf:
    def test_limits(self):
        assert kernels.chi2_sf(0.0, 4.0) == 1.0
        assert kernels.chi2_sf(math.inf, 4.0) == 0.0

    def test_df2_exponential(self):
        # chi-squared with 2 df is Exp(1/2): tail is exp(-x/2)
        for x in (0.5, 3.0, 40.0):
            assert kernels.chi2_sf(x, 2.0) == pytest.approx(math.exp(-x / 2), rel=1e-13)

    def test_df4_closed_form(self):
        # even df gives a Poisson-sum tail; df=4: (1 + x/2) exp(-x/2)
        want = (1.0 + 2.5) * math.exp(-2.5)
        assert kernels.chi2_sf(5.0, 4.0) == pytest.approx(want, rel=1e-13)

    def test_against_series(self):
        for x, df in [(1.2, 5.0), (5.0, 4.0), (9.9, 11.0), (0.3, 1.0)]:
            assert kernels.chi2_sf(x, df) == pytest.approx(
                gamma_q_series(df / 2.0, x / 2.0), rel=1e-11
            )

    def test_normal_square(self):
        # chi-squared(1) tail at z^2 is the two-sided normal tail at z
        z = 1.959963984540054
        assert kernels.chi2_sf(z * z, 1.0) == pytest.approx(0.05, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            kernels.chi2_sf(-1.0, 4.0)
        with pytest.raises(ValueError):
            kernels.chi2_sf(1.0, 0.0)

    def test_log_gamma_overflow_is_a_value_error(self):
        # lgamma(df / 2) overflows past df ~5.12e305, on either branch
        for x in (3.0, 1e307):
            with pytest.raises(ValueError, match=r"df=1e\+306"):
                kernels.chi2_sf(x, 1e306)
        assert kernels.chi2_sf(3.0, 1e305) == 1.0


class TestTailAccuracy:
    """Relative error of each tail against 50-digit mpmath at its exact arguments.

    The bounds are about twice the worst of a sweep: 1.75e-14 at the
    fixture's twelve p-values, and 2.7e-13 on the t grid, at df 100.  The
    grid's worst points sit near t = 1.7, where I_x is taken as 1 - I_(1-x)
    of a value near 0.9, which scales the error of the log-gamma terms by
    about ten.
    """

    def test_fixture_p_values(self):
        frame = data.apply_transforms(data.parse_csv(FIXTURE.read_bytes()))
        design = ols.build_design(frame)
        fit = ols.fit_ols(design)
        diag = ols.diagnostics(design, fit)
        cases = [
            (p, t_sf2_by_mpmath(t, fit.df_resid))
            for p, t in zip(fit.p_values.tolist(), fit.t_stats.tolist())
        ]
        for res in (describe.anova_by_month(frame), describe.anova_by_year(frame)):
            cases.append((res.p_value, f_sf_by_mpmath(res.f_stat, res.df_between, res.df_within)))
        cases.append((diag.bp_p, chi2_sf_by_mpmath(diag.bp_stat, design.p - 1)))
        cases.append((diag.jb_p, chi2_sf_by_mpmath(diag.jb_stat, 2)))
        errors = [relative_error(got, want) for got, want in cases]
        assert len(errors) == 12 and max(errors) <= 5e-14

    # the residual df of 37- to 280-row inputs, the fixture's 29 among them
    @pytest.mark.parametrize("df", [29, 36, 100, 272])
    def test_t_grid(self, df):
        ts = np.linspace(0.1, 12.0, 120).tolist()
        errors = [relative_error(kernels.student_t_sf2(t, df), t_sf2_by_mpmath(t, df)) for t in ts]
        assert max(errors) <= 5e-13


class TestRunParallel:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_every_job_runs_once(self, jobs):
        done = []
        kernels.run_parallel([lambda i=i: done.append(i) for i in range(jobs)])
        assert sorted(done) == list(range(jobs))

    def test_worker_failure_is_raised_after_every_job_ends(self):
        done = []

        def fail():
            time.sleep(0.05)  # still running when the calling thread's job is done
            done.append(1)
            raise MemoryError("worker")

        with pytest.raises(MemoryError, match="worker"):
            kernels.run_parallel([lambda: done.append(0), fail])
        assert sorted(done) == [0, 1]


# first four draws of each kind from a fresh RandomSource(42), as float.hex;
# the uniforms and normals are read at the counters by tests/streams.py
SEED42_VECTORS = {
    "uniforms": (
        lambda rs: streams.uniforms(rs, 4),
        ["0x1.7bae644c5fd6dp-1", "0x1.477f199d93378p-3",
         "0x1.1d499d5c4c3e6p-2", "0x1.607387fc392b8p-2"],
    ),
    "normals": (
        lambda rs: streams.normals(rs, 4),
        ["0x1.c3b620ee5015bp-1", "-0x1.cdab96fe79015p-2",
         "0x1.81bf069d25a46p-3", "0x1.c1b680ea2bc60p-3"],
    ),
    "inverse_gammas_3_2": (
        lambda rs: rs.inverse_gammas(4, 3.0, 2.0),
        ["0x1.d352d6a2e4161p-2", "0x1.007fc2ec72788p+0",
         "0x1.56e87ce1a37a3p-1", "0x1.50ab471fc5c7cp-1"],
    ),
}


def marsaglia_tsang_round_with_squeeze(x, u, c, d):
    """One whole-array rejection round with the v > 0 mask and the squeeze
    u < 1 - 0.0331 x**4 beside the exact log test, the oracle."""
    w = 1.0 + c * x
    v = w * w * w
    pos = v > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.log(u) < 0.5 * x**2 + d - d * v + d * np.log(np.where(pos, v, 1.0))
    squeeze = u < 1.0 - 0.0331 * x**4
    return pos & (exact | squeeze), d * v


def cos_2pi_by_fold_and_horner(u):
    """cos(2 pi u) as documented: c = 1/4 - |u - 1/2| (exact for u = k * 2**-53),
    then c * P(c**2) by Horner over the coefficients, highest first."""
    c = 0.25 - np.abs(u - 0.5)
    s = c * c
    coef = kernels._COS_COEF
    h = s * coef[-1]
    for a in reversed(coef[1:-1]):
        h = (h + a) * s
    return c * (h + coef[0])


class TestBoxMullerCosine:
    def test_within_4e_16_of_cos_2pi_u(self):
        # u = k * 2**-53 at 30k seeded k plus 0, 1/4, 1/2, 3/4 and 1 - 2**-53
        # with 16 neighbours on each side, against a 40-digit cosine
        mp = pytest.importorskip("mpmath")
        k = np.random.default_rng(2104).integers(0, 2**53, 30_000, dtype=np.uint64)
        edges = [e + i for e in (0, 2**51, 2**52, 3 * 2**51, 2**53 - 1) for i in range(-16, 17)]
        k = np.concatenate([k, np.array([e for e in edges if 0 <= e < 2**53], dtype=np.uint64)])
        u = k.astype(np.float64) * 2.0**-53  # exact below 2**53
        got = np.empty_like(u)
        kernels._cos_2pi_into(got, u, np.empty_like(u))
        with mp.workdps(40):
            step = 2 * mp.pi / 2**53
            err = max(abs(mp.mpf(c) - mp.cos(step * int(i))) for i, c in zip(k, got.tolist()))
        assert err <= 4e-16

    def test_normals_are_within_1e_15_r_of_the_math_module(self):
        # |z - r cos(2 pi u2)| <= 1e-15 r with r = sqrt(-2 log(1 - u1)), all
        # from math per value: the polynomial's and math.cos's errors summed
        n = 1 << 20
        z = streams.normals(kernels.RandomSource(11), n)
        u = streams.uniforms(kernels.RandomSource(11), 2 * n)
        r = [math.sqrt(-2.0 * math.log(1.0 - u1)) for u1 in u[0::2].tolist()]
        want = [ri * math.cos(2.0 * math.pi * u2) for ri, u2 in zip(r, u[1::2].tolist())]
        assert (np.abs(z - np.array(want)) <= 1e-15 * np.array(r)).all()

    def test_same_bits_with_avx512_dispatch_disabled(self):
        # the cosine factor and the Marsaglia-Tsang product use only +, -, *
        # and abs, so numpy's SIMD level must not change a bit of either
        features = "X86_V4 AVX512_ICL AVX512_SPR"
        code = f"""
import hashlib, json, math
import numpy as np
from twinreg import kernels
n = 1 << 20

def uniforms(k):  # the uniforms of outputs k+1 .. k+n of seed 2104
    z, t = np.empty(n, np.uint64), np.empty(n, np.uint64)
    kernels._splitmix(z, t, kernels._ramp(n, 1), 2104, k + 1)
    return kernels._as_uniforms(z)

cos = np.empty(n)
kernels._cos_2pi_into(cos, uniforms(0), np.empty(n))
d = 19.5 - 1.0 / 3.0
x, u, dv = 8.0 * uniforms(n) - 4.0, uniforms(2 * n), np.empty(n)
c = 1.0 / math.sqrt(9.0 * d)
kernels._marsaglia_tsang_into(dv, np.empty(n, bool), x, u, np.empty(n), c, d)
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1
    from numpy.core import _multiarray_umath as umath
on = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
print(json.dumps([[hashlib.sha256(a.tobytes()).hexdigest() for a in (cos, dv)],
                  [f for f in {features.split()!r} if f in on]]))
"""
        src = str(Path(kernels.__file__).resolve().parents[1])
        runs = []
        for disabled in (None, features):
            env = dict(os.environ)
            env.pop("NPY_DISABLE_CPU_FEATURES", None)
            if disabled:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            if proc.returncode:
                if disabled:
                    pytest.skip(f"numpy cannot run with {disabled} disabled: {proc.stderr}")
                pytest.fail(proc.stderr)
            runs.append(json.loads(proc.stdout))
        (plain, enabled), (masked, left_on) = runs
        if not enabled:
            pytest.skip(f"this CPU or numpy build dispatches none of {features}")
        if left_on:
            pytest.skip(f"numpy did not disable {left_on} when asked")
        assert masked == plain


class TestMarsagliaTsangRound:
    # 1.3 is a shape just above the floor of 1; 1 reaches v <= 0 (x <= -sqrt(6))
    @pytest.mark.parametrize("alpha", [1.3, 1.0, 19.5])
    def test_same_mask_and_dv_as_with_squeeze(self, alpha):
        n = 1_000_000
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        rs = kernels.RandomSource(int(alpha * 10))
        x, u = streams.normals(rs, n), streams.uniforms(rs, n)
        want_accept, want_dv = marsaglia_tsang_round_with_squeeze(x, u, c, d)
        reaches_zero = (1.0 + c * x <= 0.0).any()
        dv, accept = np.empty(n), np.empty(n, dtype=bool)
        kernels._marsaglia_tsang_into(dv, accept, x, u, np.empty(n), c, d)  # x, u overwritten
        assert np.array_equal(accept, want_accept)
        assert np.array_equal(dv.view(np.uint64), want_dv.view(np.uint64))
        if alpha == 1.0:
            assert reaches_zero

    def test_candidates_at_the_threshold_follow_the_expression_order(self):
        # where the rhs summed in another order, (.. + d log v) - d v, differs
        # from the expression's, (.. - d v) + d log v, pick u with log(u)
        # between the two: only the expression's order gives the test's result
        d = 19.5 - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        x = streams.normals(kernels.RandomSource(19), 1000)
        w = 1.0 + c * x
        v = w * w * w
        base = 0.5 * np.square(x) + d
        rhs, moved = base - d * v + d * np.log(v), base + d * np.log(v) - d * v
        picked, us = [], []
        for i, (lo, hi) in enumerate(zip(np.minimum(rhs, moved), np.maximum(rhs, moved))):
            if not lo < hi < 0.0:
                continue
            u = np.exp(lo)
            for _ in range(64):
                if lo <= np.log(u) < hi:
                    picked.append(i)
                    us.append(u)
                    break
                u = np.nextafter(u, 1.0 if np.log(u) < lo else 0.0)
        picked, us = picked[:100], np.array(us[:100])
        assert len(picked) == 100
        want = np.log(us) < rhs[picked]
        assert np.all(want != (np.log(us) < moved[picked]))
        dv, accept = np.empty(100), np.empty(100, dtype=bool)
        kernels._marsaglia_tsang_into(dv, accept, x[picked], us.copy(), np.empty(100), c, d)
        assert np.array_equal(accept, want)
        assert 0 < want.sum() < len(want)

    @pytest.mark.parametrize("shape", [1.0, 19.5])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_inverse_gammas_are_whole_array_rounds(self, shape, workers, monkeypatch):
        # 1000-candidate slices, a run of them per worker in every round.
        # 50,001 ends in a one-row block merged into the one before it, so
        # its uniforms need a ramp of _SLICE + 1.  At shape 1, 400,000
        # candidates leave a second round of ~20,000, spread over 2 workers
        monkeypatch.setattr(kernels, "_SLICE", 1000)
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        jobs = []
        run_parallel = kernels.run_parallel

        def counted(round_jobs):
            jobs.append(len(round_jobs))
            run_parallel(round_jobs)

        monkeypatch.setattr(kernels, "run_parallel", counted)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        for n in [50_003, 50_001] + [400_000] * (shape == 1.0):
            a, b = kernels.RandomSource(9), kernels.RandomSource(9)
            streams.uniforms(a, 3)
            streams.uniforms(b, 3)
            jobs.clear()
            got = a.inverse_gammas(n, shape, 2.0)
            rounds = jobs[:]
            want, pending = np.empty(n), np.arange(n)
            while pending.size:
                m = pending.size
                x, u = streams.normals(b, m), streams.uniforms(b, m)
                accept, dv = marsaglia_tsang_round_with_squeeze(x, u, c, d)
                want[pending[accept]] = dv[accept]
                pending = pending[~accept]
            assert np.array_equal(got.view(np.uint64), (2.0 / want).view(np.uint64)), n
            assert a._count == b._count, n
            assert rounds[0] == workers, n
        if shape == 1.0:
            assert rounds[1] == min(workers, 2)


class TestRandomSource:
    @pytest.mark.parametrize("method", list(SEED42_VECTORS))
    def test_seed42_golden_vectors(self, method):
        draw, want = SEED42_VECTORS[method]
        assert [float(x).hex() for x in draw(kernels.RandomSource(42))] == want

    def test_same_seed_same_stream(self):
        a = kernels.RandomSource(42)
        b = kernels.RandomSource(42)
        assert np.array_equal(streams.uniforms(a, 10), streams.uniforms(b, 10))

    def test_different_seeds_differ(self):
        a = kernels.RandomSource(1)
        b = kernels.RandomSource(2)
        assert not np.array_equal(streams.uniforms(a, 5), streams.uniforms(b, 5))

    def test_uniform_range(self):
        rs = kernels.RandomSource(3)
        u = streams.uniforms(rs, 100_000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_normal_consumes_two_uniforms(self):
        a = kernels.RandomSource(5)
        streams.normals(a, 1)
        b = kernels.RandomSource(5)
        streams.uniforms(b, 2)
        assert np.array_equal(streams.uniforms(a, 3), streams.uniforms(b, 3))

    # 49157 ends inside a slice past the first boundary; 3 slices + 5 spans several
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 49157, 3 * kernels._SLICE + 5])
    @pytest.mark.parametrize("moved", [False, True])
    def test_normals_are_box_muller_on_interleaved_uniforms(self, n, moved):
        a = kernels.RandomSource(77)
        b = kernels.RandomSource(77)
        if moved:
            streams.normals(a, 3)
            streams.uniforms(a, 1)
            streams.uniforms(b, 7)
        before = a._count
        z = streams.normals(a, n)
        assert a._count == before + 2 * n
        u = streams.uniforms(b, 2 * n)
        want = np.sqrt(-2.0 * np.log(1.0 - u[0::2])) * cos_2pi_by_fold_and_horner(u[1::2])
        assert np.array_equal(z.view(np.uint64), want.view(np.uint64))

    def test_raw_block_matches_scalar_splitmix64(self):
        # reference: the splitmix64 finalizer on Python integers, at counters
        # on both sides of slice boundaries; the step-2 ramp is the one
        # Box-Muller runs on the odd and even counters
        def mix64(seed, k):
            z = (seed + k * 0x9E3779B97F4A7C15) & kernels._U64_MASK
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & kernels._U64_MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & kernels._U64_MASK
            return z ^ (z >> 31)

        s = kernels._SLICE
        seed = 2**64 - 3
        rs = kernels.RandomSource(seed)
        rs._count = 5
        raw = streams.raw_block(rs, 2 * s + 3)
        assert rs._count == 5 + 2 * s + 3
        for i in (0, 1, s - 1, s, s + 1, 2 * s, 2 * s + 2):
            assert int(raw[i]) == mix64(seed, 6 + i), i
        raw = np.empty(s, dtype=np.uint64)
        for k in (6, 7):
            kernels._splitmix(raw, np.empty_like(raw), kernels._ramp(s, 2), seed, k)
            for i in (0, 1, s - 2, s - 1):
                assert int(raw[i]) == mix64(seed, k + 2 * i), (k, i)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_normals_allocate_little_beyond_their_output(self, workers, monkeypatch):
        # three slices of scratch per worker (the block and Box-Muller's two)
        # and one shared ramp, with a tenth of a slice for the objects that
        # hold them; no full-size temporaries
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        rs = kernels.RandomSource(8)
        tracemalloc.start()
        try:
            z = streams.normals(rs, 2_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= z.nbytes + (3 * workers + 1.1) * kernels._SLICE * 8

    def test_normal_rows_are_the_normals_in_row_order(self, monkeypatch):
        # 1000-normal slices: 142-row blocks of 7, and a last block of one row
        monkeypatch.setattr(kernels, "_SLICE", 1000)
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        def copy(z, dst, rows):
            np.copyto(dst, z)

        out = np.empty((142 * 16 + 1, 7))
        a, b = kernels.RandomSource(5), kernels.RandomSource(5)
        a.normal_rows(out, copy)
        assert np.array_equal(out.reshape(-1), streams.normals(b, out.size))
        assert a._count == b._count == 2 * out.size
        # the rows are written through the transform, in any layout
        fortran = np.empty(out.shape, order="F")
        a.normal_rows(fortran, copy)
        assert np.array_equal(fortran.reshape(-1), streams.normals(b, out.size))

    @pytest.mark.parametrize("shape", [19.5, 1.0])
    def test_inverse_gammas_allocate_few_draw_sized_buffers(self, shape, monkeypatch):
        # the output, the first round's accept mask and its inverse, three
        # slices of scratch per worker (3 workers, the most 1e6 draws use),
        # and the later rounds' candidates: no round's normals or uniforms
        # are ever whole
        monkeypatch.setattr(kernels, "_WORKERS", 3)
        rs = kernels.RandomSource(8)
        tracemalloc.start()
        try:
            out = rs.inverse_gammas(1_000_000, shape, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * out.nbytes

    def test_many_cpus_give_each_worker_a_share_of_slices(self, monkeypatch):
        # a worker takes at least _SERIAL_SLICES slices, so a call starts no
        # more threads than that allows and its scratch stays a fraction of
        # the output however many CPUs the process may use
        monkeypatch.setattr(kernels, "_WORKERS", 64)
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        n = 2_000_000
        rs = kernels.RandomSource(8)
        tracemalloc.start()
        try:
            z = streams.normals(rs, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slices = -(-n // kernels._SLICE)
        assert len(started) == slices // kernels._SERIAL_SLICES - 1
        # three slices of scratch per worker and the shared ramp
        ramp = (kernels._SLICE + 1) * 8
        assert peak <= (1 + 3 / kernels._SERIAL_SLICES) * z.nbytes + ramp

    def test_normal_moments(self):
        rs = kernels.RandomSource(2024)
        z = streams.normals(rs, 1_000_000)
        assert abs(z.mean()) < 0.005
        assert abs(z.var() - 1.0) < 0.01
        assert abs(np.mean(z**3)) < 0.02  # symmetric

    def test_inverse_gamma_moments(self):
        # shape 6, scale 5: mean 5/5 = 1, variance 1/(6-2) = 0.25; shape > 4
        # keeps the fourth moment finite so the sample variance is stable
        rs = kernels.RandomSource(31)
        x = rs.inverse_gammas(1_000_000, 6.0, 5.0)
        assert (x > 0.0).all()
        assert x.mean() == pytest.approx(1.0, abs=0.005)
        assert x.var() == pytest.approx(0.25, abs=0.01)

    def test_inverse_gamma_scale_equivariance(self):
        a = kernels.RandomSource(55)
        b = kernels.RandomSource(55)
        x = a.inverse_gammas(1000, 2.5, 1.0)
        y = b.inverse_gammas(1000, 2.5, 7.0)
        assert np.allclose(y, 7.0 * x, rtol=1e-14)

    def test_inverse_gamma_shape_below_one(self):
        # shape < 1 is refused rather than boosted; shape 1 is the edge that draws
        rs = kernels.RandomSource(66)
        for shape in (0.3, 0.7, math.nextafter(1.0, 0.0)):
            with pytest.raises(ValueError):
                rs.inverse_gammas(5, shape, 1.0)
        x = rs.inverse_gammas(5, 1.0, 1.0)
        assert (x > 0.0).all() and np.isfinite(x).all()

    def test_domain(self):
        rs = kernels.RandomSource(1)
        with pytest.raises(ValueError):
            rs.inverse_gammas(5, 0.0, 1.0)
        with pytest.raises(ValueError):
            rs.inverse_gammas(5, 1.0, -2.0)
