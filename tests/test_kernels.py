"""Tests for the special-function and random-source kernels.

Expected values come from sources independent of the implementation under
test: closed forms, the gamma recurrence seeded at ln_gamma(0.5) = ln(sqrt(pi)),
binomial sums for integer-parameter incomplete betas, adaptive quadrature of
the t and F densities (normalizing constants via math.lgamma), and the
incomplete-gamma power series.
"""

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from twinreg import kernels


def ln_gamma_by_recurrence(n_halves: int) -> float:
    """ln Gamma(n_halves / 2) built up from Gamma(1/2) = sqrt(pi)."""
    acc = 0.5 * math.log(math.pi)
    z = 0.5
    while z + 1.0 <= n_halves / 2.0 + 1e-9:
        acc += math.log(z)
        z += 1.0
    return acc


def inc_beta_binomial_sum(a: int, b: int, x: float) -> float:
    """I_x(a, b) for integer a, b as a binomial tail sum."""
    n = a + b - 1
    return sum(
        math.comb(n, j) * x**j * (1.0 - x) ** (n - j) for j in range(a, n + 1)
    )


def t_density(u: float, df: float) -> float:
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(
        df * math.pi
    )
    return c * (1.0 + u * u / df) ** (-(df + 1) / 2)


def f_density(u: float, d1: float, d2: float) -> float:
    c = math.exp(
        math.lgamma((d1 + d2) / 2)
        - math.lgamma(d1 / 2)
        - math.lgamma(d2 / 2)
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
    return 1.0 - total * math.exp(-x + a * math.log(x) - math.lgamma(a))


class TestLnGamma:
    def test_exact_values(self):
        assert kernels.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert kernels.ln_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
        assert kernels.ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
        # Gamma(5) = 24
        assert kernels.ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half_integer_recurrence(self):
        for n_halves in (3, 7, 21, 29, 59):
            want = ln_gamma_by_recurrence(n_halves)
            assert kernels.ln_gamma(n_halves / 2.0) == pytest.approx(want, rel=1e-13)

    def test_recurrence_identity_on_grid(self):
        # ln G(x+1) - ln G(x) = ln x; tolerance tracks the cancellation in the
        # subtraction, which grows with the magnitude of ln G itself
        for x in np.geomspace(1e-3, 1e6, 60):
            hi = kernels.ln_gamma(x + 1.0)
            lo = kernels.ln_gamma(x)
            tol = 1e-14 * max(1.0, abs(hi), abs(lo))
            assert hi - lo == pytest.approx(math.log(x), abs=tol)

    def test_agrees_with_stdlib_across_range(self):
        for x in np.geomspace(1e-3, 1e6, 200):
            want = math.lgamma(x)
            tol = 1e-12 * max(abs(want), 1.0)
            assert abs(kernels.ln_gamma(float(x)) - want) <= tol

    def test_domain(self):
        with pytest.raises(ValueError):
            kernels.ln_gamma(0.0)
        with pytest.raises(ValueError):
            kernels.ln_gamma(-2.5)


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


# first four draws of each method from a fresh RandomSource(42), as float.hex
SEED42_VECTORS = {
    "uniforms": (
        lambda rs: rs.uniforms(4),
        ["0x1.7bae644c5fd6dp-1", "0x1.477f199d93378p-3",
         "0x1.1d499d5c4c3e6p-2", "0x1.607387fc392b8p-2"],
    ),
    "normals": (
        lambda rs: rs.normals(4),
        ["0x1.c3b620ee5015bp-1", "-0x1.cdab96fe79013p-2",
         "0x1.81bf069d25a44p-3", "0x1.c1b680ea2bc5dp-3"],
    ),
    "inverse_gammas_3_2": (
        lambda rs: rs.inverse_gammas(4, 3.0, 2.0),
        ["0x1.d352d6a2e4161p-2", "0x1.007fc2ec72788p+0",
         "0x1.56e87ce1a37a3p-1", "0x1.50ab471fc5c80p-1"],
    ),
    "inverse_gammas_0.7_1": (
        lambda rs: rs.inverse_gammas(4, 0.7, 1.0),
        ["0x1.0b5f466d035bdp+0", "0x1.93d734fd46aaep+1",
         "0x1.7e1d08e1e9c82p+1", "0x1.b01cc2bfea77ep-1"],
    ),
}


def marsaglia_tsang_round_with_squeeze(x, u, c, d):
    """One whole-array rejection round with the v > 0 mask and the squeeze
    u < 1 - 0.0331 x**4 beside the exact log test, the oracle."""
    v = (1.0 + c * x) ** 3
    pos = v > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.log(u) < 0.5 * x**2 + d - d * v + d * np.log(np.where(pos, v, 1.0))
    squeeze = u < 1.0 - 0.0331 * x**4
    return pos & (exact | squeeze), d * v


class TestMarsagliaTsangRound:
    # 1.3 is the boosted alpha of shape 0.3; 1 reaches v <= 0 (x <= -sqrt(6))
    @pytest.mark.parametrize("alpha", [1.3, 1.0, 19.5])
    def test_same_mask_and_dv_as_with_squeeze(self, alpha):
        n = 1_000_000
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        rs = kernels.RandomSource(int(alpha * 10))
        x, u = rs.normals(n), rs.uniforms(n)
        want_accept, want_dv = marsaglia_tsang_round_with_squeeze(x, u, c, d)
        dv = np.empty(n)
        accept = kernels._marsaglia_tsang_into(dv, x, u, c, d)
        assert np.array_equal(accept, want_accept)
        assert np.array_equal(dv.view(np.uint64), want_dv.view(np.uint64))
        if alpha == 1.0:
            assert (1.0 + c * x <= 0.0).any()


class TestRandomSource:
    @pytest.mark.parametrize("method", list(SEED42_VECTORS))
    def test_seed42_golden_vectors(self, method):
        draw, want = SEED42_VECTORS[method]
        assert [float(x).hex() for x in draw(kernels.RandomSource(42))] == want

    def test_same_seed_same_stream(self):
        a = kernels.RandomSource(42)
        b = kernels.RandomSource(42)
        assert np.array_equal(a.uniforms(10), b.uniforms(10))

    def test_different_seeds_differ(self):
        a = kernels.RandomSource(1)
        b = kernels.RandomSource(2)
        assert not np.array_equal(a.uniforms(5), b.uniforms(5))

    def test_uniform_range(self):
        rs = kernels.RandomSource(3)
        u = rs.uniforms(100_000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_normal_consumes_two_uniforms(self):
        a = kernels.RandomSource(5)
        a.normals(1)
        b = kernels.RandomSource(5)
        b.uniforms(2)
        assert np.array_equal(a.uniforms(3), b.uniforms(3))

    # 49157 ends inside a slice past the first boundary; 3 slices + 5 spans several
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 49157, 3 * kernels._SLICE + 5])
    @pytest.mark.parametrize("moved", [False, True])
    def test_normals_are_box_muller_on_interleaved_uniforms(self, n, moved):
        a = kernels.RandomSource(77)
        b = kernels.RandomSource(77)
        if moved:
            a.normals(3)
            a.uniforms(1)
            b.uniforms(7)
        before = a._count
        z = a.normals(n)
        assert a._count == before + 2 * n
        u = b.uniforms(2 * n)
        want = np.sqrt(-2.0 * np.log(1.0 - u[0::2])) * np.cos(2.0 * math.pi * u[1::2])
        assert np.array_equal(z.view(np.uint64), want.view(np.uint64))

    def test_raw_block_matches_scalar_splitmix64(self):
        # reference: the splitmix64 finalizer on Python integers, around the
        # slice boundaries where the block restarts from its ramp; the step-2
        # ramp is the one the fused normals run on the odd and even counters
        def mix64(seed, k):
            z = (seed + k * 0x9E3779B97F4A7C15) & kernels._U64_MASK
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & kernels._U64_MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & kernels._U64_MASK
            return z ^ (z >> 31)

        s = kernels._SLICE
        seed = 2**64 - 3
        rs = kernels.RandomSource(seed)
        rs._count = 5
        raw = rs._raw_block(2 * s + 3)
        for i in (0, 1, s - 1, s, s + 1, 2 * s, 2 * s + 2):
            assert int(raw[i]) == mix64(seed, 6 + i), i
        raw = np.empty(s, dtype=np.uint64)
        for k in (6, 7):
            kernels._splitmix(raw, np.empty_like(raw), kernels._ramp(s, 2), seed, k)
            for i in (0, 1, s - 2, s - 1):
                assert int(raw[i]) == mix64(seed, k + 2 * i), (k, i)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_normals_allocate_little_beyond_their_output(self, workers, monkeypatch):
        # two slices of scratch per worker and one shared ramp; no full-size temporaries
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        rs = kernels.RandomSource(8)
        tracemalloc.start()
        try:
            z = rs.normals(2_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * z.nbytes

    def test_normal_rows_are_the_normals_in_row_order(self, monkeypatch):
        # 1000-normal slices: 142-row blocks of 7, and a last block of one row
        monkeypatch.setattr(kernels, "_SLICE", 1000)
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        out = np.empty((142 * 16 + 1, 7))
        a, b = kernels.RandomSource(5), kernels.RandomSource(5)
        a.normal_rows(out)
        assert np.array_equal(out.reshape(-1), b.normals(out.size))
        assert a._count == b._count == 2 * out.size
        with pytest.raises(ValueError):
            a.normal_rows(np.empty((7, 100)).T)
        # with a transform the rows are written through it, in any layout
        fortran = np.empty(out.shape, order="F")
        a.normal_rows(fortran, lambda z, dst, rows: np.copyto(dst, z))
        assert np.array_equal(fortran.reshape(-1), b.normals(out.size))

    @pytest.mark.parametrize("shape", [19.5, 0.3])
    def test_inverse_gammas_allocate_few_draw_sized_buffers(self, shape):
        # the output, one round's normals and uniforms, and slice-sized scratch
        rs = kernels.RandomSource(8)
        tracemalloc.start()
        try:
            out = rs.inverse_gammas(1_000_000, shape, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * out.nbytes

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
            z = rs.normals(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slices = -(-n // kernels._SLICE)
        assert len(started) == slices // kernels._SERIAL_SLICES - 1
        ramp = kernels._SLICE * 8
        assert peak <= (1 + 2 / kernels._SERIAL_SLICES) * z.nbytes + 2 * ramp

    def test_normal_moments(self):
        rs = kernels.RandomSource(2024)
        z = rs.normals(1_000_000)
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
        rs = kernels.RandomSource(66)
        x = rs.inverse_gammas(200_000, 0.7, 1.0)
        assert (x > 0.0).all() and np.isfinite(x).all()
        # median of the reciprocal gamma: 1/median(Gamma(0.7, 1)) ~ 2.4545
        assert float(np.median(x)) == pytest.approx(2.4544, rel=0.02)

    def test_domain(self):
        rs = kernels.RandomSource(1)
        with pytest.raises(ValueError):
            rs.inverse_gammas(5, 0.0, 1.0)
        with pytest.raises(ValueError):
            rs.inverse_gammas(5, 1.0, -2.0)
