"""Tests for the conjugate posterior sampler and its interval summaries.

Monte Carlo facts are checked against closed-form posterior moments, and the
posterior scale against 60-digit mpmath; the flat-prior limit must land on
the least-squares solution.  Interval helpers get brute-force oracles built
inside the tests.
"""

import dataclasses
import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import nig_posterior_by_mpmath, relative_error
from twinreg import (
    DataError,
    DesignMatrix,
    RandomSource,
    apply_transforms,
    bayes,
    build_design,
    credible_interval,
    default_prior,
    fit_ols,
    hdi_interval,
    kernels,
    parse_csv,
    pirope,
    rope_bounds,
    sample_posterior,
    summarize_posterior,
)
from twinreg.describe import median_of_sorted


FIXTURE = Path(__file__).resolve().parent.parent / "data" / "loanloss_quarterly.csv"


def make_design(seed=0, n=40, p=4, signal=True):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    beta = np.arange(1.0, p + 1.0) if signal else np.zeros(p)
    y = X @ beta + 0.5 * rng.normal(size=n)
    names = ("(Intercept)",) + tuple(f"x{j}" for j in range(1, p))
    return DesignMatrix(X=X, y=y, names=names)


class TestDefaultPrior:
    def test_auto_scaled_values(self):
        d = make_design(seed=1)
        prior = default_prior(d)
        sd_y = float(np.std(d.y, ddof=1))
        assert prior.coef_mean[0] == pytest.approx(float(np.mean(d.y)))
        assert np.all(prior.coef_mean[1:] == 0.0)
        assert prior.coef_sd[0] == pytest.approx(2.5 * sd_y)
        for j in range(1, 4):
            sd_x = float(np.std(d.X[:, j], ddof=1))
            assert prior.coef_sd[j] == pytest.approx(2.5 * sd_y / sd_x)
        assert prior.sigma2_shape == 1.0
        assert prior.sigma2_scale is None

    def test_scalar_override(self):
        d = make_design(seed=2)
        prior = default_prior(d, coef_sd=7.0)
        assert np.all(prior.coef_sd == 7.0)

    def test_bad_override(self):
        with pytest.raises(DataError):
            default_prior(make_design(), coef_sd=0.0)

    # fit_ols refuses this design as rank deficient first, so no command
    # reaches the prior's own check
    def test_constant_regressor_is_named(self):
        d = make_design()
        d.X[:, 2] = 0.25
        with pytest.raises(DataError, match="^regressor 'x2' is constant; cannot auto-scale"):
            default_prior(d)
        assert default_prior(d, coef_sd=1.0).coef_sd[2] == 1.0

    # values whose variance overflows a double: the sds are taken at a power
    # of two scale, so the prior is the one of the same column times 2**-900
    # (no longer a data error), scaled back exactly
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("column", [0, 2])  # the response, a regressor
    def test_overflowing_variance_is_data_error(self, column):
        d, ref = make_design(), make_design()
        for design, k in ((d, 0), (ref, -900)):
            data = design.y if column == 0 else design.X[:, column]
            data[:3] = 1e300
            data *= 2.0**k
        prior, want = default_prior(d), default_prior(ref)
        if column == 0:  # the response: every sd and the intercept's mean
            want.coef_mean = np.ldexp(want.coef_mean, 900)
            want.coef_sd = np.ldexp(want.coef_sd, 900)
        else:  # that regressor's sd alone
            want.coef_sd[column] = math.ldexp(want.coef_sd[column], -900)
        assert np.array_equal(prior.coef_mean, want.coef_mean)
        assert np.array_equal(prior.coef_sd, want.coef_sd)

    def test_validate_rejects_bad_shapes(self):
        d = make_design()
        prior = default_prior(d)
        prior.coef_sd = prior.coef_sd[:-1]
        with pytest.raises(DataError):
            prior.validate(d.p)

    def test_validate_rejects_nonpositive_sd(self):
        d = make_design()
        prior = default_prior(d)
        prior.coef_sd = prior.coef_sd.copy()
        prior.coef_sd[1] = 0.0
        with pytest.raises(DataError):
            prior.validate(d.p)

    def test_validate_rejects_bad_sigma2(self):
        d = make_design()
        prior = default_prior(d)
        prior.sigma2_shape = -1.0
        with pytest.raises(DataError):
            prior.validate(d.p)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("what", ["shape", "scale"])
    def test_validate_rejects_non_finite_sigma2(self, what, value):
        d = make_design()
        prior = default_prior(d)
        setattr(prior, f"sigma2_{what}", value)
        with pytest.raises(DataError, match=f"^sigma2 prior {what} must be finite and positive"):
            prior.validate(d.p)


class TestSamplePosterior:
    def test_peak_allocation_is_bounded(self):
        # the draws plus at most three draw-sized buffers while they are made
        d = make_design(seed=16, p=8)
        fit, prior = fit_ols(d), default_prior(d)
        tracemalloc.start()
        try:
            post = sample_posterior(d, fit, prior, 200_000, RandomSource(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * post.beta.nbytes

    def test_a_spread_below_the_normal_doubles_names_the_prior(self):
        # an exact fit at the prior mean leaves b_n = b_0, here 2**-1060 at the
        # fit's scale, and a prior sd of 2**-502 there makes 2**m / L_jj, each
        # column's spread, 2**-1030; in response units the sigma2 draws fit
        x = np.tile([-1.0, 1.0], 4)
        y = np.ldexp(3.0 + 2.0 * x, 100)
        d = DesignMatrix(X=np.column_stack([np.ones(8), x]), y=y, names=("(Intercept)", "x"))
        fit = dataclasses.replace(fit_ols(d), sigma2_hat=0.0)
        prior = default_prior(d, coef_sd=2.0**-400, sigma2_scale=2.0**-854)
        prior.coef_mean[1] = math.ldexp(2.0, 100)
        with pytest.raises(DataError, match=r"^prior sd of '\(Intercept\)' too small: 3\.87259e-121$"):
            sample_posterior(d, fit, prior, 1000, RandomSource(1))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_draws_are_made_block_by_block(self, workers, monkeypatch):
        # beta and sigma2 plus a few blocks of scratch per worker: the normals
        # are never all alive beside beta
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        d = make_design(seed=16, p=8)
        fit, prior = fit_ols(d), default_prior(d)
        tracemalloc.start()
        try:
            post = sample_posterior(d, fit, prior, 200_000, RandomSource(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * post.beta.nbytes

    def test_minimum_draws_enforced(self):
        d = make_design()
        with pytest.raises(ValueError):
            sample_posterior(d, fit_ols(d), default_prior(d), 999, RandomSource(1))

    def test_shapes_and_positivity(self):
        d = make_design()
        post = sample_posterior(d, fit_ols(d), default_prior(d), 2000, RandomSource(1))
        assert post.beta.shape == (2000, 4)
        assert post.sigma2.shape == (2000,)
        assert np.all(post.sigma2 > 0)
        assert post.names == d.names

    def test_same_seed_reproduces(self):
        d = make_design()
        fit, prior = fit_ols(d), default_prior(d)
        a = sample_posterior(d, fit, prior, 1500, RandomSource(99))
        b = sample_posterior(d, fit, prior, 1500, RandomSource(99))
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.sigma2, b.sigma2)
        c = sample_posterior(d, fit, prior, 1500, RandomSource(100))
        assert not np.array_equal(a.beta, c.beta)

    def test_flat_prior_matches_least_squares(self):
        d = make_design(seed=5)
        fit = fit_ols(d)
        post = sample_posterior(d, fit, default_prior(d, coef_sd=1e6), 40_000, RandomSource(3))
        med = np.median(post.beta, axis=0)
        mc_se = post.beta.std(axis=0, ddof=1) / np.sqrt(40_000)
        assert np.all(np.abs(med - fit.estimates) < 5 * mc_se)

    def test_flat_prior_slope_spread_matches_closed_form(self):
        d = make_design(seed=6)
        n, p = d.n, d.p
        fit = fit_ols(d)
        s2 = fit.sigma2_hat
        post = sample_posterior(d, fit, default_prior(d, coef_sd=1e8), 60_000, RandomSource(4))
        # marginal slope variance: E[sigma2] * diag((X'X)^-1), flat-prior limit
        a_n = 1.0 + n / 2.0
        b_n = s2 + float(fit.residuals @ fit.residuals) / 2.0
        exp_sigma2 = b_n / (a_n - 1.0)
        xtx_inv = np.linalg.inv(d.X.T @ d.X)
        for j in range(1, p):
            want = np.sqrt(exp_sigma2 * xtx_inv[j, j])
            got = post.beta[:, j].std(ddof=1)
            assert got == pytest.approx(want, rel=0.03)

    def test_sigma2_moments_match_inverse_gamma(self):
        d = make_design(seed=7)
        fit = fit_ols(d)
        post = sample_posterior(d, fit, default_prior(d, coef_sd=1e8), 60_000, RandomSource(5))
        a_n = 1.0 + d.n / 2.0
        b_n = fit.sigma2_hat + float(fit.residuals @ fit.residuals) / 2.0
        assert post.sigma2.mean() == pytest.approx(b_n / (a_n - 1.0), rel=0.03)

    def test_tight_prior_shrinks_slopes(self):
        d = make_design(seed=8, signal=True)
        fit = fit_ols(d)
        flat = sample_posterior(d, fit, default_prior(d, coef_sd=1e6), 4000, RandomSource(6))
        tight = sample_posterior(d, fit, default_prior(d, coef_sd=1e-4), 4000, RandomSource(6))
        med_flat = np.median(flat.beta, axis=0)
        med_tight = np.median(tight.beta, axis=0)
        for j in range(1, 4):
            assert abs(med_tight[j]) < 0.05 * abs(med_flat[j])


class TestPosteriorScale:
    # the largest error of the recovered b_n in a sweep of these four priors
    # over OpenBLAS's SkylakeX, Haswell and Prescott kernels was 7.4e-16
    @pytest.mark.parametrize("coef_sd", [None, 1.0, 1e-6, 1e-20])
    def test_sigma2_draws_recover_b_n_to_a_few_ulps(self, coef_sd):
        d = build_design(apply_transforms(parse_csv(FIXTURE.read_bytes())))
        fit, prior = fit_ols(d), default_prior(d, coef_sd=coef_sd)
        post = sample_posterior(d, fit, prior, 1000, RandomSource(3))
        # sigma2 is b_n / g at the fit's scale, the unit draws 1 / g of the same g
        unit = RandomSource(3).inverse_gammas(1000, prior.sigma2_shape + 0.5 * d.n, 1.0)
        ratio = np.ldexp(post.sigma2, -2 * fit.y_exp) / unit
        b_n = float(np.median(ratio))
        assert np.abs(ratio - b_n).max() <= 3 * np.spacing(b_n)
        assert relative_error(b_n, nig_posterior_by_mpmath(d, fit, prior).b_n) <= 1e-15


class TestRopeBounds:
    def test_tenth_of_sd(self):
        loss = [1.0, 2.0, 3.0, 4.0]
        sd = float(np.std(loss, ddof=1))
        lo, hi = rope_bounds(loss)
        assert hi == pytest.approx(sd / 10.0)
        assert lo == -hi

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            rope_bounds([1.0])


class TestCredibleInterval:
    def test_matches_quantiles(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=5000)
        lo, hi = credible_interval(x, 0.89)
        assert lo == pytest.approx(float(np.quantile(x, 0.055)))
        assert hi == pytest.approx(float(np.quantile(x, 0.945)))

    def test_domain_errors(self):
        x = np.arange(500.0)
        with pytest.raises(ValueError):
            credible_interval(x[:99], 0.89)
        with pytest.raises(ValueError):
            credible_interval(x, 0.0)
        with pytest.raises(ValueError):
            credible_interval(x, 1.0)


class TestHdiInterval:
    def test_matches_brute_force_shortest_window(self):
        rng = np.random.default_rng(10)
        x = np.sort(rng.gamma(2.0, 1.0, size=2000))  # right-skewed
        lo, hi = hdi_interval(x, 0.89)
        m = int(np.ceil(0.89 * len(x)))
        widths = [(x[i + m - 1] - x[i], i) for i in range(len(x) - m + 1)]
        spread, i = min(widths)
        assert (lo, hi) == (x[i], x[i + m - 1])

    def test_narrower_than_equal_tails_when_skewed(self):
        rng = np.random.default_rng(11)
        x = rng.gamma(2.0, 1.0, size=20_000)
        h_lo, h_hi = hdi_interval(x, 0.89)
        c_lo, c_hi = credible_interval(x, 0.89)
        assert (h_hi - h_lo) < (c_hi - c_lo)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hdi_interval(np.arange(50.0), 0.89)

    def test_level_that_needs_every_draw_spans_them_all(self):
        x = np.random.default_rng(12).permutation(np.linspace(-3.0, 5.0, 100))
        assert math.ceil(0.995 * len(x)) == len(x)
        assert hdi_interval(x, 0.995) == (-3.0, 5.0)


@pytest.mark.parametrize("interval", [credible_interval, hdi_interval])
class TestIntervalArguments:
    # both estimators refuse with the same two messages, the draw count first
    def test_fewer_than_100_draws(self, interval):
        for n in (0, 1, 99):
            with pytest.raises(ValueError) as exc:
                interval(np.arange(float(n)), 0.89)
            assert str(exc.value) == f"{interval.__name__} needs at least 100 draws, got {n}"
        with pytest.raises(ValueError) as exc:
            interval(np.arange(99.0), 1.5)
        assert str(exc.value) == f"{interval.__name__} needs at least 100 draws, got 99"

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_level_outside_0_1(self, interval, level):
        with pytest.raises(ValueError) as exc:
            interval(np.arange(100.0), level)
        assert str(exc.value) == f"level must lie in (0, 1), got {level}"

    def test_100_draws_and_a_level_inside_are_taken(self, interval):
        lo, hi = interval(np.arange(100.0), 0.5)
        assert 0.0 <= lo < hi <= 99.0


class TestPirope:
    def test_hand_computed_fraction(self):
        draws = np.arange(100.0)
        # 80 draws land in the interval, 10 of them inside the rope
        value = pirope(draws, (10.0, 89.0), (0.0, 19.5))
        assert value == pytest.approx(12.5)

    def test_bounds_are_inclusive(self):
        draws = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert pirope(draws, (0.0, 4.0), (1.0, 3.0)) == pytest.approx(60.0)
        assert pirope(draws, (1.0, 3.0), (3.0, 9.0)) == pytest.approx(100.0 / 3.0)

    def test_disjoint_rope_gives_zero(self):
        draws = np.arange(100.0)
        assert pirope(draws, (0.0, 99.0), (200.0, 300.0)) == 0.0

    def test_empty_interval_raises(self):
        draws = np.arange(100.0)
        with pytest.raises(DataError):
            pirope(draws, (0.25, 0.75), (0.0, 1.0))

    def test_monotone_in_rope_width(self):
        rng = np.random.default_rng(12)
        draws = rng.normal(size=3000)
        ci = credible_interval(draws, 0.89)
        last = -1.0
        for width in np.linspace(0.0, 3.0, 13):
            value = pirope(draws, ci, (-width, width))
            assert value >= last
            last = value


class TestSummarizePosterior:
    def test_fields_are_consistent(self):
        d = make_design(seed=13)
        post = sample_posterior(d, fit_ols(d), default_prior(d), 3000, RandomSource(7))
        out = summarize_posterior(post, d.y)
        assert [s.name for s in out] == list(d.names)
        rope = rope_bounds(d.y)
        for j, s in enumerate(out):
            col = post.beta[:, j]
            assert s.median == pytest.approx(float(np.median(col)))
            lo, hi = credible_interval(col, 0.89)
            assert (s.ci_low, s.ci_high) == (lo, hi)
            assert s.ci_midpoint == pytest.approx((lo + hi) / 2.0)
            assert (s.rope_low, s.rope_high) == rope
            assert s.pirope == pytest.approx(pirope(col, (lo, hi), rope))

    def test_hdi_mode(self):
        d = make_design(seed=14)
        post = sample_posterior(d, fit_ols(d), default_prior(d), 3000, RandomSource(8))
        out = summarize_posterior(post, d.y, use_hdi=True)
        col = post.beta[:, 1]
        assert (out[1].ci_low, out[1].ci_high) == hdi_interval(col, 0.89)

    def test_level_is_respected(self):
        d = make_design(seed=15)
        post = sample_posterior(d, fit_ols(d), default_prior(d), 3000, RandomSource(9))
        narrow = summarize_posterior(post, d.y, level=0.5)
        wide = summarize_posterior(post, d.y, level=0.99)
        assert narrow[1].ci_high - narrow[1].ci_low < wide[1].ci_high - wide[1].ci_low

    @pytest.mark.parametrize("use_hdi", [False, True])
    def test_sorted_columns_skip_the_ascending_check(self, monkeypatch, use_hdi):
        d = make_design(seed=16)
        post = sample_posterior(d, fit_ols(d), default_prior(d), 3000, RandomSource(10))
        want = summarize_posterior(post, d.y, use_hdi=use_hdi)
        kinds = []
        ascending = bayes._ascending

        def recording(draws):
            kinds.append(type(draws))
            return ascending(draws)

        monkeypatch.setattr(bayes, "_ascending", recording)
        got = summarize_posterior(post, d.y, use_hdi=use_hdi)
        assert kinds == [bayes._SortedColumn] * (2 * d.p)
        assert [(s.ci_low, s.ci_high, s.pirope) for s in got] == [
            (s.ci_low, s.ci_high, s.pirope) for s in want
        ]

    # draws in [1, 2) times 2**k: at k = -1018 neighbouring draws differ by a
    # subnormal, which the quantile's interpolation rounds coarsely unless it
    # is scaled up, and at 1023 the sums of the median and the midpoint overflow
    @pytest.mark.parametrize("use_hdi", [False, True])
    @pytest.mark.parametrize("k", [-1018, 1023])
    def test_summaries_scale_with_the_draws(self, k, use_hdi):
        x = 1.0 + np.random.default_rng(22).random(1000)

        def summary(e):
            post = bayes.PosteriorDraws(np.ldexp(x, e)[:, None], np.ones(len(x)), ("b",))
            (s,) = summarize_posterior(post, [1.0, 2.0], use_hdi=use_hdi)
            return [s.median, s.ci_low, s.ci_high, s.ci_midpoint]

        assert summary(k) == [math.ldexp(v, k) for v in summary(0)]


class TestThreadUse:
    def test_traced_names_run_on_the_main_thread(self, monkeypatch):
        # bench/tracer.py wraps these names with one span stack, which a call
        # from a worker thread would corrupt
        monkeypatch.setattr(kernels, "_WORKERS", 2)
        monkeypatch.setattr(kernels, "_SLICE", 4096)
        seen = {}

        def record(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                seen.setdefault(name, set()).add(threading.get_ident())
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("credible_interval", "hdi_interval", "pirope"):
            record(bayes, name)
        record(RandomSource, "inverse_gammas")
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        d = make_design(seed=21, p=8)
        # 150k draws in 4096-output slices: long enough that the normals and
        # the first inverse-gamma round take their threaded path
        post = sample_posterior(d, fit_ols(d), default_prior(d), 150_000, RandomSource(12))
        for use_hdi in (False, True):
            summarize_posterior(post, d.y, use_hdi=use_hdi)
        assert {"credible_interval", "hdi_interval", "pirope", "inverse_gammas"} <= set(seen)
        assert all(ids == {threading.get_ident()} for ids in seen.values()), seen
        assert started  # the threaded path did run


class TestThreadedSummary:
    """Columns sorted in place, a run of them per worker thread, give the
    summaries of copies sorted with np.sort."""

    S = kernels._SLICE

    @staticmethod
    def draws(n, p=8):
        rng = np.random.default_rng(n)
        beta = np.asfortranarray(rng.normal(size=(n, p)) * np.arange(1.0, p + 1.0))
        beta[:, 1] = np.round(beta[:, 1])  # long runs of ties
        names = tuple(f"b{j}" for j in range(p))
        return bayes.PosteriorDraws(beta=beta, sigma2=np.ones(n), names=names), rng.normal(size=37)

    @staticmethod
    def check_against_copies(got, post, before, loss, use_hdi):
        # every field, bit for bit, from a copy of each column sorted by np.sort
        interval = hdi_interval if use_hdi else credible_interval
        rope = rope_bounds(loss)
        for j, s in enumerate(got):
            ranked = np.sort(before[:, j])
            lo, hi = interval(ranked, 0.89)
            assert s.name == post.names[j]
            assert np.array_equal(post.beta[:, j], ranked)
            assert s.median == median_of_sorted(ranked)
            assert (s.ci_low, s.ci_high, s.ci_midpoint) == (lo, hi, 0.5 * (lo + hi))
            assert (s.rope_low, s.rope_high) == rope
            assert s.pirope == pirope(ranked, (lo, hi), rope)

    @pytest.mark.parametrize("use_hdi", [False, True])
    @pytest.mark.parametrize("n", [S, S + 1, 2 * S, 2 * S + 1])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_fields_match_serial_sorts(self, workers, n, use_hdi, monkeypatch):
        # 8 columns of n draws take 8 * ceil(n / S) slices, and a worker
        # takes at least 8: one thread up to S draws, two up to 2S, then three
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        post, loss = self.draws(n)
        before = post.beta.copy()
        got = summarize_posterior(post, loss, level=0.89, use_hdi=use_hdi)
        used = min(workers, -(-n // self.S))
        assert len(started) == used - 1  # one job per worker, the first on the caller
        self.check_against_copies(got, post, before, loss, use_hdi)

    @pytest.mark.parametrize("use_hdi", [False, True])
    @pytest.mark.parametrize("n", [1000, 2 * S + 1, 200_003])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_columns_are_sorted_in_place(self, workers, n, use_hdi, monkeypatch):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        post, loss = self.draws(n)
        before = post.beta.copy()
        got = summarize_posterior(post, loss, level=0.89, use_hdi=use_hdi)
        self.check_against_copies(got, post, before, loss, use_hdi)
        for j in range(post.beta.shape[1]):
            col = post.beta[:, j]
            assert (col[1:] >= col[:-1]).all()
            # a permutation of the column before, in values: numpy's vectorized
            # sort may trade the bits of -0.0 and 0.0, so the bits are those
            # np.sort gives a copy
            ranked = np.sort(before[:, j])
            assert np.array_equal(col, ranked)
            assert np.array_equal(col.view(np.uint64), ranked.view(np.uint64))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_summaries_allocate_no_column_sized_buffer(self, workers, monkeypatch):
        # the sorts run in place; the HDI's window widths are the one
        # draw-sized temporary, (1 - level) of a column
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        post, loss = self.draws(200_000)
        column = post.beta[:, 0].nbytes
        for use_hdi in (False, True):
            tracemalloc.start()
            try:
                summarize_posterior(post, loss, use_hdi=use_hdi)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 0.25 * column


def mask_pirope(x, ci, rope):
    """PIROPE from boolean masks over unsorted draws (the definition)."""
    in_ci = (x >= ci[0]) & (x <= ci[1])
    in_both = in_ci & (x >= rope[0]) & (x <= rope[1])
    return 100.0 * int(in_both.sum()) / int(in_ci.sum())


def oracle_columns():
    rng = np.random.default_rng(17)
    sizes = [1000, 1001, 10_000, 123_457]
    sizes += [int(rng.integers(100, 50_000)) * 2 + k for k in (0, 1, 0, 1)]
    for n in sizes:
        yield f"normal-{n}", rng.normal(size=n)
        yield f"gamma-{n}", rng.gamma(2.0, 1.0, size=n)
        # few distinct values: long runs of ties at every quantile
        yield f"ties-{n}", rng.integers(-5, 6, size=n) * 0.25


class TestSortedColumnOracles:
    """Bitwise agreement of the one-sort summaries with numpy on unsorted draws."""

    LEVELS = (0.5, 0.89, 0.95, 0.999)

    @pytest.mark.parametrize("label, x", list(oracle_columns()))
    def test_quantiles_median_and_pirope(self, label, x):
        ranked = np.sort(x)
        assert median_of_sorted(ranked) == float(np.median(x))
        sd = float(x.std())
        for level in self.LEVELS:
            alpha = (1.0 - level) / 2.0
            want = tuple(float(v) for v in np.quantile(x, [alpha, 1.0 - alpha]))
            got = credible_interval(ranked, level)
            assert got == want, (level, got, want)
            assert credible_interval(x, level) == want
            lo, hi = got
            ropes = {
                "disjoint": (hi + sd, hi + 2 * sd),
                "inside": (lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)),
                "overlapping": (lo - sd, 0.5 * (lo + hi)),
                "covering": (lo - sd, hi + sd),
                "on the bounds": (lo, hi),
            }
            for kind, rope in ropes.items():
                want_p = mask_pirope(x, got, rope)
                assert pirope(ranked, got, rope) == want_p, (level, kind)
                assert pirope(x, got, rope) == want_p, (level, kind)
            assert hdi_interval(ranked, level) == hdi_interval(x, level)
            column = ranked.view(bayes._SortedColumn)
            assert hdi_interval(column, level) == hdi_interval(x, level)
            assert credible_interval(column, level) == want

    def test_index_is_n_minus_one_times_q(self):
        # at n = 1001 and level 0.89 numpy's index (n-1)q is 945.0000000000001,
        # a hair past x[945]; the textbook n*q + (1-q) - 1 lands on 945.0 and
        # would return x[945] itself
        x = np.arange(1001.0) ** 2
        q = 1.0 - (1.0 - 0.89) / 2.0
        hi = credible_interval(x, 0.89)[1]
        assert hi == float(np.quantile(x, q))
        assert hi != x[945]

    def test_half_weight_interpolates_from_the_upper_neighbour(self):
        # (n-1)q = 25.5 here; with a = 1 and b = 2**53 + 2 the difference b - a
        # rounds, so a + (b-a)/2 and b - (b-a)/2 differ and only numpy's
        # choice of b - (b-a)(1-g) at g >= 0.5 reproduces np.quantile
        x = np.concatenate([np.ones(26), np.full(77, 2.0**53 + 2)])
        lo = credible_interval(x, 0.5)[0]
        assert lo == float(np.quantile(x, 0.25)) == 2.0**52 + 2
