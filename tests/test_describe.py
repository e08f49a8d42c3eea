"""Tests for the summary table and the one-way ANOVA.

ANOVA expectations are recomputed brute-force from group means inside each
test, with p-values cross-checked against scipy's F distribution.  The
Python-float stages are also swept, bit for bit, against the numpy forms they
replaced (``oracles.numpy_summarize`` and ``oracles.numpy_one_way_anova``).
"""

import datetime
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from oracles import numpy_one_way_anova, numpy_summarize
from twinreg import (
    DataError,
    ModelFrame,
    Observation,
    anova_by_month,
    anova_by_year,
    apply_transforms,
    floats,
    one_way_anova,
    parse_csv,
    summarize,
)

HEADER = "date,loss,total_pop,ratio,aplir,ffr,av_claims"


def tiny_frame():
    rows = [
        "2011-04-01,0.5,300000000,0.97,3.3,0.10,3000000",
        "2011-07-01,0.9,301000000,0.97,3.4,0.12,2900000",
        "2011-10-01,0.7,302000000,0.97,3.5,0.14,2800000",
        "2012-01-01,1.1,303000000,0.97,3.6,0.16,2700000",
        "2012-04-01,0.3,304000000,0.97,3.7,0.18,2600000",
    ]
    return apply_transforms(parse_csv(("\n".join([HEADER, *rows]) + "\n").encode()))


def masked_anova_f(values, groups):
    """F from explicit group means, one object-array mask per key: the
    bit-for-bit oracle for one_way_anova."""
    y = np.asarray(values, dtype=float)
    keys = list(dict.fromkeys(groups))
    k, n = len(keys), len(y)
    grand = y.mean()
    ssb = 0.0
    ssw = 0.0
    garr = np.asarray(groups, dtype=object)
    for key in keys:
        sub = y[garr == key]
        ssb += len(sub) * (sub.mean() - grand) ** 2
        ssw += float(np.sum((sub - sub.mean()) ** 2))
    return (ssb / (k - 1)) / (ssw / (n - k))


class TestSummarize:
    def test_rows_and_order(self):
        rows = summarize(tiny_frame())
        assert [r.name for r in rows] == [
            "Month", "Year", "AdjPop", "Ratio", "APLIR", "FFR", "ExpClaims", "Loss",
        ]

    def test_loss_row_values(self):
        loss = [0.5, 0.9, 0.7, 1.1, 0.3]
        row = summarize(tiny_frame())[-1]
        assert row.mean == pytest.approx(np.mean(loss))
        assert row.sd == pytest.approx(np.std(loss, ddof=1))
        assert row.median == pytest.approx(np.median(loss))
        assert row.min == 0.3
        assert row.max == 1.1

    def test_regressor_row(self):
        row = summarize(tiny_frame())[2]  # AdjPop
        pops = np.array([3.0, 3.01, 3.02, 3.03, 3.04])
        assert row.mean == pytest.approx(pops.mean())
        assert row.min == pytest.approx(3.0)


class TestOneWayAnova:
    # values whose grand mean and squares overflow: F is computed at a power
    # of two scale, so it is the F of the same values times 2**-600, without
    # warnings (no longer a data error)
    def test_overflowing_grand_mean_is_a_data_error_without_warnings(self):
        values, groups = np.array([1e308, 1e308, -1e308, 1.0, 2.0]), ["a", "a", "b", "b", "b"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr
            res = one_way_anova(values, groups)
            ref = one_way_anova(np.ldexp(values, -600), groups)
        assert (res.f_stat, res.p_value) == (ref.f_stat, ref.p_value)
        assert 0.0 < res.f_stat < math.inf

    def test_hand_computed_example(self):
        # A: 1,2,3 and B: 5,6,7 -> SSB=24, SSW=4, F=24
        res = one_way_anova([1, 2, 3, 5, 6, 7], ["a", "a", "a", "b", "b", "b"])
        assert res.f_stat == pytest.approx(24.0, rel=1e-12)
        assert (res.df_between, res.df_within) == (1, 4)
        assert res.p_value == pytest.approx(stats.f.sf(24.0, 1, 4), rel=1e-10)

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(8, 40))
            groups = list(rng.integers(0, 4, size=n))
            if len(set(groups)) < 2:
                continue
            values = rng.normal(size=n) + np.asarray(groups, dtype=float)
            res = one_way_anova(values, groups)
            k = len(set(groups))
            assert res.f_stat == pytest.approx(masked_anova_f(values, groups), rel=1e-9)
            assert (res.df_between, res.df_within) == (k - 1, n - k)

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=24)
        groups = list(rng.integers(0, 3, size=24))
        base = one_way_anova(values, groups)
        shifted = one_way_anova(values + 100.0, groups)
        scaled = one_way_anova(values * 7.5, groups)
        assert shifted.f_stat == pytest.approx(base.f_stat, rel=1e-9)
        assert scaled.f_stat == pytest.approx(base.f_stat, rel=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=18)
        groups = list(rng.integers(0, 3, size=18))
        perm = rng.permutation(18)
        base = one_way_anova(values, groups)
        shuffled = one_way_anova(values[perm], [groups[i] for i in perm])
        assert shuffled.f_stat == pytest.approx(base.f_stat, rel=1e-12)
        assert shuffled.p_value == pytest.approx(base.p_value, rel=1e-12)

    def test_group_count_reported_first_appearance(self):
        res = one_way_anova([1, 2, 3, 4], ["x", "y", "x", "y"], label="custom")
        assert res.group_label == "custom"
        assert res.k == 2
        assert res.n == 4

    def test_zero_within_variance(self):
        res = one_way_anova([1, 1, 2, 2], ["a", "a", "b", "b"])
        assert math.isinf(res.f_stat)
        assert res.p_value == 0.0

    def test_all_equal_values(self):
        res = one_way_anova([3, 3, 3, 3], ["a", "a", "b", "b"])
        assert res.f_stat == 0.0
        assert res.p_value == 1.0

    # values whose squares underflow: F is the F of the same values times
    # 2**900 (no longer refused)
    def test_values_whose_squares_underflow_are_refused(self):
        values, groups = np.array([1e-300, 2e-300, 1e-300, 3e-300]), ["a", "a", "b", "b"]
        res, ref = one_way_anova(values, groups), one_way_anova(np.ldexp(values, 900), groups)
        assert (res.f_stat, res.p_value) == (ref.f_stat, ref.p_value)
        assert res.f_stat == pytest.approx(0.2, rel=1e-12)  # SSB 0.25, SSW 2.5 in 1e-600 units
        res = one_way_anova([1e-300] * 4, ["a", "a", "b", "b"])  # constant, however small
        assert (res.f_stat, res.p_value) == (0.0, 1.0)

    def test_single_group_rejected(self):
        with pytest.raises(DataError):
            one_way_anova([1, 2, 3], ["a", "a", "a"])

    def test_all_singleton_groups_rejected(self):
        with pytest.raises(DataError):
            one_way_anova([1, 2, 3], ["a", "b", "c"])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            one_way_anova([1, 2], ["a"])


class TestContiguousGroupSums:
    """Each group reduced as one slice gives the masked reference's bits."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_string_groupings(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 300))
        labels = [f"g{i}" for i in rng.permutation(int(rng.integers(2, max(3, n // 2))))]
        groups = [labels[i] for i in rng.integers(0, len(labels), size=n)]
        groups[:2] = labels[:2]  # at least two groups, and fewer groups than values
        values = 10.0 ** rng.uniform(-5, 5) * rng.normal(size=n) + 10.0 ** rng.uniform(-5, 5)
        res = one_way_anova(values, groups)
        assert res.f_stat == masked_anova_f(values, groups)
        assert (res.k, res.n) == (len(set(groups)), n)

    def test_singleton_groups_and_unsorted_keys(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=9) * 1e5
        groups = ["z", "b", "z", "a", "q", "b", "z", "m", "b"]  # a, q and m are singletons
        res = one_way_anova(values, groups)
        assert res.f_stat == masked_anova_f(values, groups)
        assert res.k == 5

    @pytest.mark.parametrize("scale", [1e-5, 1e-2, 1.0, 1e3, 1e5])
    def test_value_scales(self, scale):
        rng = np.random.default_rng(int(scale * 1e5))
        values = scale * (rng.normal(size=120) + rng.integers(0, 3, size=120))
        groups = [int(v) for v in rng.integers(1990, 2020, size=120)]
        res = one_way_anova(values, groups)
        assert res.f_stat == masked_anova_f(values, groups)


class TestFrameGroupings:
    def test_month_grouping_uses_calendar_month(self):
        frame = tiny_frame()
        res = anova_by_month(frame)
        # dates cover Apr, Jul, Oct, Jan, Apr -> 4 calendar months
        assert res.group_label == "month"
        assert res.k == 4
        assert res.f_stat == masked_anova_f(frame.loss, [d.month for d in frame.dates])

    def test_year_grouping(self):
        frame = tiny_frame()
        res = anova_by_year(frame)
        assert res.group_label == "year"
        assert res.k == 2
        assert res.f_stat == masked_anova_f(frame.loss, [d.year for d in frame.dates])


def outcome(stage, *args):
    """stage(*args) as the hex of each float field of each result, or the error's text."""
    try:
        result = stage(*args)
    except DataError as exc:
        return str(exc)
    rows = result if isinstance(result, list) else [result]
    return [[v.hex() if isinstance(v, float) else v for v in vars(r).values()] for r in rows]


def frame_of(columns, loss):
    """A frame with five float regressor columns and the two time indices of len(loss) rows."""
    n = len(loss)
    years = tuple(i // 4 + 1 for i in range(n))
    return ModelFrame((), tuple(range(1, n + 1)), years, *columns, loss)


def random_column(rng, n, powers=(-1000, 1000)):
    """n normal draws about a random centre, times 2**k for a random k in powers,
    a third of them with repeated values; a zero is +0."""
    k = int(rng.integers(powers[0], powers[1] + 1))
    x = np.ldexp(rng.standard_normal(n) + rng.uniform(-4, 4), k)
    if rng.integers(3) == 0:
        x = rng.choice(x[: max(1, n // 4)], n)
    return tuple(v + 0.0 for v in x.tolist())


class TestNumpyOracleSweep:
    """summarize and one_way_anova give the numpy forms' bits, or their refusal lines.

    Mixed 0 and -0 in one column are left out: see TestSignedZeros.
    """

    @pytest.mark.parametrize("block", range(10))
    def test_random_frames(self, block):
        rng = np.random.default_rng(1000 + block)
        for _ in range(50):
            n = int(rng.integers(2, 401))
            frame = frame_of([random_column(rng, n) for _ in range(5)], random_column(rng, n))
            assert outcome(summarize, frame) == outcome(numpy_summarize, frame)
            if n < 3:
                continue
            k = int(rng.integers(2, n))  # 2 .. n - 1 groups, each one at least once
            codes = rng.permutation(np.r_[np.arange(k), rng.integers(0, k, n - k)])
            groups = [f"g{i}" for i in codes]
            values = frame.loss if rng.integers(2) else np.array(frame.loss)
            want = outcome(numpy_one_way_anova, frame.loss, groups)
            assert outcome(one_way_anova, values, groups) == want

    # scales where the output rule refuses some summaries, and ANOVA values
    # that are subnormal or zero
    def test_frames_at_the_ends_of_the_doubles(self):
        rng = np.random.default_rng(7)
        refused = 0
        for i in range(60):
            n = int(rng.integers(3, 60))
            powers = (1010, 1019) if i % 2 else (-1080, -1010)
            frame = frame_of([random_column(rng, n, powers) for _ in range(5)],
                             random_column(rng, n, powers))
            want = outcome(numpy_summarize, frame)
            assert outcome(summarize, frame) == want
            refused += isinstance(want, str)
            groups = [j % 2 for j in range(n)]
            assert outcome(one_way_anova, frame.loss, groups) == outcome(
                numpy_one_way_anova, frame.loss, groups
            )
        assert 0 < refused < 60

    @pytest.mark.parametrize("years", [2500, 9999])  # 10,000 and 39,996 rows
    def test_long_frames(self, years):
        rng = np.random.default_rng(years)
        dates = [datetime.date(y, m, 1) for y in range(1, years + 1) for m in (1, 4, 7, 10)]
        n = len(dates)
        draws = zip(rng.uniform(0, 3, n), rng.uniform(1e8, 4e8, n), rng.uniform(0.9, 1.1, n),
                    rng.uniform(2, 6, n), rng.uniform(0, 3, n), rng.uniform(0, 7e8, n))
        frame = apply_transforms([Observation(d, *map(float, r)) for d, r in zip(dates, draws)])
        assert len(frame) == 4 * years
        assert outcome(summarize, frame) == outcome(numpy_summarize, frame)
        for stage, key in ((anova_by_month, "month"), (anova_by_year, "year")):
            groups = [getattr(d, key) for d in frame.dates]
            assert outcome(stage, frame) == outcome(numpy_one_way_anova, frame.loss, groups, key)

    def test_pairwise_sum_adds_as_numpy_reduce(self):
        rng = np.random.default_rng(5)
        for n in range(1101):
            x = rng.standard_normal(n) * np.exp2(rng.integers(-30, 31, n))
            assert floats.pairwise_sum(x.tolist()).hex() == float(np.add.reduce(x)).hex(), n
        for n in (1, 7, 8, 9, 128, 129, 1100):
            want = float(np.add.reduce(np.full(n, -0.0))).hex()
            assert floats.pairwise_sum([-0.0] * n).hex() == want == "0x0.0p+0", n


class TestSignedZeros:
    """sorted() keeps 0 and -0 in input order; numpy's sort leaves their order to
    its SIMD kernel.  Only min, max and median can show the difference."""

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_zeros_keep_their_input_order(self, first, second):
        columns = [
            (1.0, first, 2.0, second, 3.0),  # AdjPop: min is the first zero
            (-1.0, first, -2.0, second, -3.0),  # Ratio: max is the last zero
            (first, second, 1.0, first, second),  # APLIR: median is the third zero
            (1.0, 2.0, 3.0, 4.0, 5.0),
            (1.0, 2.0, 3.0, 4.0, 5.0),
        ]
        frame = frame_of(columns, (first, 5.0, second, 1.0, 2.0))  # Loss: min is first
        rows = summarize(frame)
        sign = [math.copysign(1.0, v) for v in (rows[2].min, rows[3].max, rows[4].median)]
        assert sign == [math.copysign(1.0, v) for v in (first, second, first)]
        assert math.copysign(1.0, rows[7].min) == math.copysign(1.0, first)
        for got, ref in zip(rows, numpy_summarize(frame)):  # mean and sd do not sort
            assert (got.mean.hex(), got.sd.hex()) == (float(ref.mean).hex(), float(ref.sd).hex())
