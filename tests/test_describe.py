"""Tests for the summary table and the one-way ANOVA.

ANOVA expectations are recomputed brute-force from group means inside each
test, with p-values cross-checked against scipy's F distribution.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from twinreg import (
    DataError,
    anova_by_month,
    anova_by_year,
    apply_transforms,
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


def brute_force_anova(values, groups):
    """F statistic from explicit group means; the oracle for one_way_anova."""
    values = np.asarray(values, dtype=float)
    keys = sorted(set(groups), key=list(groups).index)
    grand = values.mean()
    ssb = ssw = 0.0
    for key in keys:
        sub = values[[g == key for g in groups]]
        ssb += len(sub) * (sub.mean() - grand) ** 2
        ssw += float(np.sum((sub - sub.mean()) ** 2))
    df1, df2 = len(keys) - 1, len(values) - len(keys)
    return (ssb / df1) / (ssw / df2), df1, df2


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
            f, df1, df2 = brute_force_anova(values, groups)
            assert res.f_stat == pytest.approx(f, rel=1e-9)
            assert (res.df_between, res.df_within) == (df1, df2)

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


def masked_anova_f(values, groups):
    """F as one object-array mask per key computed it: the bit-for-bit reference."""
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
        f, _, _ = brute_force_anova(frame.loss, [d.month for d in frame.dates])
        assert res.f_stat == pytest.approx(f, rel=1e-12)

    def test_year_grouping(self):
        frame = tiny_frame()
        res = anova_by_year(frame)
        assert res.group_label == "year"
        assert res.k == 2
        f, _, _ = brute_force_anova(frame.loss, [d.year for d in frame.dates])
        assert res.f_stat == pytest.approx(f, rel=1e-12)
