"""Tests for the command-line interface: exit codes, formats, and streams."""

import argparse
import gc
import json
import math
import warnings
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oracles import nig_posterior_by_mpmath
from scaling import OUTPUT_REFUSAL, REPORT_NAME, same_report
from twinreg import DataError, bayes, cli, data, floats, ols
from twinreg.cli import build_parser, main

FIXTURE = str(Path(__file__).resolve().parent.parent / "data" / "loanloss_quarterly.csv")

HEADER = "date,loss,total_pop,ratio,aplir,ffr,av_claims"


@pytest.fixture()
def run(capfdbinary):
    def invoke(*args):
        code = main(list(args))
        cap = capfdbinary.readouterr()
        return code, cap.out, cap.err.decode()

    return invoke


def small_csv(tmp_path, rows, name="small.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    return str(path)


def check_medians(parameters, d, fit, prior, k, draws=10_000):
    """Each sampled median is its marginal's closed-form location c'mu_n.

    The marginal is a Student-t with 2 a_n degrees of freedom, so a median of
    N draws has a Monte Carlo standard error of 1 / (2 f(0) sqrt(N)), with f
    its density.  Fixed from the --coef-sd sweep at seed 42: the worst error
    was 3.07 of those (3.60 over seeds 1-8), and where the posterior is far
    narrower than a double's resolution, as the intercept's under a strong
    prior, 1.5 * 2**-52 of the location.
    """
    post = nig_posterior_by_mpmath(d, fit, prior)
    nu = 2 * post.a_n
    f0 = mpmath.gamma((nu + 1) / 2) / (mpmath.gamma(nu / 2) * mpmath.sqrt(nu * mpmath.pi))
    for par, loc, scale in zip(parameters, post.loc, post.scale):
        mcse = scale / (2 * f0 * mpmath.sqrt(draws))
        assert abs(par["median"] - loc) <= 4 * mcse + 4 * 2.0**-52 * abs(loc), (k, par["name"])


class TestHappyPaths:
    def test_describe_text(self, run):
        code, out, err = run("describe", "--input", FIXTURE)
        assert code == 0
        assert err == ""
        assert b"== Descriptive Statistics ==" in out
        assert b"Loss" in out

    def test_describe_json(self, run):
        code, out, _ = run("describe", "--input", FIXTURE, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [r["name"] for r in doc["descriptive"]][-1] == "Loss"

    def test_anova_group_choices(self, run):
        code, out, _ = run("anova", "--input", FIXTURE, "--format", "json")
        assert code == 0
        assert json.loads(out)["anova"][0]["group"] == "month"
        code, out, _ = run(
            "anova", "--input", FIXTURE, "--group", "year", "--format", "json"
        )
        assert json.loads(out)["anova"][0]["group"] == "year"

    def test_ols_json_has_all_terms(self, run):
        code, out, _ = run("ols", "--input", FIXTURE, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [t["term"] for t in doc["ols"]["terms"]] == [
            "(Intercept)", "Month", "Year", "AdjPop", "Ratio", "APLIR", "FFR", "ExpClaims",
        ]
        assert "diagnostics" in doc["ols"]

    def test_bayes_runs_and_is_seeded(self, run):
        args = ("bayes", "--input", FIXTURE, "--format", "json", "--draws", "2000", "--seed", "7")
        code_a, out_a, _ = run(*args)
        code_b, out_b, _ = run(*args)
        assert code_a == code_b == 0
        assert out_a == out_b
        doc = json.loads(out_a)
        assert len(doc["bayes"]["parameters"]) == 8

    def test_bayes_seed_changes_output(self, run):
        base = ("bayes", "--input", FIXTURE, "--format", "json", "--draws", "2000")
        _, out_a, _ = run(*base, "--seed", "1")
        _, out_b, _ = run(*base, "--seed", "2")
        assert out_a != out_b

    def test_bayes_hdi_flag(self, run):
        code, out, _ = run(
            "bayes", "--input", FIXTURE, "--draws", "2000", "--hdi", "--format", "json"
        )
        assert code == 0
        json.loads(out)

    def test_verdict_text(self, run):
        code, out, _ = run("verdict", "--input", FIXTURE, "--draws", "2000")
        assert code == 0
        assert b"== Combined Verdict ==" in out
        assert b"significant:" in out

    def test_report_contains_every_section(self, run):
        code, out, _ = run("report", "--input", FIXTURE, "--draws", "2000", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"descriptive", "anova", "ols", "bayes", "verdict"}
        assert {a["group"] for a in doc["anova"]} == {"month", "year"}

    def test_text_and_json_agree_on_estimates(self, run):
        _, out_t, _ = run("ols", "--input", FIXTURE)
        _, out_j, _ = run("ols", "--input", FIXTURE, "--format", "json")
        doc = json.loads(out_j)
        for term in doc["ols"]["terms"]:
            assert f"{term['estimate']:.3g}".encode() in out_t


class TestAggregate:
    def daily_csv(self, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_text(
            "date,value\n2011-03-01,2.0\n2011-03-15,\n2011-03-20,4.0\n2011-04-02,9.0\n"
        )
        return str(path)

    def test_text_output(self, run, tmp_path):
        code, out, _ = run(
            "aggregate", "--input", self.daily_csv(tmp_path), "--quarter-start", "2011-04-01"
        )
        assert code == 0
        assert out.strip() == b"3.0"

    def test_json_output(self, run, tmp_path):
        code, out, _ = run(
            "aggregate", "--input", self.daily_csv(tmp_path),
            "--quarter-start", "2011-04-01", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {"quarter_start": "2011-04-01", "prior_month_mean": 3.0}

    @pytest.mark.parametrize(
        "fmt, want",
        [
            ("text", b"3.25\n"),
            ("json", b'{\n  "quarter_start": "2011-04-01",\n  "prior_month_mean": 3.25\n}\n'),
        ],
    )
    def test_stdout_is_pinned(self, run, tmp_path, fmt, want):
        # columns swapped, a blank line, empty and blank values, padded cells
        path = tmp_path / "daily.csv"
        path.write_text(
            "value,date\n2.0,2011-03-01\n\n,2011-03-15\n  ,2011-03-20\n"
            "4.5, 2011-03-31 \n9.0,2011-04-02\n0.1,2011-02-28\n"
        )
        code, out, err = run(
            "aggregate", "--input", str(path), "--quarter-start", "2011-04-01", "--format", fmt
        )
        assert (code, out, err) == (0, want, "")

    def test_malformed_quarter_start(self, run, tmp_path):
        code, _, err = run(
            "aggregate", "--input", self.daily_csv(tmp_path), "--quarter-start", "soon"
        )
        assert code == 1
        assert err.startswith("data error:")

    def test_quarter_start_must_start_a_quarter(self, run, tmp_path):
        code, out, err = run(
            "aggregate", "--input", self.daily_csv(tmp_path), "--quarter-start", "2011-04-17"
        )
        assert (code, out) == (1, b"")
        assert err == (
            "data error: 2011-04-17 is not a quarter start "
            "(expected the first of Jan/Apr/Jul/Oct)\n"
        )

    def test_duplicate_daily_date_is_parse_error(self, run, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_text("date,value\n2011-03-01,1\n2011-03-01,1\n2011-03-02,4\n")
        code, out, err = run("aggregate", "--input", str(path), "--quarter-start", "2011-04-01")
        assert (code, out) == (1, b"")
        assert err == "parse error: line 3: duplicate date 2011-03-01 (first seen on line 2)\n"

    # the mean is formed at the values' power-of-two scale, so a sum beyond a
    # double's range still gives the mean, which is one
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_mean_whose_sum_overflows_is_answered(self, run, tmp_path, fmt):
        path = tmp_path / "daily.csv"
        for values, mean in [
            (["1e308", "1e308"], 1e308),
            (["1.7e308", "1.7e308"], 1.7e308),
            (["1e308", "1e308", "-1e308"], 1e308 / 3),
        ]:
            rows = [f"2011-03-{d:02d},{v}" for d, v in enumerate(values, 1)]
            path.write_text("\n".join(["date,value", *rows]) + "\n")
            code, out, err = run(
                "aggregate", "--input", str(path), "--quarter-start", "2011-04-01", "--format", fmt
            )
            assert (code, err) == (0, "")
            if fmt == "json":
                assert json.loads(out)["prior_month_mean"] == mean
            else:
                assert out == f"{mean!r}\n".encode()

    # a subnormal mean is refused by the output rule, as every other stage refuses one
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_subnormal_mean_is_one_data_error_line(self, run, tmp_path, fmt):
        path = tmp_path / "daily.csv"
        path.write_text("date,value\n2011-03-01,5e-324\n2011-03-02,5e-324\n2011-03-03,5e-324\n")
        code, out, err = run(
            "aggregate", "--input", str(path), "--quarter-start", "2011-04-01", "--format", fmt
        )
        assert (code, out) == (1, b"")
        assert err == (
            "data error: mean of the month preceding 2011-04-01 too small: "
            "0.5 * 2**-1073 is not a normal double\n"
        )

    def test_no_values_in_window(self, run, tmp_path):
        code, _, err = run(
            "aggregate", "--input", self.daily_csv(tmp_path), "--quarter-start", "2012-01-01"
        )
        assert code == 1
        assert err.startswith("data error:")


class TestStrictJson:
    """JSON output holds no NaN or Infinity token: a non-finite float is null."""

    def constant_within_years(self, tmp_path):
        rows = [
            f"{year}-{month:02d}-01,{0.2 * (year - 2010)},300000000,0.97,3.3,0.1,3000000"
            for year in (2011, 2012, 2013)
            for month in (1, 4, 7, 10)
        ]
        return small_csv(tmp_path, rows)

    @staticmethod
    def refuse(token):
        raise AssertionError(f"JSON output holds {token}")

    def test_infinite_anova_f_is_null(self, run, tmp_path):
        path = self.constant_within_years(tmp_path)
        code, out, err = run("anova", "--input", path, "--group", "year", "--format", "json")
        assert (code, err) == (0, "")
        (row,) = json.loads(out, parse_constant=self.refuse)["anova"]
        assert (row["group"], row["f"], row["p"]) == ("year", None, 0.0)
        code, out, _ = run("anova", "--input", path, "--group", "year")
        assert code == 0
        assert out.splitlines()[2] == b"year | inf | 2 | 9 | 0.00e+00"


class TestUsageErrors:
    def test_missing_subcommand(self, run):
        code, _, err = run()
        assert code == 2
        assert err != ""

    def test_missing_input(self, run):
        code, _, _ = run("describe")
        assert code == 2

    def test_bad_format_choice(self, run):
        code, _, _ = run("describe", "--input", FIXTURE, "--format", "xml")
        assert code == 2

    def test_bad_group_choice(self, run):
        code, _, _ = run("anova", "--input", FIXTURE, "--group", "day")
        assert code == 2

    def test_too_few_draws(self, run):
        code, _, err = run("bayes", "--input", FIXTURE, "--draws", "500")
        assert code == 2
        assert "draws" in err

    def test_bad_ci_level(self, run):
        code, _, _ = run("bayes", "--input", FIXTURE, "--ci-level", "1.5")
        assert code == 2

    def test_bad_pirope_epsilon(self, run):
        code, _, _ = run("verdict", "--input", FIXTURE, "--pirope-epsilon", "150")
        assert code == 2

    # pirope >= nan is never true and pirope >= -5 always is
    @pytest.mark.parametrize("command", ["verdict", "report"])
    @pytest.mark.parametrize("value", ["nan", "-5", "100.5"])
    def test_no_assoc_threshold_outside_0_100(self, run, command, value):
        code, out, err = run(
            command, "--input", FIXTURE, "--draws", "1000", "--no-assoc-threshold", value
        )
        assert (code, out) == (2, b"")
        want = f"--no-assoc-threshold must lie in [0, 100], got {float(value)}"
        assert err.splitlines()[-1].endswith(want)

    @pytest.mark.parametrize("value", ["0", "100"])
    def test_no_assoc_threshold_at_its_bounds(self, run, value):
        code, out, err = run(
            "verdict", "--input", FIXTURE, "--format", "json", "--no-assoc-threshold", value
        )
        assert (code, err) == (0, "")
        flags = {v["no_association"] for v in json.loads(out)["verdict"]}
        assert flags == {value == "0"}

    @pytest.mark.parametrize("command", ["ols", "report"])
    def test_nan_vif_cutoff(self, run, command):
        # vif >= nan is never true, so a nan cutoff would drop every advisory
        code, out, err = run(command, "--input", FIXTURE, "--vif-cutoff", "nan")
        assert (code, out) == (2, b"")
        assert err.splitlines()[-1].endswith("--vif-cutoff must be a number or inf, got nan")

    def test_inf_vif_cutoff_flags_no_multicollinearity(self, run):
        advisory = b"advisory: multicollinearity: VIF 2889.6 for AdjPop exceeds 10"
        assert advisory in run("ols", "--input", FIXTURE)[1]
        code, out, err = run("ols", "--input", FIXTURE, "--vif-cutoff", "inf")
        assert (code, err) == (0, "")
        assert b"multicollinearity" not in out


class TestFailureExitCodes:
    def test_missing_file(self, run):
        code, _, err = run("describe", "--input", "/nonexistent/file.csv")
        assert code == 1
        assert err.startswith("input error:")

    def test_parse_error(self, run, tmp_path):
        path = small_csv(tmp_path, ["2011-05-01,0.5,300000000,0.97,3.3,0.1,3000000"])
        code, _, err = run("describe", "--input", path)
        assert code == 1
        assert err.startswith("parse error:")

    # a constant column is collinear with the intercept: a sex ratio of 0.97,
    # whose computed sd is 2e-16 as its mean does not round back to 0.97, or
    # an FFR of 0.25, whose sd is exactly 0, so the prior refuses it too;
    # every command that fits refuses both before it builds a prior
    def test_singular_design(self, run, tmp_path):
        dates = [
            "2011-04-01", "2011-07-01", "2011-10-01", "2012-01-01", "2012-04-01",
            "2012-07-01", "2012-10-01", "2013-01-01", "2013-04-01", "2013-07-01",
            "2013-10-01", "2014-01-01",
        ]
        for name in ("Ratio", "FFR"):
            rows = []
            for i, d in enumerate(dates):
                ratio = 0.97 if name == "Ratio" else 0.96 + 0.004 * (i % 4)
                ffr = 0.25 if name == "FFR" else 0.1 + 0.03 * i
                rows.append(f"{d},{0.4 + 0.07 * (i % 5):.3f},{300000000 + 91 * i**2},"
                            f"{ratio:.6f},{3.1 + 0.13 * (i % 7):.3f},{ffr:.3f},"
                            f"{3000000 - 1013 * i**2}")
            path = small_csv(tmp_path, rows, name=f"{name}.csv")
            for command in ("ols", "bayes", "verdict", "report"):
                code, out, err = run(command, "--input", path)
                assert (code, out) == (1, b""), (name, command)
                assert len(err.splitlines()) == 1, err
                assert err.startswith("singular design:"), (command, err)
                assert repr(name) in err

    def test_too_few_rows_is_data_error(self, run, tmp_path):
        rows = [
            "2011-04-01,0.5,300000000,0.97,3.3,0.10,3000000",
            "2011-07-01,0.6,300100000,0.971,3.4,0.11,2900000",
        ]
        code, _, err = run("ols", "--input", small_csv(tmp_path, rows))
        assert code == 1
        assert err.startswith("data error:")

    def test_overflowing_transform_is_data_error(self, run, tmp_path):
        lines = Path(FIXTURE).read_text().splitlines()
        fields = lines[5].split(",")
        fields[-1] = "1e12"
        path = small_csv(tmp_path, [*lines[1:5], ",".join(fields), *lines[6:]])
        code, out, err = run("report", "--input", path)
        assert code == 1
        assert out == b""
        assert len(err.splitlines()) == 1
        assert err.startswith("data error:")
        assert fields[0] in err

    def test_non_utf8_byte_is_parse_error(self, run, tmp_path):
        lines = Path(FIXTURE).read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b",", b",\xff", 1)
        path = tmp_path / "latin.csv"
        path.write_bytes(b"\n".join(lines))
        code, out, err = run("describe", "--input", str(path))
        assert code == 1
        assert out == b""
        assert len(err.splitlines()) == 1
        assert err.startswith("parse error: line 4:")

    @pytest.mark.parametrize("case", ["cr-only", "long-cell"])
    def test_csv_module_error_is_one_parse_error_line(self, run, tmp_path, case):
        want = {
            "cr-only": "parse error: line 1: unreadable CSV: new-line character seen",
            "long-cell": "parse error: line 4: unreadable CSV: field larger than field limit",
        }[case]
        lines = Path(FIXTURE).read_bytes().splitlines()
        if case == "long-cell":
            lines[3] += b"0" * 200_000
        path = tmp_path / f"{case}.csv"
        path.write_bytes(b"\r".join(lines) + b"\r" if case == "cr-only" else b"\n".join(lines))
        code, out, err = run("describe", "--input", str(path))
        assert code == 1
        assert out == b""
        assert len(err.splitlines()) == 1
        assert err.startswith(want)

    def test_byte_order_mark_is_ignored(self, run, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + Path(FIXTURE).read_bytes())
        with_bom = run("report", "--input", str(path))
        assert with_bom == run("report", "--input", FIXTURE)
        assert with_bom[0] == 0

    @pytest.mark.parametrize("command", ["ols", "bayes", "verdict", "report"])
    def test_constant_response_is_data_error(self, run, tmp_path, command):
        lines = Path(FIXTURE).read_text().splitlines()
        assert lines[0].split(",")[1] == "loss"
        rows = [",".join([f[0], "0.5", *f[2:]]) for f in (ln.split(",") for ln in lines[1:])]
        code, out, err = run(command, "--input", small_csv(tmp_path, rows))
        assert code == 1
        assert out == b""
        assert len(err.splitlines()) == 1
        assert err.startswith("data error:")
        assert "constant" in err

    def answers_scaled(self, run, tmp_path, rows, column, k, command):
        """Whether command on rows gives the report of rows with column times 2**-k, scaled
        back by 2**k (see ``scaling``), or else one line refusing a returned value."""
        col = HEADER.split(",").index(column)
        ref_rows = [f.split(",") for f in rows]
        for f in ref_rows:
            f[col] = repr(math.ldexp(float(f[col]), -k))
        ref_path = small_csv(tmp_path, [",".join(f) for f in ref_rows], "reference.csv")
        code, ref, _ = run(command, "--input", ref_path, "--format", "json")
        assert code == 0
        code, out, err = run(command, "--input", small_csv(tmp_path, rows), "--format", "json")
        if code:
            assert out == b""
            assert len(err.splitlines()) == 1 and OUTPUT_REFUSAL.match(err), err
            return False
        assert err == ""
        assert same_report(json.loads(out), json.loads(ref), REPORT_NAME[column], k)
        return True

    # losses whose squares overflow: each command computes at a power-of-two
    # scale, so it answers with the report of the losses times 2**-500,
    # scaled back, or refuses sigma2_hat (loss squared), which does not fit
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "case, command",
        [("five-1e200", c) for c in ("describe", "anova", "ols", "bayes", "verdict", "report")]
        + [("one-1e100", "ols"), ("one-1e154", "bayes"), ("offset-1e154", "bayes")],
    )
    def test_overflowing_loss_is_one_data_error_line(self, run, tmp_path, case, command):
        loss = {
            # the sums of squares and moments overflow, and so does sigma2_hat
            "five-1e200": lambda i, v: "1e200" if i < 5 else v,
            # the fit is finite; its residuals' fourth powers are not
            "one-1e100": lambda i, v: "1e100" if i == 0 else v,
            # rss is finite; the standard errors are not
            "one-1e154": lambda i, v: "1e154" if i == 0 else v,
            # a large mean with a small spread: y'y overflows in the posterior scale
            "offset-1e154": lambda i, v: repr(1e154 * (1 + 0.001 * i)),
        }[case]
        lines = Path(FIXTURE).read_text().splitlines()
        rows = [",".join([f[0], loss(i, f[1]), *f[2:]])
                for i, f in enumerate(ln.split(",") for ln in lines[1:])]
        answered = self.answers_scaled(run, tmp_path, rows, "loss", 500, command)
        assert answered == (case != "five-1e200" or command in ("describe", "anova"))

    @staticmethod
    def huge_population_csv(tmp_path, total_pop):
        lines = Path(FIXTURE).read_text().splitlines()
        assert lines[0].split(",")[2] == "total_pop"
        fields = lines[1].split(",")
        fields[2] = total_pop
        return small_csv(tmp_path, [",".join(fields), *lines[2:]])

    # one huge column must not make the intercept look dependent on it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["ols", "verdict", "report"])
    def test_one_huge_population_still_fits(self, run, tmp_path, command):
        code, out, err = run(command, "--input", self.huge_population_csv(tmp_path, "1e160"))
        assert (code, err) == (0, "")
        assert b"AdjPop" in out

    # AdjPop's sum of squares overflows: the fit equilibrates each column by
    # a power of two, so each command answers with the report of total_pop
    # times 2**-500, AdjPop's numbers scaled back (its PIROPE is in loss units)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["ols", "verdict", "report"])
    @pytest.mark.parametrize("total_pop", ["1e200", "1e300", "1e308"])
    def test_overflowing_population_is_one_data_error_line(
        self, run, tmp_path, command, total_pop
    ):
        rows = Path(self.huge_population_csv(tmp_path, total_pop)).read_text().splitlines()[1:]
        assert self.answers_scaled(run, tmp_path, rows, "total_pop", 500, command)

    # AdjPop's squares underflow: each command answers with the fixture's
    # report, AdjPop's numbers scaled by 2**-1000 (and 2**1000)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["ols", "bayes", "verdict", "report"])
    def test_tiny_population_is_named(self, run, tmp_path, command):
        lines = Path(FIXTURE).read_text().splitlines()
        rows = [",".join([f[0], f[1], repr(math.ldexp(float(f[2]), -1000)), *f[3:]])
                for f in (ln.split(",") for ln in lines[1:])]
        assert self.answers_scaled(run, tmp_path, rows, "total_pop", -1000, command)

    # a scaled column whose variance underflows is refused by every command
    # that reads it, ols included, or by none of them
    @pytest.mark.parametrize("k", [-480, -490, -500, -505, -540])
    @pytest.mark.parametrize("column", [2, 3, 4, 5])  # total_pop, ratio, aplir, ffr
    def test_tiny_regressor_gets_one_answer(self, run, tmp_path, column, k):
        rows = [f.split(",") for f in Path(FIXTURE).read_text().splitlines()[1:]]
        for f in rows:
            f[column] = repr(math.ldexp(float(f[column]), k))
        path = small_csv(tmp_path, [",".join(f) for f in rows])
        got = {c: run(c, "--input", path) for c in ("ols", "describe", "bayes", "report")}
        codes = {code for code, _, _ in got.values()}
        assert codes in ({0}, {1}), got
        if codes == {1}:
            for code, out, err in got.values():
                assert out == b""
                assert len(err.splitlines()) == 1
                assert err.startswith("data error: ") and "too small" in err

    def test_bad_sigma2_scale_is_data_error(self, run):
        code, _, err = run("bayes", "--input", FIXTURE, "--sigma2-scale", "-1")
        assert code == 1
        assert err.startswith("data error:")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("what", ["shape", "scale"])
    def test_non_finite_sigma2_prior_is_named(self, run, what, value):
        code, out, err = run("bayes", "--input", FIXTURE, f"--sigma2-{what}", value)
        assert (code, out) == (1, b"")
        assert err == f"data error: sigma2 prior {what} must be finite and positive, got {value}\n"

    @pytest.mark.parametrize("command", ["bayes", "verdict"])
    @pytest.mark.parametrize("sd", ["1e-160", "1e-165", "1e-300"])
    def test_coef_sd_beyond_the_doubles_is_one_data_error_line(self, run, sd, command):
        # at the fit's scale the prior precision s2 / sd**2 overflows, or sd**2 underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(command, "--input", FIXTURE, "--coef-sd", sd)
        assert (code, out) == (1, b"")
        assert err == f"data error: prior sd of '(Intercept)' too small: {float(sd):.6g}\n"

    def test_coef_sd_just_inside_the_doubles_is_unchanged(self, run):
        # so strong a prior is the posterior: each slope's draws are its prior
        # sd times the same unit draws, so 1e-155 gives 1e-150's numbers times
        # 1e-5; the data shift Ratio's by 1.22e-13 relative at 1e-150, and at
        # most 1.9e-15 the others (equal-tailed and HDI, seeds 7 and 42)
        summaries = []
        for sd in ("1e-150", "1e-155"):
            code, out, err = run("bayes", "--input", FIXTURE, "--coef-sd", sd, "--format", "json")
            assert (code, err) == (0, "")
            summaries.append(json.loads(out)["bayes"]["parameters"][1:])
        for wide, tight in zip(*summaries):
            for key in ("median", "ci_low", "ci_high"):
                assert tight[key] == pytest.approx(wide[key] * 1e-5, rel=2e-13), (wide, key)

    @pytest.mark.parametrize("command", ["bayes", "verdict"])
    def test_every_coef_sd_answers_or_refuses_in_one_line(self, run, command):
        # 10**k for k = -300 .. 300 in steps of 10: b_n is a sum of squares, so no
        # prior collapses it; at 1e-120, 1e-100, 1e-30 and 1e-20 the textbook
        # difference of its large terms comes out negative on the fixture, and
        # at 1e-110 some entries of U_inv underflow where the draws still fit
        d = ols.build_design(data.apply_transforms(data.parse_csv(Path(FIXTURE).read_bytes())))
        fit = ols.fit_ols(d)
        refused = []
        for k in range(-300, 301, 10):
            code, out, err = run(command, "--input", FIXTURE, "--coef-sd", f"1e{k}", "--format", "json")
            if code == 0:
                assert out and err == "", k
                if command == "bayes":
                    prior = bayes.default_prior(d, coef_sd=10.0**k)
                    check_medians(json.loads(out)["bayes"]["parameters"], d, fit, prior, k)
                continue
            assert (code, out) == (1, b""), k
            assert len(err.splitlines()) == 1 and err.startswith("data error: "), (k, err)
            assert "collapsed" not in err, (k, err)
            refused.append(k)
        assert not {-120, -110, -100, -30, -20} & set(refused), refused

    def test_draws_beyond_memory_is_one_memory_error_line(self, run):
        # 8 PB of sigma2 draws exceeds the x86-64 user address space, so the
        # first allocation fails at once without touching memory
        code, out, err = run("bayes", "--input", FIXTURE, "--draws", "1000000000000000")
        assert (code, out) == (1, b"")
        assert len(err.splitlines()) == 1
        assert err.startswith("memory error: ")

    def test_non_convergence_is_numeric_error(self, run, monkeypatch):
        # one iteration is too few for any continued fraction on the fixture
        monkeypatch.setattr(floats, "_CF_MAX_ITER", 1)
        code, out, err = run("ols", "--input", FIXTURE)
        assert code == 1
        assert out == b""
        assert len(err.splitlines()) == 1
        assert err.startswith("numeric error:")
        assert "did not converge" in err
        assert "Traceback" not in err


class TestPipeline:
    @pytest.mark.parametrize("command", ["ols", "bayes", "verdict", "report"])
    def test_one_qr_factorization_per_run(self, run, monkeypatch, command):
        calls = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        cli._kept.cache_clear()  # nothing kept from earlier tests
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        code, _, _ = run(command, "--input", FIXTURE, "--format", "json")
        assert code == 0
        assert len(calls) == 1
        # a second command on the same bytes shares the kept fit
        code, _, _ = run("ols", "--input", FIXTURE)
        assert code == 0
        assert len(calls) == 1


class TestKeptStages:
    """The stages that read nothing but the input are kept beside its frame."""

    @pytest.fixture(autouse=True)
    def nothing_kept(self):
        cli._kept.cache_clear()

    def test_one_qr_per_input_across_commands(self, run, monkeypatch, tmp_path):
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
        lines = Path(FIXTURE).read_text().splitlines()
        path = small_csv(tmp_path, lines[1:])
        argvs = [["ols"], ["ols", "--format", "json"], ["verdict"], ["report"]]
        for argv in argvs:
            assert run(*argv, "--input", path)[0] == 0
        assert len(calls) == 1
        small_csv(tmp_path, [lines[1].replace(",0.", ",9.", 1), *lines[2:]])
        for argv in argvs:
            assert run(*argv, "--input", path)[0] == 0
        assert len(calls) == 2

    def test_kept_results_are_read_only(self, run, monkeypatch):
        made = []
        for name in ("build_design", "fit_ols", "diagnostics"):
            stage = getattr(ols, name)
            monkeypatch.setattr(
                ols, name, lambda *a, stage=stage: made.append(stage(*a)) or made[-1]
            )
        assert run("report", "--input", FIXTURE, "--draws", "1000")[0] == 0
        design, fit, diag = made
        assert isinstance(diag, ols.Diagnostics)
        assert not any(isinstance(v, np.ndarray) for v in vars(diag).values())
        arrays = [v for r in (design, fit) for v in vars(r).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 2 + 9
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0

    @pytest.mark.parametrize("command", ["bayes", "report"])
    def test_posterior_draws_are_not_kept(self, run, monkeypatch, command):
        refs = []
        sample = bayes.sample_posterior

        def sample_and_watch(*args):
            post = sample(*args)
            refs.append(weakref.ref(post))
            return post

        monkeypatch.setattr(bayes, "sample_posterior", sample_and_watch)
        assert run(command, "--input", FIXTURE, "--draws", "1000")[0] == 0
        gc.collect()
        assert len(refs) == 1
        assert refs[0]() is None


class TestRepeatedInput:
    """cli.main keeps the last good input's frame, keyed by the file's bytes."""

    @pytest.fixture(autouse=True)
    def nothing_kept(self):
        cli._kept.cache_clear()

    def test_rewritten_file_prints_the_new_report(self, run, tmp_path):
        lines = Path(FIXTURE).read_text().splitlines()
        path = small_csv(tmp_path, lines[1:])
        first = run("describe", "--input", path)
        # the same length, so only the bytes themselves tell the files apart
        edited = lines[1].replace(",0.", ",9.", 1)
        assert edited != lines[1] and len(edited) == len(lines[1])
        small_csv(tmp_path, [edited, *lines[2:]])
        second = run("describe", "--input", path)
        assert first[0] == second[0] == 0
        assert first[1] != second[1]
        small_csv(tmp_path, lines[1:])
        assert run("describe", "--input", path) == first

    def test_parse_error_between_good_calls(self, run, tmp_path, monkeypatch):
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
        good = ["ols", "--input", FIXTURE, "--format", "json"]
        bad = ["ols", "--input", small_csv(tmp_path, ["2011-04-01,x,1,1,1,1,1"])]
        want = run(*good)
        assert want[0] == 0
        for _ in range(2):
            assert run(*bad) == (1, b"", "parse error: line 2: non-numeric loss field 'x'\n")
            assert run(*good) == want
        assert len(calls) == 1  # the failed input leaves the kept fit alone


class TestKeptRecord:
    """cli._kept holds one input: its bytes, its frame and its stage results."""

    COLUMNS = (
        "month_index", "year_index", "adj_pop", "ratio", "aplir", "ffr", "exp_claims", "loss",
    )

    @pytest.fixture(autouse=True)
    def nothing_kept(self):
        cli._kept.cache_clear()

    @staticmethod
    def csv(*dates, claims="3000000"):
        rows = [f"{d},0.{i + 5},300000000,0.97,3.3,0.1,{claims}" for i, d in enumerate(dates)]
        return "\n".join([HEADER, *rows]).encode() + b"\n"

    def test_frame_is_read_only_on_first_load_and_on_a_hit(self):
        kept = cli._kept(self.csv("2011-04-01", "2011-07-01"))
        assert cli._kept(self.csv("2011-04-01", "2011-07-01")) is kept
        first = kept[0]
        want = data.apply_transforms(data.parse_csv(self.csv("2011-04-01", "2011-07-01")))
        for name in self.COLUMNS:
            column = getattr(first, name)
            assert column == getattr(want, name)
            with pytest.raises(TypeError, match="does not support item assignment"):
                column[0] = 0

    def test_one_entry_only(self):
        ref = weakref.ref(cli._kept(self.csv("2011-04-01", "2011-07-01"))[0])
        cli._kept(self.csv("2011-04-01"))
        gc.collect()
        assert ref() is None

    def test_failed_load_keeps_the_last_good_frame(self, monkeypatch):
        good = self.csv("2011-04-01", "2011-07-01")
        bad = self.csv("2011-04-01", "2011-07-01", claims="1e12")
        first = cli._kept(good)
        parsed = []
        parse_csv = data.parse_csv
        monkeypatch.setattr(data, "parse_csv", lambda raw: parsed.append(raw) or parse_csv(raw))
        for _ in range(2):
            with pytest.raises(DataError, match="overflows exp"):
                cli._kept(bad)
            assert cli._kept(good) is first
        assert len(parsed) == 2  # the bad input, on each call


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["bayes", "--input", "x.csv"])
        assert args.draws == 10000
        assert args.seed == 42
        assert args.ci_level == 0.89
        assert args.fmt == "text"
        assert args.hdi is False

    def test_verdict_defaults(self):
        args = build_parser().parse_args(["verdict", "--input", "x.csv"])
        assert args.pirope_epsilon == 1.0
        assert args.no_assoc_threshold == 99.0

    BAYES = {
        "draws": 10000, "seed": 42, "ci_level": 0.89, "hdi": False,
        "coef_sd": None, "sigma2_shape": 1.0, "sigma2_scale": None,
    }
    VERDICT = {"pirope_epsilon": 1.0, "no_assoc_threshold": 99.0}
    DEFAULTS = {
        "describe": {},
        "anova": {"group_key": "month"},
        "ols": {"vif_cutoff": 10.0},
        "bayes": BAYES,
        "verdict": {**BAYES, **VERDICT},
        "report": {**BAYES, **VERDICT, "vif_cutoff": 10.0},
        "aggregate": {"quarter_start": "2011-04-01"},
    }

    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_every_subcommand_namespace(self, command):
        argv = [command, "--input", "x"]
        if command == "aggregate":
            argv += ["--quarter-start", "2011-04-01"]
        got = vars(build_parser().parse_args(argv))
        assert got == {"command": command, "input": "x", "fmt": "text", **self.DEFAULTS[command]}
        assert list(got)[3:] == list(self.DEFAULTS[command])  # flags in --help order

    def test_main_builds_the_parser_once_per_process(self, run, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (["describe"], ["anova", "--group", "year"], ["describe", "--format", "json"]):
            assert run(*argv, "--input", FIXTURE)[0] == 0
        assert run("bayes", "--input", FIXTURE, "--draws", "500")[0] == 2
        # "twinreg" is the top-level parser; 0 if an earlier test built it
        assert built.count("twinreg") <= 1

    def test_each_call_parses_into_its_own_namespace(self):
        first = build_parser().parse_args(["anova", "--input", "a.csv", "--group", "year"])
        second = build_parser().parse_args(["anova", "--input", "b.csv"])
        assert (first.input, first.group_key) == ("a.csv", "year")
        assert (second.input, second.group_key) == ("b.csv", "month")
