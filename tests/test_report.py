"""Tests for the combined verdict logic and both report renderers."""

import itertools
import json

import numpy as np
import pytest

from twinreg import (
    AnovaResult,
    ConsistencyError,
    Diagnostics,
    OlsFit,
    PosteriorDraws,
    PosteriorSummary,
    ReportSections,
    SummaryRow,
    combined_verdict,
    render_report,
    summarize_posterior,
)
from twinreg.report import P_THRESHOLD


def crafted_fit(names, p_values):
    p = len(names)
    z = np.zeros(p)
    return OlsFit(
        names=tuple(names),
        estimates=z + 1.0,
        std_errors=z + 0.5,
        t_stats=z + 2.0,
        p_values=np.asarray(p_values, dtype=float),
        residuals=np.zeros(10),
        sigma2_hat=0.25,
        r2=0.9,
        adj_r2=0.88,
        df_resid=6,
        x_exp=np.zeros(p, dtype=int),
        y_exp=0,
        xtx_inv_diag=z + 1.0,
        q=np.zeros((10, p)),
        r=np.eye(p),
    )


def crafted_summary(name, pirope, median=1.0):
    return PosteriorSummary(
        name=name,
        median=median,
        ci_low=median - 1.0,
        ci_high=median + 1.0,
        ci_midpoint=median,
        level=0.89,
        rope_low=-0.0387,
        rope_high=0.0387,
        pirope=pirope,
    )


class TestCombinedVerdict:
    names = ("(Intercept)", "a", "b", "c", "d")

    def build(self, p_values, piropes):
        fit = crafted_fit(self.names, [0.5, *p_values])
        posts = [crafted_summary("(Intercept)", 0.0)]
        posts += [crafted_summary(n, pi) for n, pi in zip(self.names[1:], piropes)]
        return fit, posts

    def test_truth_table(self):
        fit, posts = self.build([0.01, 0.01, 0.2, 0.2], [0.5, 50.0, 0.5, 99.5])
        out = combined_verdict(fit, posts)
        assert [v.name for v in out] == ["a", "b", "c", "d"]
        assert [v.combined for v in out] == [
            "significant", "ambiguous", "ambiguous", "not-significant",
        ]
        assert [v.freq_significant for v in out] == [True, True, False, False]
        assert [v.bayes_significant for v in out] == [True, False, True, False]
        assert [v.no_association for v in out] == [False, False, False, True]

    def test_thresholds_are_strict_and_inclusive(self):
        # p exactly at the threshold fails; pirope exactly at epsilon passes
        fit, posts = self.build([0.05, 0.049, 0.01, 0.01], [1.0, 1.0, 1.01, 99.0])
        out = combined_verdict(fit, posts)
        assert out[0].freq_significant is False
        assert out[1].freq_significant is True
        assert out[0].bayes_significant is True
        assert out[2].bayes_significant is False
        assert out[3].no_association is True

    def test_configurable_thresholds(self):
        fit, posts = self.build([0.01, 0.2, 0.01, 0.2], [4.0, 4.0, 60.0, 60.0])
        out = combined_verdict(fit, posts, pirope_epsilon=5.0, no_assoc_threshold=60.0)
        assert [v.combined for v in out] == [
            "significant", "ambiguous", "ambiguous", "not-significant",
        ]
        assert [v.no_association for v in out] == [False, False, True, True]
        assert [v.no_association for v in combined_verdict(fit, posts)] == [False] * 4

    def test_p_threshold_is_fixed_at_five_percent(self):
        assert P_THRESHOLD == 0.05
        fit, posts = self.build([0.08] * 4, [0.0] * 4)
        with pytest.raises(TypeError):
            combined_verdict(fit, posts, p_threshold=0.1)

    def test_intercept_is_excluded(self):
        fit, posts = self.build([0.01] * 4, [0.0] * 4)
        out = combined_verdict(fit, posts)
        assert all(v.name != "(Intercept)" for v in out)

    def test_name_mismatch_raises(self):
        fit, posts = self.build([0.01] * 4, [0.0] * 4)
        with pytest.raises(ConsistencyError):
            combined_verdict(fit, posts[:-1])
        renamed = posts[:-1] + [crafted_summary("zzz", 0.0)]
        with pytest.raises(ConsistencyError):
            combined_verdict(fit, renamed)


def full_sections():
    fit = crafted_fit(("(Intercept)", "a"), [0.3, 0.011])
    posts = [crafted_summary("(Intercept)", 0.0, median=-0.5),
             crafted_summary("a", 0.25, median=1.5)]
    verdicts = combined_verdict(fit, posts[1:] + [posts[0]])
    return ReportSections(
        descriptive=[SummaryRow("Loss", mean=0.668, sd=0.387, median=0.55, min=0.1, max=2.1)],
        anova=[AnovaResult("month", k=4, n=37, f_stat=13.5,
                           df_between=3, df_within=33, p_value=2.47e-7)],
        ols_fit=fit,
        bayes=posts,
        verdicts=verdicts,
    )


class TestTextReport:
    def test_section_layout(self):
        text = render_report(full_sections(), "text").decode()
        assert "== Descriptive Statistics ==" in text
        assert "variable | mean | sd | median | min | max" in text
        assert "Loss | 0.668 | 0.387 | 0.55 | 0.1 | 2.1" in text
        assert "== One-way ANOVA (Loss) ==" in text
        assert "month | 13.5 | 3 | 33 | 2.47e-07" in text
        assert "== OLS Regression ==" in text
        assert "term | estimate | std.error | statistic | p.value" in text
        assert "a | 1 | 0.5 | 2 | 1.10e-02" in text
        assert "== Bayesian Posterior (89% CI) ==" in text
        assert "a | 1.50 | [0.50, 2.50] | [-0.04, 0.04] | 0.25" in text
        assert "== Combined Verdict ==" in text
        assert "significant: a" in text

    def test_none_significant_line(self):
        s = full_sections()
        for v in s.verdicts:
            object.__setattr__(v, "combined", "not-significant")
        text = render_report(s, "text").decode()
        assert "significant: (none)" in text

    def test_no_association_suffix(self):
        s = full_sections()
        object.__setattr__(s.verdicts[0], "no_association", True)
        text = render_report(s, "text").decode()
        assert "(no-association)" in text

    def test_returns_bytes(self):
        out = render_report(full_sections())
        assert isinstance(out, bytes)
        out.decode("utf-8")

    def test_missing_sections_are_omitted(self):
        s = ReportSections(descriptive=full_sections().descriptive)
        text = render_report(s, "text").decode()
        assert "Descriptive" in text
        assert "ANOVA" not in text
        assert "OLS" not in text


class TestJsonReport:
    def test_document_round_trips_at_full_precision(self):
        s = full_sections()
        raw = render_report(s, "json")
        assert raw.endswith(b"\n")
        doc = json.loads(raw)
        assert set(doc) == {"descriptive", "anova", "ols", "bayes", "verdict"}
        assert doc["descriptive"][0] == {
            "name": "Loss", "mean": 0.668, "sd": 0.387,
            "median": 0.55, "min": 0.1, "max": 2.1,
        }
        a = doc["anova"][0]
        assert (a["group"], a["k"], a["n"]) == ("month", 4, 37)
        assert (a["df1"], a["df2"]) == (3, 33)
        assert a["p"] == 2.47e-7
        terms = doc["ols"]["terms"]
        assert terms[1]["term"] == "a"
        assert terms[1]["p_value"] == 0.011
        assert doc["ols"]["adj_r2"] == 0.88
        assert doc["bayes"]["level"] == 0.89
        assert doc["bayes"]["rope"] == [-0.0387, 0.0387]
        assert doc["bayes"]["parameters"][1]["median"] == 1.5
        assert doc["verdict"][0]["combined"] == "significant"

    def test_sections_omitted_when_absent(self):
        s = ReportSections(descriptive=full_sections().descriptive)
        doc = json.loads(render_report(s, "json"))
        assert set(doc) == {"descriptive"}

    def test_indentation(self):
        raw = render_report(full_sections(), "json").decode()
        assert raw.splitlines()[1].startswith("  ")


class TestRenderErrors:
    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(full_sections(), "yaml")


class TestSectionWalk:
    # ReportSections field, its JSON key and its text title, in report order
    SECTIONS = (
        ("descriptive", "descriptive", "== Descriptive Statistics =="),
        ("anova", "anova", "== One-way ANOVA (Loss) =="),
        ("ols_fit", "ols", "== OLS Regression =="),
        ("bayes", "bayes", "== Bayesian Posterior (89% CI) =="),
        ("verdicts", "verdict", "== Combined Verdict =="),
    )

    def every_subset(self):
        full = full_sections()
        diag = Diagnostics(
            vif={"a": 1.5}, bp_stat=2.0, bp_p=0.2, jb_stat=1.0, jb_p=0.6,
            dw_stat=1.9, mean_resid=1e-17, advisories=("multicollinearity: made up",),
        )
        fields = [field for field, _, _ in self.SECTIONS]
        for k in range(len(fields) + 1):
            for chosen in itertools.combinations(fields, k):
                present = {f: getattr(full, f) for f in chosen}
                yield ReportSections(**present)
                if "ols_fit" in chosen:  # diagnostics only ever come with a fit
                    yield ReportSections(**present, ols_diag=diag)

    def test_formats_name_the_same_sections_in_the_same_order(self):
        subsets = list(self.every_subset())
        assert len(subsets) == 48
        for s in subsets:
            present = [(key, title) for field, key, title in self.SECTIONS
                       if getattr(s, field) is not None]
            doc = json.loads(render_report(s, "json"))
            text = render_report(s, "text").decode()
            assert list(doc) == [key for key, _ in present], s
            titles = [ln for ln in text.splitlines() if ln.startswith("== ")]
            assert titles == [title for _, title in present], s
            has_diag = s.ols_diag is not None
            assert ("diagnostics" in doc.get("ols", {})) == has_diag, s
            assert ("\ndiagnostics: BP " in text) == has_diag, s

    def test_empty_posterior_names_no_level(self):
        s = ReportSections(bayes=[])
        assert render_report(s, "text") == (
            b"== Bayesian Posterior (CI) ==\n"
            b"Parameter | Median | CI | ROPE | % in ROPE\n"
        )
        doc = json.loads(render_report(s, "json"))
        assert doc == {"bayes": {"level": None, "rope": None, "parameters": []}}

    def test_no_sections_render_nothing(self):
        assert render_report(ReportSections(), "text") == b""
        assert render_report(ReportSections(), "json") == b"{}\n"


class TestCredibleLevel:
    """The posterior header names the level the intervals were computed at."""

    def summaries(self, level):
        rng = np.random.default_rng(3)
        post = PosteriorDraws(
            beta=np.asfortranarray(rng.normal(size=(2000, 2))),
            sigma2=np.ones(2000),
            names=("(Intercept)", "a"),
        )
        return summarize_posterior(post, rng.normal(size=40), level=level)

    @pytest.mark.parametrize("level, title", [(0.5, "50% CI"), (0.95, "95% CI"), (0.89, "89% CI")])
    def test_header_reads_the_summaries_level(self, level, title):
        s = ReportSections(bayes=self.summaries(level))
        assert all(b.level == level for b in s.bayes)
        text = render_report(s, "text").decode().splitlines()
        assert text[:2] == [
            f"== Bayesian Posterior ({title}) ==",
            f"Parameter | Median | {title} | ROPE | % in ROPE",
        ]
        assert json.loads(render_report(s, "json"))["bayes"]["level"] == level
