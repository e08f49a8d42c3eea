"""Combined significance verdicts and text/JSON rendering.

Text tables round for display (three significant figures for the regression
table, two decimals for the posterior table); JSON carries full precision,
with null for a number that is not finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .describe import AnovaResult, SummaryRow
from .errors import ConsistencyError

if TYPE_CHECKING:  # numpy's stages: describe and anova render without them
    from .bayes import PosteriorSummary
    from .ols import Diagnostics, OlsFit

COMBINED_SIGNIFICANT = "significant"
COMBINED_NOT = "not-significant"
COMBINED_AMBIGUOUS = "ambiguous"

P_THRESHOLD = 0.05  # a p-value below this is frequentist significance


@dataclass(frozen=True)
class Verdict:
    name: str
    p_value: float
    pirope: float
    freq_significant: bool
    bayes_significant: bool
    combined: str
    no_association: bool


def combined_verdict(
    fit: OlsFit,
    posts: Sequence[PosteriorSummary],
    pirope_epsilon: float = 1.0,
    no_assoc_threshold: float = 99.0,
) -> list[Verdict]:
    """One Verdict per regressor (intercept excluded).

    significant requires both p < P_THRESHOLD and PIROPE <= pirope_epsilon;
    exactly one criterion holding yields ambiguous.  PIROPE at or above
    no_assoc_threshold additionally marks the regressor as showing no
    association.
    """
    slope_names = list(fit.names[1:])
    by_name = {s.name: s for s in posts if s.name != fit.names[0]}
    if sorted(by_name) != sorted(slope_names):
        raise ConsistencyError(
            "regression and posterior parameter sets differ: "
            f"{sorted(slope_names)} vs {sorted(by_name)}"
        )
    out = []
    for name, p in zip(slope_names, map(float, fit.p_values[1:])):
        pr = by_name[name].pirope
        freq, bayes = p < P_THRESHOLD, pr <= pirope_epsilon
        combined = (COMBINED_NOT, COMBINED_AMBIGUOUS, COMBINED_SIGNIFICANT)[freq + bayes]
        out.append(Verdict(name, p, pr, freq, bayes, combined, pr >= no_assoc_threshold))
    return out


@dataclass
class ReportSections:
    descriptive: list[SummaryRow] | None = None
    anova: list[AnovaResult] | None = None
    ols_fit: OlsFit | None = None
    ols_diag: Diagnostics | None = None
    bayes: list[PosteriorSummary] | None = None
    verdicts: list[Verdict] | None = None


def _sig3(v: float) -> str:
    return f"{v:.3g}"


def _interval2(lo: float, hi: float) -> str:
    return f"[{lo:.2f}, {hi:.2f}]"


def _sections(s: ReportSections) -> Iterator[tuple[str, object, Iterable[str]]]:
    """Each present section, in report order, as (JSON key, JSON value, text lines).

    The table rows of the text are formatted only when the lines are read.
    """
    if s.descriptive is not None:
        yield "descriptive", [vars(r) for r in s.descriptive], chain(
            ["== Descriptive Statistics ==", "variable | mean | sd | median | min | max"],
            (
                f"{r.name} | {_sig3(r.mean)} | {_sig3(r.sd)} | "
                f"{_sig3(r.median)} | {_sig3(r.min)} | {_sig3(r.max)}"
                for r in s.descriptive
            ),
        )
    if s.anova is not None:
        # AnovaResult's fields, in order, under their JSON keys
        keys = ("group", "k", "n", "f", "df1", "df2", "p")
        rows = [dict(zip(keys, vars(a).values())) for a in s.anova]
        yield "anova", rows, chain(
            ["== One-way ANOVA (Loss) ==", "group | F | df1 | df2 | p"],
            (
                f"{a['group']} | {_sig3(a['f'])} | {a['df1']} | {a['df2']} | {a['p']:.2e}"
                for a in rows
            ),
        )
    if s.ols_fit is not None:
        f = s.ols_fit
        keys = ("term", "estimate", "std_error", "statistic", "p_value")
        terms = [
            dict(zip(keys, (name, *map(float, values))))
            for name, *values in zip(f.names, f.estimates, f.std_errors, f.t_stats, f.p_values)
        ]
        ols: dict = {
            "terms": terms,
            "sigma2_hat": f.sigma2_hat,
            "r2": f.r2,
            "adj_r2": f.adj_r2,
            "df_resid": f.df_resid,
        }
        diag: list[str] = []
        if s.ols_diag is not None:
            d = s.ols_diag
            ols["diagnostics"] = vars(d)
            vifs = ", ".join(f"{k} {_sig3(v)}" for k, v in d.vif.items())
            diag = [
                f"diagnostics: BP {_sig3(d.bp_stat)} (p {d.bp_p:.2e}) | "
                f"JB {_sig3(d.jb_stat)} (p {d.jb_p:.2e}) | DW {_sig3(d.dw_stat)} | "
                f"mean resid {d.mean_resid:.2e}",
                f"VIF: {vifs}",
                *(f"advisory: {msg}" for msg in d.advisories),
            ]
        yield "ols", ols, chain(
            ["== OLS Regression ==", "term | estimate | std.error | statistic | p.value"],
            (
                f"{t['term']} | {_sig3(t['estimate'])} | {_sig3(t['std_error'])} | "
                f"{_sig3(t['statistic'])} | {t['p_value']:.2e}"
                for t in terms
            ),
            [f"residual variance: {_sig3(f.sigma2_hat)} | adjusted R^2: {_sig3(f.adj_r2)}"],
            diag,
        )
    if s.bayes is not None:
        keys = ("name", "median", "ci_low", "ci_high", "ci_midpoint", "pirope")
        first = s.bayes[0] if s.bayes else None  # the level and ROPE are read from it
        bayes = {
            "level": first.level if first else None,
            "rope": [first.rope_low, first.rope_high] if first else None,
            "parameters": [{k: getattr(b, k) for k in keys} for b in s.bayes],
        }
        ci = f"{100.0 * first.level:g}% CI" if first else "CI"
        yield "bayes", bayes, chain(
            [f"== Bayesian Posterior ({ci}) ==", f"Parameter | Median | {ci} | ROPE | % in ROPE"],
            (
                f"{b.name} | {b.median:.2f} | {_interval2(b.ci_low, b.ci_high)} | "
                f"{_interval2(b.rope_low, b.rope_high)} | {b.pirope:.2f}"
                for b in s.bayes
            ),
        )
    if s.verdicts is not None:
        rows = [{"term" if k == "name" else k: x for k, x in vars(v).items()} for v in s.verdicts]
        sig = [v.name for v in s.verdicts if v.combined == COMBINED_SIGNIFICANT]
        yield "verdict", rows, chain(
            ["== Combined Verdict ==", "term | p.value | % in ROPE | freq | bayes | combined"],
            (
                f"{v.name} | {v.p_value:.2e} | {v.pirope:.2f} | "
                f"{'yes' if v.freq_significant else 'no'} | "
                f"{'yes' if v.bayes_significant else 'no'} | {v.combined}"
                + (" (no-association)" if v.no_association else "")
                for v in s.verdicts
            ),
            [f"significant: {', '.join(sig) if sig else '(none)'}"],
        )


def render_report(sections: ReportSections, format: str = "text") -> bytes:
    """Render the present sections as UTF-8 text or a single JSON document.

    With no section present, the text is empty and the JSON document is ``{}``.
    """
    parts = _sections(sections)
    if format == "text":
        return "\n".join(ln for *_, lines in parts for ln in (*lines, "")).encode("utf-8")
    if format == "json":
        return json_bytes({key: value for key, value, _ in parts})
    raise ValueError(f"unknown format {format!r} (expected 'text' or 'json')")


def _finite_or_null(v):
    """v with every non-finite float in it, at any depth, replaced by None."""
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def json_bytes(doc: dict) -> bytes:
    """doc as indented, strict JSON (a non-finite float is null), UTF-8, newline-ended."""
    return (json.dumps(_finite_or_null(doc), indent=2, allow_nan=False) + "\n").encode("utf-8")
