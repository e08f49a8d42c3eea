"""Command-line entry point orchestrating the pipeline."""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from functools import cache, cached_property

from . import bayes, data, describe, ols, report
from .errors import (
    ConsistencyError,
    ConvergenceError,
    DataError,
    ParseError,
    SingularDesignError,
)
from .kernels import RandomSource

# subcommand -> the report sections it renders, computed in this order
SECTIONS = {
    "describe": ("descriptive",),
    "anova": ("anova",),
    "ols": ("ols_fit", "ols_diag"),
    "bayes": ("bayes",),
    "verdict": ("verdicts",),
    "report": ("ols_fit", "bayes", "descriptive", "anova", "ols_diag", "verdicts"),
}

# stderr prefix per failure, most specific type first; each exits with 1
ERROR_PREFIXES = {
    ParseError: "parse error",
    SingularDesignError: "singular design",
    ConsistencyError: "consistency error",
    DataError: "data error",
    OSError: "input error",
    ConvergenceError: "numeric error",
    ValueError: "numeric error",
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="path to the quarterly CSV")
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="output format (default text)",
    )


def _add_bayes_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--draws", type=int, default=10_000, help="posterior draws (>= 1000)")
    p.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    p.add_argument(
        "--ci-level", type=float, default=0.89, help="credible level in (0,1)"
    )
    p.add_argument(
        "--hdi",
        action="store_true",
        help="use the highest-density interval instead of equal tails",
    )
    p.add_argument(
        "--coef-sd",
        type=float,
        default=None,
        help="override every coefficient prior sd with this value",
    )
    p.add_argument("--sigma2-shape", type=float, default=1.0)
    p.add_argument(
        "--sigma2-scale",
        type=float,
        default=None,
        help="sigma2 prior scale (default: auto-scaled to the data)",
    )


def _add_verdict_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--pirope-epsilon",
        type=float,
        default=1.0,
        help="max percent-in-ROPE for Bayesian significance (default 1.0)",
    )
    p.add_argument(
        "--no-assoc-threshold",
        type=float,
        default=99.0,
        help="percent-in-ROPE at or above which no association is flagged",
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every caller.

    Each ``parse_args`` call fills a Namespace of its own; callers must not
    add to or change the parser itself.
    """
    parser = argparse.ArgumentParser(
        prog="twinreg",
        description="Dual frequentist/Bayesian regression pipeline for quarterly loan-loss data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="descriptive statistics per variable")
    _add_common(p)

    p = sub.add_parser("anova", help="one-way ANOVA of Loss")
    _add_common(p)
    p.add_argument(
        "--group",
        choices=("month", "year"),
        default="month",
        dest="group_key",
        help="grouping key: calendar month-of-year or calendar year",
    )

    p = sub.add_parser("ols", help="OLS fit with inference and diagnostics")
    _add_common(p)
    p.add_argument("--vif-cutoff", type=float, default=10.0)

    p = sub.add_parser("bayes", help="Bayesian posterior summary with ROPE")
    _add_common(p)
    _add_bayes_flags(p)

    p = sub.add_parser("verdict", help="combined significance verdict")
    _add_common(p)
    _add_bayes_flags(p)
    _add_verdict_flags(p)

    p = sub.add_parser("report", help="full report: all sections")
    _add_common(p)
    _add_bayes_flags(p)
    _add_verdict_flags(p)
    p.add_argument("--vif-cutoff", type=float, default=10.0)

    p = sub.add_parser(
        "aggregate", help="average a daily series over the month before a quarter start"
    )
    _add_common(p)
    p.add_argument(
        "--quarter-start", required=True, help="quarter start date, YYYY-MM-DD"
    )

    return parser


def _check_ranges(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if "draws" in args and args.draws < 1000:
        parser.error(f"--draws must be at least 1000, got {args.draws}")
    if "ci_level" in args and not 0.0 < args.ci_level < 1.0:
        parser.error(f"--ci-level must lie in (0, 1), got {args.ci_level}")
    if "pirope_epsilon" in args and not 0.0 <= args.pirope_epsilon <= 100.0:
        parser.error(f"--pirope-epsilon must lie in [0, 100], got {args.pirope_epsilon}")


class _Stages:
    """The pipeline stages of one run; each is computed at most once, on demand."""

    def __init__(self, args: argparse.Namespace):
        self.args = args

    @cached_property
    def frame(self) -> data.ModelFrame:
        return data.apply_transforms(data.load_csv(self.args.input))

    @cached_property
    def design(self) -> ols.DesignMatrix:
        return ols.build_design(self.frame)

    @cached_property
    def ols_fit(self) -> ols.OlsFit:
        return ols.fit_ols(self.design)

    @cached_property
    def ols_diag(self) -> ols.Diagnostics:
        return ols.diagnostics(self.design, self.ols_fit, self.args.vif_cutoff)

    @cached_property
    def descriptive(self) -> list[describe.SummaryRow]:
        return describe.summarize(self.frame)

    @cached_property
    def anova(self) -> list[describe.AnovaResult]:
        groups = (self.args.group_key,) if "group_key" in self.args else ("month", "year")
        return [getattr(describe, f"anova_by_{g}")(self.frame) for g in groups]

    @cached_property
    def bayes(self) -> list[bayes.PosteriorSummary]:
        a, d = self.args, self.design
        prior = bayes.default_prior(d, a.coef_sd, a.sigma2_shape, a.sigma2_scale)
        post = bayes.sample_posterior(d, self.ols_fit, prior, a.draws, RandomSource(a.seed))
        return bayes.summarize_posterior(post, self.frame.loss, level=a.ci_level, use_hdi=a.hdi)

    @cached_property
    def verdicts(self) -> list[report.Verdict]:
        return report.combined_verdict(
            self.ols_fit,
            self.bayes,
            pirope_epsilon=self.args.pirope_epsilon,
            no_assoc_threshold=self.args.no_assoc_threshold,
        )


def _aggregate(args: argparse.Namespace) -> bytes:
    with open(args.input, "rb") as fh:
        daily = data.parse_daily_csv(fh)
    try:
        qs = datetime.date.fromisoformat(args.quarter_start)
    except ValueError:
        raise DataError(f"malformed --quarter-start {args.quarter_start!r}") from None
    value = data.aggregate_prior_month(daily, qs)
    if args.fmt == "json":
        doc = {"quarter_start": qs.isoformat(), "prior_month_mean": value}
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    return f"{value!r}\n".encode("utf-8")


def _run(args: argparse.Namespace) -> bytes:
    if args.command == "aggregate":
        return _aggregate(args)
    stages = _Stages(args)
    sections = report.ReportSections(
        **{name: getattr(stages, name) for name in SECTIONS[args.command]}
    )
    if sections.bayes is not None:
        sections.bayes_level = args.ci_level
    return report.render_report(sections, args.fmt)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_ranges(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        out = _run(args)
    except tuple(ERROR_PREFIXES) as exc:
        prefix = next(p for t, p in ERROR_PREFIXES.items() if isinstance(exc, t))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 1

    sys.stdout.buffer.write(out)
    sys.stdout.buffer.flush()
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
