"""Command-line entry point orchestrating the pipeline."""

from __future__ import annotations

import argparse
import datetime
import math
import sys
from functools import cache, cached_property, lru_cache
from typing import TYPE_CHECKING

from . import data, describe, report
from .errors import ConsistencyError, ConvergenceError, DataError, ParseError, SingularDesignError

if TYPE_CHECKING:
    from . import bayes, ols

# stderr prefix per failure, most specific type first; each exits with 1
ERROR_PREFIXES = {
    ParseError: "parse error",
    SingularDesignError: "singular design",
    ConsistencyError: "consistency error",
    DataError: "data error",
    OSError: "input error",
    ConvergenceError: "numeric error",
    ValueError: "numeric error",
    MemoryError: "memory error",
}


# flag -> its add_argument keywords, in --help order
_COMMON_FLAGS = {
    "--input": dict(required=True, help="path to the quarterly CSV"),
    "--format": dict(
        choices=("text", "json"), default="text", dest="fmt", help="output format (default text)"
    ),
}
_BAYES_FLAGS = {
    "--draws": dict(type=int, default=10_000, help="posterior draws (>= 1000)"),
    "--seed": dict(type=int, default=42, help="random seed (default 42)"),
    "--ci-level": dict(type=float, default=0.89, help="credible level in (0,1)"),
    "--hdi": dict(
        action="store_true", help="use the highest-density interval instead of equal tails"
    ),
    "--coef-sd": dict(type=float, help="override every coefficient prior sd with this value"),
    "--sigma2-shape": dict(type=float, default=1.0),
    "--sigma2-scale": dict(
        type=float, help="sigma2 prior scale (default: auto-scaled to the data)"
    ),
}
_VERDICT_FLAGS = {
    "--pirope-epsilon": dict(
        type=float, default=1.0, help="max percent-in-ROPE for Bayesian significance (default 1.0)"
    ),
    "--no-assoc-threshold": dict(
        type=float,
        default=99.0,
        help="percent-in-ROPE at or above which no association is flagged",
    ),
}
_VIF_FLAG = {"--vif-cutoff": dict(type=float, default=10.0)}

# subcommand -> (its help, its flags after the common ones, the report
# sections it renders, computed in this order)
COMMANDS = {
    "describe": ("descriptive statistics per variable", {}, ("descriptive",)),
    "anova": (
        "one-way ANOVA of Loss",
        {
            "--group": dict(
                choices=("month", "year"),
                default="month",
                dest="group_key",
                help="grouping key: calendar month-of-year or calendar year",
            )
        },
        ("anova",),
    ),
    "ols": ("OLS fit with inference and diagnostics", _VIF_FLAG, ("ols_fit", "ols_diag")),
    "bayes": ("Bayesian posterior summary with ROPE", _BAYES_FLAGS, ("bayes",)),
    "verdict": ("combined significance verdict", _BAYES_FLAGS | _VERDICT_FLAGS, ("verdicts",)),
    "report": (
        "full report: all sections",
        _BAYES_FLAGS | _VERDICT_FLAGS | _VIF_FLAG,
        ("ols_fit", "bayes", "descriptive", "anova", "ols_diag", "verdicts"),
    ),
    "aggregate": (
        "average a daily series over the month before a quarter start",
        {"--quarter-start": dict(required=True, help="quarter start date, YYYY-MM-DD")},
        (),
    ),
}


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
    for command, (summary, flags, _) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag, kwargs in (_COMMON_FLAGS | flags).items():
            p.add_argument(flag, **kwargs)
    return parser


def _check_ranges(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if "draws" in args and args.draws < 1000:
        parser.error(f"--draws must be at least 1000, got {args.draws}")
    if "ci_level" in args and not 0.0 < args.ci_level < 1.0:
        parser.error(f"--ci-level must lie in (0, 1), got {args.ci_level}")
    if "pirope_epsilon" in args and not 0.0 <= args.pirope_epsilon <= 100.0:
        parser.error(f"--pirope-epsilon must lie in [0, 100], got {args.pirope_epsilon}")
    if "no_assoc_threshold" in args and not 0.0 <= args.no_assoc_threshold <= 100.0:
        parser.error(f"--no-assoc-threshold must lie in [0, 100], got {args.no_assoc_threshold}")
    if "vif_cutoff" in args and math.isnan(args.vif_cutoff):
        parser.error("--vif-cutoff must be a number or inf, got nan")


@lru_cache(maxsize=1)
def _kept(raw: bytes) -> tuple[data.ModelFrame, dict]:
    """The last good input's frame, keyed by its bytes, and its input-only stage results."""
    return data.apply_transforms(data.parse_csv(raw)), {}


class _Stages:
    """The pipeline stages of one run; each is computed at most once, on demand."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        with open(args.input, "rb") as fh:
            self.frame, self._results = _kept(fh.read())

    def _once(self, key, stage, *args):
        """stage(*args), kept beside the frame under key; a stage that raises is not kept."""
        if key not in self._results:
            self._results[key] = stage(*args)
        return self._results[key]

    @property
    def design(self) -> ols.DesignMatrix:
        from . import ols  # numpy's stages load on first use: describe and anova skip them
        return self._once("design", ols.build_design, self.frame)

    @property
    def ols_fit(self) -> ols.OlsFit:
        from . import ols
        return self._once("ols_fit", ols.fit_ols, self.design)

    @property
    def ols_diag(self) -> ols.Diagnostics:
        from . import ols
        c = self.args.vif_cutoff  # keyed by its hex, which tells -0 from 0 as the advisory does
        return self._once(("ols_diag", c.hex()), ols.diagnostics, self.design, self.ols_fit, c)

    @property
    def descriptive(self) -> list[describe.SummaryRow]:
        return self._once("descriptive", describe.summarize, self.frame)

    @property
    def anova(self) -> list[describe.AnovaResult]:
        groups = (self.args.group_key,) if "group_key" in self.args else ("month", "year")
        stages = [f"anova_by_{g}" for g in groups]
        return [self._once(name, getattr(describe, name), self.frame) for name in stages]

    @cached_property
    def bayes(self) -> list[bayes.PosteriorSummary]:
        from . import bayes
        from .kernels import RandomSource
        # the fit first, so an input it refuses gets the line ols and verdict print
        a, d, fit = self.args, self.design, self.ols_fit
        prior = bayes.default_prior(d, a.coef_sd, a.sigma2_shape, a.sigma2_scale)
        post = bayes.sample_posterior(d, fit, prior, a.draws, RandomSource(a.seed))
        return bayes.summarize_posterior(post, self.frame.loss, level=a.ci_level, use_hdi=a.hdi)

    @cached_property
    def verdicts(self) -> list[report.Verdict]:
        a = self.args
        return report.combined_verdict(
            self.ols_fit, self.bayes, a.pirope_epsilon, a.no_assoc_threshold
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
        return report.json_bytes({"quarter_start": qs.isoformat(), "prior_month_mean": value})
    return f"{value!r}\n".encode("utf-8")


def _run(args: argparse.Namespace) -> bytes:
    if args.command == "aggregate":
        return _aggregate(args)
    stages = _Stages(args)
    sections = {name: getattr(stages, name) for name in COMMANDS[args.command][2]}
    return report.render_report(report.ReportSections(**sections), args.fmt)


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
