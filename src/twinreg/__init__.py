"""Dual frequentist/Bayesian regression pipeline for quarterly loan-loss data."""

__version__ = "0.1.0"

from .bayes import (
    PosteriorDraws,
    PosteriorSummary,
    PriorSpec,
    credible_interval,
    default_prior,
    hdi_interval,
    pirope,
    rope_bounds,
    sample_posterior,
    summarize_posterior,
)
from .data import (
    ModelFrame,
    Observation,
    aggregate_prior_month,
    apply_transforms,
    parse_csv,
    parse_daily_csv,
)
from .describe import (
    AnovaResult,
    SummaryRow,
    anova_by_month,
    anova_by_year,
    one_way_anova,
    summarize,
)
from .errors import (
    ConsistencyError,
    ConvergenceError,
    DataError,
    ParseError,
    SingularDesignError,
    TwinregError,
)
from .kernels import (
    RandomSource,
    chi2_sf,
    f_sf,
    reg_inc_beta,
    student_t_sf2,
)
from .ols import DesignMatrix, Diagnostics, OlsFit, build_design, diagnostics, fit_ols
from .report import ReportSections, Verdict, combined_verdict, render_report
