"""Dual frequentist/Bayesian regression pipeline for quarterly loan-loss data.

Each public name is imported from its module on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "bayes": "PosteriorDraws PosteriorSummary PriorSpec credible_interval default_prior "
    "hdi_interval pirope rope_bounds sample_posterior summarize_posterior",
    "data": "ModelFrame Observation aggregate_prior_month apply_transforms parse_csv "
    "parse_daily_csv",
    "describe": "AnovaResult SummaryRow anova_by_month anova_by_year one_way_anova summarize",
    "errors": "ConsistencyError ConvergenceError DataError ParseError SingularDesignError "
    "TwinregError",
    "floats": "chi2_sf f_sf reg_inc_beta student_t_sf2",
    "kernels": "RandomSource",
    "ols": "DesignMatrix Diagnostics OlsFit build_design diagnostics fit_ols",
    "report": "ReportSections Verdict combined_verdict render_report",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
