"""Descriptive statistics and one-way ANOVA, in Python floats without numpy.

Both compute at the exact power-of-two scale ``floats.scale_exponent`` gives
each column and add with ``math.fsum``, the correctly rounded sum, so no
value depends on the order of the terms, the Python version or the C
library; the summaries are scaled back through the output rule
``floats.scaled_back``, and F does not depend on the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Hashable, Sequence

from .data import ModelFrame
from .errors import DataError
from .floats import f_sf, require_finite, scale_exponent, scaled_back


@dataclass(frozen=True)
class SummaryRow:
    name: str
    mean: float
    sd: float
    median: float
    min: float
    max: float


@dataclass(frozen=True)
class AnovaResult:
    group_label: str
    k: int
    n: int
    f_stat: float
    df_between: int
    df_within: int
    p_value: float


def median_of_sorted(x: Sequence[float]) -> float:
    """Median of an ascending sequence, bit-identical to ``np.median``."""
    n = len(x)
    return x[n // 2] if n % 2 else (x[n // 2 - 1] + x[n // 2]) / 2


def summarize(frame: ModelFrame) -> list[SummaryRow]:
    """One SummaryRow per variable; sd uses the n-1 denominator."""
    n = len(frame)
    if n == 0:
        raise DataError("cannot summarize an empty frame")
    rows = []
    for name, col in zip((*frame.names, "Loss"), [*frame.regressor_columns(), frame.loss]):
        require_finite(col, repr(name), frame.dates)
        exp = scale_exponent(col)
        x = [math.ldexp(v, -exp) for v in col]
        mean = math.fsum(x) / n
        squares = math.fsum([(v - mean) * (v - mean) for v in x])
        sd = math.sqrt(squares / (n - 1)) if n > 1 else 0.0
        ranked = sorted(x)
        stats = (mean, sd, median_of_sorted(ranked), ranked[0], ranked[-1])
        what = (f"{s} of {name!r}" for s in ("mean", "sd", "median", "min", "max"))
        rows.append(SummaryRow(name, *map(scaled_back, stats, repeat(exp), what)))
    return rows


def one_way_anova(
    values: Sequence[float],
    groups: Sequence[Hashable],
    label: str = "group",
) -> AnovaResult:
    """F = (SSB/(k-1)) / (SSW/(n-k)); upper-tail p via the F distribution."""
    y = list(map(float, values))
    if len(y) != len(groups):
        raise DataError("values and groups must have equal length")
    k, n = len(set(groups)), len(y)
    if k < 2:
        raise DataError(f"ANOVA needs at least 2 groups, got {k}")
    if n <= k:
        raise DataError(f"ANOVA needs more observations than groups (n={n}, k={k})")
    require_finite(y, f"{label} ANOVA value")
    exp = scale_exponent(y)  # F does not depend on the scale
    y = [math.ldexp(v, -exp) for v in y]
    by_group: dict[Hashable, list[float]] = {}
    for v, g in zip(y, groups):
        by_group.setdefault(g, []).append(v)
    grand = math.fsum(y) / n
    means = [(math.fsum(sub) / len(sub), sub) for sub in by_group.values()]
    # squares as d * d, not by the C library's pow, whose last bit varies by host
    ssb = math.fsum(len(sub) * ((m - grand) * (m - grand)) for m, sub in means)
    ssw = math.fsum([(v - m) * (v - m) for m, sub in means for v in sub])
    msb, msw = ssb / (k - 1), ssw / (n - k)
    if msw == 0.0:
        f = 0.0 if msb == 0.0 else math.inf
    else:
        f = msb / msw  # inf: the groups differ beyond a double's range
    return AnovaResult(group_label=label, k=k, n=n, f_stat=f, df_between=k - 1,
                       df_within=n - k, p_value=f_sf(f, k - 1, n - k))


def anova_by_month(frame: ModelFrame) -> AnovaResult:
    """Loss grouped by calendar month-of-year (Jan/Apr/Jul/Oct for quarterly data)."""
    return one_way_anova(frame.loss, [d.month for d in frame.dates], label="month")


def anova_by_year(frame: ModelFrame) -> AnovaResult:
    return one_way_anova(frame.loss, [d.year for d in frame.dates], label="year")
