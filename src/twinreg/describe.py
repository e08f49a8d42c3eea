"""Descriptive statistics and one-way ANOVA.

Both compute at the exact power-of-two scale ``kernels.scale_exponent`` gives
each column; the summaries are scaled back through the output rule
``kernels.scaled_back``, and F does not depend on the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .data import ModelFrame
from .errors import DataError
from .kernels import f_sf, median_of_sorted, scale_exponent, scaled_back


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


def summarize(frame: ModelFrame) -> list[SummaryRow]:
    """One SummaryRow per variable; sd uses the n-1 denominator."""
    n = len(frame)
    if n == 0:
        raise DataError("cannot summarize an empty frame")
    names = (*frame.names, "Loss")
    cols = np.stack([*frame.regressor_columns(), frame.loss])
    exp = scale_exponent(cols, axis=1)[:, None]
    cols = np.ldexp(cols, -exp)
    ranked = np.sort(cols, axis=1)
    stats = np.column_stack([  # mean, sd, median, min, max
        cols.mean(axis=1), cols.std(axis=1, ddof=1) if n > 1 else np.zeros(len(cols)),
        median_of_sorted(ranked), ranked[:, 0], ranked[:, -1],
    ])
    what = [[f"{s} of {name!r}" for s in ("mean", "sd", "median", "min", "max")] for name in names]
    rows = scaled_back(stats, exp, what)
    return [SummaryRow(name, *map(float, row)) for name, row in zip(names, rows)]


def one_way_anova(
    values: Sequence[float],
    groups: Sequence[Hashable],
    label: str = "group",
) -> AnovaResult:
    """F = (SSB/(k-1)) / (SSW/(n-k)); upper-tail p via the F distribution."""
    y = np.asarray(values, dtype=float)
    if len(y) != len(groups):
        raise DataError("values and groups must have equal length")
    code_of: dict[Hashable, int] = {}  # codes follow first appearance
    codes = np.array([code_of.setdefault(g, len(code_of)) for g in groups], dtype=np.intp)
    k, n = len(code_of), len(y)
    if k < 2:
        raise DataError(f"ANOVA needs at least 2 groups, got {k}")
    if n <= k:
        raise DataError(
            f"ANOVA needs more observations than groups (n={n}, k={k})"
        )
    y = np.ldexp(y, -scale_exponent(y))  # F does not depend on the scale
    ssb = 0.0
    ssw = 0.0
    # each group as one contiguous slice, its values in input order
    ys = y[np.argsort(codes, kind="stable")]
    ends = np.cumsum(np.bincount(codes)).tolist()
    grand = y.mean()
    for start, end in zip([0, *ends], ends):
        sub = ys[start:end]
        mean = np.add.reduce(sub) / len(sub)
        ssb += len(sub) * (mean - grand) ** 2
        ssw += float(np.add.reduce(np.square(sub - mean)))
    msb = ssb / (k - 1)
    msw = ssw / (n - k)
    if msw == 0.0:
        f = 0.0 if msb == 0.0 else math.inf
    else:
        with np.errstate(over="ignore"):  # inf: the groups differ beyond a double's range
            f = msb / msw
    return AnovaResult(
        group_label=label,
        k=k,
        n=n,
        f_stat=f,
        df_between=k - 1,
        df_within=n - k,
        p_value=f_sf(f, k - 1, n - k),
    )


def anova_by_month(frame: ModelFrame) -> AnovaResult:
    """Loss grouped by calendar month-of-year (Jan/Apr/Jul/Oct for quarterly data)."""
    return one_way_anova(frame.loss, [d.month for d in frame.dates], label="month")


def anova_by_year(frame: ModelFrame) -> AnovaResult:
    return one_way_anova(frame.loss, [d.year for d in frame.dates], label="year")
