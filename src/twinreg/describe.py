"""Descriptive statistics and one-way ANOVA."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .data import ModelFrame
from .errors import DataError
from .kernels import SQUARES_MIN, f_sf, median_of_sorted


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


def _summary(name: str, x: np.ndarray) -> SummaryRow:
    sd = float(np.std(x, ddof=1)) if len(x) > 1 else 0.0
    return SummaryRow(
        name=name,
        mean=float(np.mean(x)),
        sd=sd,
        median=median_of_sorted(np.sort(x)),
        min=float(np.min(x)),
        max=float(np.max(x)),
    )


def summarize(frame: ModelFrame) -> list[SummaryRow]:
    """One SummaryRow per variable; sd uses the n-1 denominator."""
    if len(frame) == 0:
        raise DataError("cannot summarize an empty frame")
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [
            _summary(name, col)
            for name, col in zip(frame.names, frame.regressor_columns())
        ]
        rows.append(_summary("Loss", frame.loss))
    for r in rows:
        if not (math.isfinite(r.mean) and math.isfinite(r.sd) and math.isfinite(r.median)):
            raise DataError(f"{r.name} too large: its mean, sd or median overflows a double")
        if r.sd * r.sd < SQUARES_MIN and r.min < r.max:
            raise DataError(f"{r.name} too small: its variance underflows a double")
    return rows


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
    ssb = 0.0
    ssw = 0.0
    # each group as one contiguous slice, its values in input order
    ys = y[np.argsort(codes, kind="stable")]
    ends = np.cumsum(np.bincount(codes)).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        grand = y.mean()
        for start, end in zip([0, *ends], ends):
            sub = ys[start:end]
            mean = np.add.reduce(sub) / len(sub)
            ssb += len(sub) * (mean - grand) ** 2
            ssw += float(np.add.reduce(np.square(sub - mean)))
    if not (math.isfinite(ssb) and math.isfinite(ssw)):
        raise DataError(f"values too large: the {label} ANOVA sums of squares overflow a double")
    if ssb + ssw < SQUARES_MIN and y.min() < y.max():
        raise DataError(f"values too small: the {label} ANOVA sums of squares underflow a double")
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
