"""CSV ingestion, temporal encodings, and scale transforms.

The canonical input is a quarterly CSV with header
``date,loss,total_pop,ratio,aplir,ffr,av_claims`` (any column order).  Rows
with any empty field carry no usable information and are dropped.  Remaining
rows are validated, sorted by date, and turned into a ModelFrame whose
columns feed both regression engines:

* ``adj_pop``    = total_pop / 1e8
* ``adj_claims`` = av_claims / 1e6
* ``exp_claims`` = exp(adj_claims)
* ``month_index``, ``year_index`` from :func:`encode_time` with the first
  observed date as origin.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, ParseError

QUARTER_MONTHS = (1, 4, 7, 10)

CSV_COLUMNS = ("date", "loss", "total_pop", "ratio", "aplir", "ffr", "av_claims")

REGRESSOR_NAMES = ("Month", "Year", "AdjPop", "Ratio", "APLIR", "FFR", "ExpClaims")


@dataclass(frozen=True)
class Observation:
    """One quarterly row of raw measurements."""

    date: datetime.date
    loss: float
    total_pop: float
    ratio: float
    aplir: float
    ffr: float
    av_claims: float


@dataclass
class ModelFrame:
    """Transformed design data: response plus the seven regressors."""

    dates: tuple[datetime.date, ...]
    month_index: np.ndarray
    year_index: np.ndarray
    adj_pop: np.ndarray
    ratio: np.ndarray
    aplir: np.ndarray
    ffr: np.ndarray
    exp_claims: np.ndarray
    loss: np.ndarray
    names: tuple[str, ...] = field(default=REGRESSOR_NAMES)

    def __len__(self) -> int:
        return len(self.loss)

    def regressor_columns(self) -> list[np.ndarray]:
        """Columns in model order (Month, Year, AdjPop, Ratio, APLIR, FFR, ExpClaims)."""
        return [
            self.month_index.astype(float),
            self.year_index.astype(float),
            self.adj_pop,
            self.ratio,
            self.aplir,
            self.ffr,
            self.exp_claims,
        ]


def _as_text_lines(data: bytes | str | IO[bytes]) -> io.StringIO:
    if isinstance(data, str):
        return io.StringIO(data)
    if not isinstance(data, bytes):
        data = data.read()
    try:
        # utf-8-sig: a leading byte-order mark is dropped, not read into the header
        return io.StringIO(data.decode("utf-8-sig"))
    except UnicodeDecodeError as exc:
        # exc.object is the input after any byte-order mark, which holds no newline
        line = exc.object[: exc.start].count(b"\n") + 1
        bad = exc.object[exc.start]
        raise ParseError(f"not UTF-8: byte 0x{bad:02x}", line=line) from None


def _records(
    data: bytes | str | IO[bytes], columns: Sequence[str]
) -> Iterator[tuple[int, dict[str, str]]]:
    """Each non-blank row as (1-based line, {column: stripped cell}).

    The header must name exactly ``columns``, in any order, and every row
    must have one field per column.
    """
    reader = csv.reader(_as_text_lines(data))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: missing header row", line=1) from None
    names = [h.strip() for h in header]
    if sorted(names) != sorted(columns):
        raise ParseError(f"header must name the columns {', '.join(columns)}; got {names}", line=1)
    for row in reader:
        line = reader.line_num
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(names):
            raise ParseError(f"expected {len(names)} fields, got {len(row)}", line=line)
        yield line, {name: cell.strip() for name, cell in zip(names, row)}


def _parse_date(text: str, line: int) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise ParseError(f"malformed date {text!r}", line=line) from None


def _parse_quarter_date(text: str, line: int) -> datetime.date:
    d = _parse_date(text, line)
    if d.day != 1 or d.month not in QUARTER_MONTHS:
        raise ParseError(
            f"non-quarterly date {text!r} (expected the first of Jan/Apr/Jul/Oct)",
            line=line,
        )
    return d


def _parse_number(text: str, column: str, line: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ParseError(f"non-numeric {column} field {text!r}", line=line) from None
    if not math.isfinite(v):
        raise ParseError(f"non-finite {column} field {text!r}", line=line)
    return v


def parse_csv(data: bytes | str | IO[bytes]) -> list[Observation]:
    """Parse the canonical quarterly CSV into date-ordered Observations.

    Rows with any empty field are dropped.  Malformed dates, non-numeric
    fields, duplicate dates, and non-quarterly dates raise ParseError with
    the offending 1-based line number.
    """
    out: list[Observation] = []
    seen: dict[datetime.date, int] = {}
    for line, cells in _records(data, CSV_COLUMNS):
        if any(cell == "" for cell in cells.values()):
            continue  # the stated omission rule: incomplete rows are dropped
        date = _parse_quarter_date(cells["date"], line)
        if date in seen:
            raise ParseError(
                f"duplicate date {date.isoformat()} (first seen on line {seen[date]})",
                line=line,
            )
        seen[date] = line
        loss = _parse_number(cells["loss"], "loss", line)
        total_pop = _parse_number(cells["total_pop"], "total_pop", line)
        ratio = _parse_number(cells["ratio"], "ratio", line)
        aplir = _parse_number(cells["aplir"], "aplir", line)
        ffr = _parse_number(cells["ffr"], "ffr", line)
        av_claims = _parse_number(cells["av_claims"], "av_claims", line)
        if total_pop <= 0:
            raise ParseError(f"total_pop must be positive, got {total_pop}", line=line)
        if ratio <= 0:
            raise ParseError(f"ratio must be positive, got {ratio}", line=line)
        if av_claims < 0:
            raise ParseError(f"av_claims must be nonnegative, got {av_claims}", line=line)
        out.append(Observation(date, loss, total_pop, ratio, aplir, ffr, av_claims))
    out.sort(key=lambda o: o.date)
    return out


def load_csv(path: str) -> list[Observation]:
    with open(path, "rb") as fh:
        return parse_csv(fh)


def encode_time(date: datetime.date, origin: datetime.date) -> tuple[int, int]:
    """Discrete time encoding: (quarters since origin + 1, years since origin + 1)."""
    for d, label in ((origin, "origin"), (date, "date")):
        if d.day != 1 or d.month not in QUARTER_MONTHS:
            raise DataError(f"{label} {d.isoformat()} is not a quarter start")
    if date < origin:
        raise DataError(
            f"date {date.isoformat()} precedes origin {origin.isoformat()}"
        )
    quarters = (date.year - origin.year) * 4 + (
        QUARTER_MONTHS.index(date.month) - QUARTER_MONTHS.index(origin.month)
    )
    return quarters + 1, date.year - origin.year + 1


def _exp_claims(o: Observation) -> float:
    try:
        return math.exp(o.av_claims / 1e6)
    except OverflowError:
        raise DataError(
            f"av_claims {o.av_claims!r} on {o.date.isoformat()} overflows "
            "exp(av_claims / 1e6)"
        ) from None


def apply_transforms(obs: Sequence[Observation]) -> ModelFrame:
    """Build the ModelFrame: time encodings plus the documented scale transforms."""
    if not obs:
        raise DataError("cannot build a model frame from zero observations")
    rows = sorted(obs, key=lambda o: o.date)
    origin = rows[0].date
    encoded = [encode_time(o.date, origin) for o in rows]
    return ModelFrame(
        dates=tuple(o.date for o in rows),
        month_index=np.array([m for m, _ in encoded], dtype=np.int64),
        year_index=np.array([y for _, y in encoded], dtype=np.int64),
        adj_pop=np.array([o.total_pop / 1e8 for o in rows]),
        ratio=np.array([o.ratio for o in rows]),
        aplir=np.array([o.aplir for o in rows]),
        ffr=np.array([o.ffr for o in rows]),
        exp_claims=np.array([_exp_claims(o) for o in rows]),
        loss=np.array([o.loss for o in rows]),
    )


def _prior_month(quarter_start: datetime.date) -> tuple[int, int]:
    if quarter_start.month == 1:
        return quarter_start.year - 1, 12
    return quarter_start.year, quarter_start.month - 1


def aggregate_prior_month(
    daily: Iterable[tuple[datetime.date, float | None]],
    quarter_start: datetime.date,
) -> float:
    """Mean of the non-empty values dated in the month before quarter_start."""
    year, month = _prior_month(quarter_start)
    vals = [
        v
        for d, v in daily
        if v is not None and d.year == year and d.month == month
    ]
    if not vals:
        raise DataError(
            f"no usable values in the month preceding {quarter_start.isoformat()}"
        )
    return sum(vals) / len(vals)


def parse_daily_csv(data: bytes | str | IO[bytes]) -> list[tuple[datetime.date, float | None]]:
    """Parse the daily-series helper input (header ``date,value``)."""
    out: list[tuple[datetime.date, float | None]] = []
    for line, cells in _records(data, ("date", "value")):
        date = _parse_date(cells["date"], line)
        text = cells["value"]
        out.append((date, None if text == "" else _parse_number(text, "value", line)))
    return out
