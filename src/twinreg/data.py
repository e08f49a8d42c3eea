"""CSV ingestion, temporal encodings, and scale transforms.

The canonical input is a quarterly CSV with header
``date,loss,total_pop,ratio,aplir,ffr,av_claims`` (any column order).  Rows
with any empty field carry no usable information and are dropped.  Remaining
rows are validated in one pass, sorted by date, and turned column by column
into a ModelFrame of tuples, of Python floats and ints, which are safe to
share.  Its columns feed both regression engines:

* ``adj_pop``    = total_pop / 1e8
* ``adj_claims`` = av_claims / 1e6
* ``exp_claims`` = exp(adj_claims), by ``math.exp`` per value
* ``month_index``, ``year_index``: quarters and years since the first
  observed date, plus one, from one integer expression per row.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add, itemgetter
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .errors import DataError, ParseError
from .floats import scale_exponent, scaled_back

QUARTER_MONTHS = (1, 4, 7, 10)

CSV_COLUMNS = ("date", "loss", "total_pop", "ratio", "aplir", "ffr", "av_claims")

REGRESSOR_NAMES = ("Month", "Year", "AdjPop", "Ratio", "APLIR", "FFR", "ExpClaims")


class Observation(NamedTuple):
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
    month_index: tuple[int, ...]
    year_index: tuple[int, ...]
    adj_pop: tuple[float, ...]
    ratio: tuple[float, ...]
    aplir: tuple[float, ...]
    ffr: tuple[float, ...]
    exp_claims: tuple[float, ...]
    loss: tuple[float, ...]
    names: tuple[str, ...] = field(default=REGRESSOR_NAMES)

    def __len__(self) -> int:
        return len(self.loss)

    def regressor_columns(self) -> list[tuple[float, ...]]:
        """Columns in model order (Month, Year, AdjPop, Ratio, APLIR, FFR, ExpClaims)."""
        return [
            tuple(map(float, self.month_index)),
            tuple(map(float, self.year_index)),
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
) -> Iterator[tuple[int, list[str]]]:
    """Each non-blank row as (1-based line, its stripped cells in ``columns`` order).

    The header must name exactly ``columns``, in any order, and every row
    must have one field per column.
    """
    reader = csv.reader(_as_text_lines(data))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty input: missing header row", line=1)
        names = [h.strip() for h in header]
        if sorted(names) != sorted(columns):
            raise ParseError(f"header must name the columns {', '.join(columns)}; got {names}", line=1)
        width = len(names)
        order = [names.index(c) for c in columns]
        for row in reader:
            if len(row) != width:
                if "".join(row).strip():
                    raise ParseError(f"expected {width} fields, got {len(row)}", line=reader.line_num)
                continue  # a blank row, with any field count
            cells = [row[i].strip() for i in order]
            if not any(cells):
                continue  # a blank row
            yield reader.line_num, cells
    except csv.Error as exc:  # a CR-only line ending, a cell over the csv module's size limit
        raise ParseError(f"unreadable CSV: {exc}", line=reader.line_num) from None


def _parse_date(text: str, line: int) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise ParseError(f"malformed date {text!r}", line=line) from None


_QUARTER_START_RULE = "expected the first of Jan/Apr/Jul/Oct"


def _is_quarter_start(d: datetime.date) -> bool:
    return d.day == 1 and d.month in QUARTER_MONTHS


def _parse_quarter_date(text: str, line: int) -> datetime.date:
    d = _parse_date(text, line)
    if not _is_quarter_start(d):
        raise ParseError(
            f"non-quarterly date {text!r} ({_QUARTER_START_RULE})",
            line=line,
        )
    return d


def _check_unique(seen: dict[datetime.date, int], date: datetime.date, line: int) -> None:
    first = seen.setdefault(date, line)
    if first != line:
        raise ParseError(
            f"duplicate date {date.isoformat()} (first seen on line {first})", line=line
        )


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
        if "" in cells:
            continue  # the stated omission rule: incomplete rows are dropped
        date = _parse_quarter_date(cells[0], line)
        _check_unique(seen, date, line)
        loss, total_pop, ratio, aplir, ffr, av_claims = map(
            _parse_number, cells[1:], CSV_COLUMNS[1:], repeat(line)
        )
        if total_pop <= 0:
            raise ParseError(f"total_pop must be positive, got {total_pop}", line=line)
        if ratio <= 0:
            raise ParseError(f"ratio must be positive, got {ratio}", line=line)
        if av_claims < 0:
            raise ParseError(f"av_claims must be nonnegative, got {av_claims}", line=line)
        out.append(Observation(date, loss, total_pop, ratio, aplir, ffr, av_claims))
    out.sort(key=itemgetter(0))
    return out


def _exp_claim(av_claims: float, date: datetime.date) -> float:
    try:
        return math.exp(av_claims / 1e6)
    except OverflowError:
        raise DataError(
            f"av_claims {av_claims!r} on {date.isoformat()} overflows exp(av_claims / 1e6)"
        ) from None


def apply_transforms(obs: Sequence[Observation]) -> ModelFrame:
    """Build the ModelFrame: time encodings plus the documented scale transforms."""
    if not obs:
        raise DataError("cannot build a model frame from zero observations")
    dates, loss, total_pop, ratio, aplir, ffr, av_claims = zip(*sorted(obs, key=itemgetter(0)))
    bad = next((d for d in dates if not _is_quarter_start(d)), None)
    if bad is not None:  # the origin, dates[0], is checked first
        label = "origin" if bad == dates[0] else "date"
        raise DataError(f"{label} {bad.isoformat()} is not a quarter start")
    repeated = next((a for a, b in zip(dates, dates[1:]) if a == b), None)
    if repeated is not None:
        raise DataError(f"duplicate date {repeated.isoformat()}")
    months = [d.year * 12 + d.month - 1 for d in dates]  # since January of year 0
    return ModelFrame(
        dates=dates,
        month_index=tuple((m - months[0]) // 3 + 1 for m in months),
        year_index=tuple(m // 12 - months[0] // 12 + 1 for m in months),
        adj_pop=tuple(float(v) / 1e8 for v in total_pop),
        ratio=tuple(map(float, ratio)),
        aplir=tuple(map(float, aplir)),
        ffr=tuple(map(float, ffr)),
        exp_claims=tuple(_exp_claim(c, d) for c, d in zip(av_claims, dates)),
        loss=tuple(map(float, loss)),
    )


def _prior_month(quarter_start: datetime.date) -> tuple[int, int]:
    if quarter_start.month == 1:
        return quarter_start.year - 1, 12
    return quarter_start.year, quarter_start.month - 1


def aggregate_prior_month(
    daily: Iterable[tuple[datetime.date, float | None]],
    quarter_start: datetime.date,
) -> float:
    """Mean of the non-empty values dated in the month before quarter_start, formed
    at their power-of-two scale and returned through the output rule."""
    if not _is_quarter_start(quarter_start):
        raise DataError(
            f"{quarter_start.isoformat()} is not a quarter start ({_QUARTER_START_RULE})"
        )
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
    exp = scale_exponent(vals)
    # in input order; not sum(), which adds floats with compensation from Python 3.12 on
    total = reduce(add, (math.ldexp(v, -exp) for v in vals), 0.0)
    what = f"mean of the month preceding {quarter_start.isoformat()}"
    return scaled_back(total / len(vals), exp, what)


def parse_daily_csv(data: bytes | str | IO[bytes]) -> list[tuple[datetime.date, float | None]]:
    """Parse the daily-series helper input (header ``date,value``); dates are unique."""
    out: list[tuple[datetime.date, float | None]] = []
    seen: dict[datetime.date, int] = {}
    for line, (date_text, text) in _records(data, ("date", "value")):
        date = _parse_date(date_text, line)
        _check_unique(seen, date, line)
        out.append((date, _parse_number(text, "value", line) if text else None))
    return out
