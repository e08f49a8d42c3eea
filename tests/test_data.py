"""Tests for CSV ingestion, quarterly transforms, and the daily aggregator."""

import datetime
import math
import random

import numpy as np
import pytest

from oracles import exact_sum
from twinreg import (
    DataError,
    Observation,
    ParseError,
    aggregate_prior_month,
    apply_transforms,
    parse_csv,
    parse_daily_csv,
)

HEADER = "date,loss,total_pop,ratio,aplir,ffr,av_claims"

QUARTER_MONTHS = (1, 4, 7, 10)


def encode_time(date: datetime.date, origin: datetime.date) -> tuple[int, int]:
    """One date's time encoding: (quarters since origin + 1, years since origin + 1).

    The per-date oracle for the month_index and year_index columns that
    apply_transforms computes for all rows at once.
    """
    for d, label in ((origin, "origin"), (date, "date")):
        if not (d.day == 1 and d.month in QUARTER_MONTHS):
            raise DataError(f"{label} {d.isoformat()} is not a quarter start")
    if date < origin:
        raise DataError(f"date {date.isoformat()} precedes origin {origin.isoformat()}")
    quarters = (date.year - origin.year) * 4 + (
        QUARTER_MONTHS.index(date.month) - QUARTER_MONTHS.index(origin.month)
    )
    return quarters + 1, date.year - origin.year + 1


def row(d, loss="0.5", pop="300000000", ratio="0.97", aplir="3.3", ffr="0.1", claims="3000000"):
    return f"{d},{loss},{pop},{ratio},{aplir},{ffr},{claims}"


def make_csv(*rows: str, header: str = HEADER) -> bytes:
    return ("\n".join([header, *rows]) + "\n").encode()


class TestParseCsv:
    def test_basic_parse(self):
        obs = parse_csv(make_csv(row("2011-04-01"), row("2011-07-01", loss="0.6")))
        assert len(obs) == 2
        assert obs[0].date == datetime.date(2011, 4, 1)
        assert obs[0].loss == 0.5
        assert obs[0].total_pop == 300000000.0
        assert obs[1].loss == 0.6

    def test_rows_sorted_by_date(self):
        obs = parse_csv(make_csv(row("2012-01-01"), row("2011-04-01"), row("2011-10-01")))
        assert [o.date.isoformat() for o in obs] == [
            "2011-04-01", "2011-10-01", "2012-01-01",
        ]

    def test_header_column_order_is_free(self):
        shuffled = "ffr,date,av_claims,loss,ratio,total_pop,aplir"
        text = f"{shuffled}\n0.1,2011-04-01,3000000,0.5,0.97,300000000,3.3\n"
        obs = parse_csv(text.encode())
        assert obs[0].loss == 0.5
        assert obs[0].ffr == 0.1
        assert obs[0].av_claims == 3000000.0

    def test_accepts_str_and_file_objects(self, tmp_path):
        text = make_csv(row("2011-04-01"))
        assert parse_csv(text.decode()) == parse_csv(text)
        path = tmp_path / "x.csv"
        path.write_bytes(text)
        with open(path, "rb") as fh:
            assert parse_csv(fh) == parse_csv(text)

    def test_rows_with_any_empty_field_are_dropped(self):
        obs = parse_csv(
            make_csv(
                row("2011-04-01"),
                row("2011-07-01", loss=""),
                row("2011-10-01", claims=""),
                row("2012-01-01"),
            )
        )
        assert [o.date.isoformat() for o in obs] == ["2011-04-01", "2012-01-01"]

    def test_drop_happens_before_validation(self):
        # a row missing one field is discarded even if another field is garbage
        obs = parse_csv(make_csv(row("2011-04-01"), row("2011-07-01", loss="", ratio="junk")))
        assert len(obs) == 1

    def test_blank_lines_are_skipped(self):
        text = make_csv(row("2011-04-01")) + b"\n\n"
        assert len(parse_csv(text)) == 1

    def test_missing_header_column(self):
        with pytest.raises(ParseError):
            parse_csv(b"date,loss\n2011-04-01,0.5\n")

    def test_extra_header_column(self):
        with pytest.raises(ParseError):
            parse_csv((HEADER + ",bonus\n").encode() + b"2011-04-01,1,2,3,4,5,6,7\n")

    def test_malformed_date_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_csv(make_csv(row("2011-04-01"), row("not-a-date")))

    def test_non_quarterly_date_rejected(self):
        with pytest.raises(ParseError, match="quarter"):
            parse_csv(make_csv(row("2011-05-01")))

    def test_mid_month_date_rejected(self):
        with pytest.raises(ParseError):
            parse_csv(make_csv(row("2011-04-15")))

    def test_duplicate_date_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_csv(make_csv(row("2011-04-01"), row("2011-04-01", loss="0.7")))

    def test_non_numeric_value_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_csv(make_csv(row("2011-04-01", ffr="abc")))

    def test_nonpositive_population_rejected(self):
        with pytest.raises(ParseError):
            parse_csv(make_csv(row("2011-04-01", pop="0")))

    def test_negative_ratio_rejected(self):
        with pytest.raises(ParseError):
            parse_csv(make_csv(row("2011-04-01", ratio="-0.5")))

    def test_negative_claims_rejected(self):
        with pytest.raises(ParseError):
            parse_csv(make_csv(row("2011-04-01", claims="-1")))

    def test_wrong_field_count_rejected(self):
        text = (HEADER + "\n2011-04-01,0.5,300000000\n").encode()
        with pytest.raises(ParseError, match="line 2"):
            parse_csv(text)


class TestFirstErrorWins:
    """Which message a row with several faults gets: the order of the checks."""

    def test_field_count_before_empty_cell(self):
        text = make_csv(row("2011-04-01"), "2011-07-01,,300000000,0.97,3.3,0.1")
        with pytest.raises(ParseError, match="^line 3: expected 7 fields, got 6$"):
            parse_csv(text)

    def test_empty_cell_drops_a_row_with_a_bad_date(self):
        obs = parse_csv(make_csv(row("2011-04-01"), row("2011-13-01", aplir="")))
        assert [o.date.isoformat() for o in obs] == ["2011-04-01"]

    def test_bad_date_before_bad_number(self):
        with pytest.raises(ParseError, match="^line 2: malformed date 'soon'$"):
            parse_csv(make_csv(row("soon", loss="x")))

    def test_numbers_are_checked_in_column_order(self):
        with pytest.raises(ParseError, match="^line 2: non-numeric loss field 'x'$"):
            parse_csv(make_csv(row("2011-04-01", loss="x", ffr="y")))
        # the header order does not change which number is checked first
        header = "ffr,av_claims,date,loss,total_pop,ratio,aplir"
        with pytest.raises(ParseError, match="^line 2: non-numeric loss field 'x'$"):
            parse_csv(make_csv("y,3000000,2011-04-01,x,300000000,0.97,3.3", header=header))

    def test_duplicate_date_before_bad_number(self):
        text = make_csv(row("2011-04-01"), row("2011-07-01"), row("2011-04-01", ratio="z"))
        with pytest.raises(
            ParseError, match=r"^line 4: duplicate date 2011-04-01 \(first seen on line 2\)$"
        ):
            parse_csv(text)

    def test_bad_number_before_range_check(self):
        with pytest.raises(ParseError, match="^line 2: non-numeric av_claims field 'q'$"):
            parse_csv(make_csv(row("2011-04-01", pop="0", claims="q")))


class TestEncodeTime:
    def test_origin_maps_to_one_one(self):
        assert encode_time(datetime.date(2011, 4, 1), datetime.date(2011, 4, 1)) == (1, 1)

    def test_quarter_and_year_counters(self):
        origin = datetime.date(2011, 4, 1)
        assert encode_time(datetime.date(2011, 7, 1), origin) == (2, 1)
        assert encode_time(datetime.date(2012, 1, 1), origin) == (4, 2)
        assert encode_time(datetime.date(2012, 4, 1), origin) == (5, 2)
        assert encode_time(datetime.date(2020, 4, 1), origin) == (37, 10)

    def test_date_before_origin_rejected(self):
        with pytest.raises(DataError):
            encode_time(datetime.date(2011, 1, 1), datetime.date(2011, 4, 1))

    def test_non_quarter_start_rejected(self):
        with pytest.raises(DataError):
            encode_time(datetime.date(2011, 5, 1), datetime.date(2011, 4, 1))
        with pytest.raises(DataError):
            encode_time(datetime.date(2011, 7, 1), datetime.date(2011, 4, 2))


class TestApplyTransforms:
    def test_column_values(self):
        obs = parse_csv(
            make_csv(
                row("2011-04-01", pop="309412550", claims="3885942"),
                row("2011-07-01", pop="310000000", claims="1000000"),
            )
        )
        frame = apply_transforms(obs)
        assert frame.adj_pop[0] == 309412550 / 1e8
        assert frame.exp_claims[0] == math.exp(3885942 / 1e6)
        assert frame.exp_claims[1] == math.exp(1.0)
        assert list(frame.month_index) == [1, 2]
        assert list(frame.year_index) == [1, 1]

    def test_origin_is_earliest_date(self):
        obs = parse_csv(make_csv(row("2012-04-01"), row("2011-10-01")))
        frame = apply_transforms(obs)
        assert frame.dates[0] == datetime.date(2011, 10, 1)
        assert list(frame.month_index) == [1, 3]
        assert list(frame.year_index) == [1, 2]

    def test_every_column_is_read_only(self):
        frame = apply_transforms(parse_csv(make_csv(row("2011-04-01"), row("2011-07-01"))))
        for name in (
            "month_index", "year_index", "adj_pop", "ratio", "aplir", "ffr", "exp_claims", "loss",
        ):
            with pytest.raises(TypeError, match="does not support item assignment"):
                getattr(frame, name)[0] = 0

    def test_transform_is_deterministic(self):
        obs = parse_csv(make_csv(row("2011-04-01"), row("2011-07-01", loss="0.9")))
        a, b = apply_transforms(obs), apply_transforms(obs)
        assert np.array_equal(a.loss, b.loss)
        assert a.dates == b.dates

    # parse_csv refuses a repeated date with its two lines; Observations
    # built another way are refused here, by the date
    def test_repeated_date_is_named(self):
        obs = parse_csv(make_csv(row("2011-04-01"), row("2011-07-01"), row("2011-10-01")))
        with pytest.raises(DataError, match="^duplicate date 2011-04-01$"):
            apply_transforms(obs + obs[:1])
        with pytest.raises(DataError, match="^duplicate date 2011-10-01$"):
            apply_transforms(obs[2:] + obs)

    # parse_csv refuses inf and nan; Observations built another way are
    # refused here, by the column and the date of the first one
    @pytest.mark.parametrize("column", HEADER.split(",")[1:])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_is_named(self, column, bad):
        obs = parse_csv(make_csv(row("2011-04-01"), row("2011-07-01"), row("2011-10-01")))
        obs[1] = obs[1]._replace(**{column: bad})
        obs[2] = obs[2]._replace(**{column: -bad})
        with pytest.raises(DataError, match=f"^non-finite {column} {bad!r} on 2011-07-01$"):
            apply_transforms(obs)

    def test_regressor_columns_order(self):
        frame = apply_transforms(parse_csv(make_csv(row("2011-04-01"), row("2011-07-01"))))
        cols = frame.regressor_columns()
        assert len(cols) == 7
        assert cols[0] == tuple(map(float, frame.month_index))
        assert np.array_equal(cols[3], frame.ratio)
        assert np.array_equal(cols[6], frame.exp_claims)


def random_quarters(rng, n):
    """n distinct quarter starts from 1900 to 2100, in random order."""
    return [
        datetime.date(1900 + q // 4, 3 * (q % 4) + 1, 1) for q in rng.sample(range(800), n)
    ]


def observations(dates, rng):
    return [
        Observation(d, rng.uniform(0, 3), rng.uniform(1e8, 4e8), rng.uniform(0.9, 1.1),
                    rng.uniform(2, 6), rng.uniform(0, 3), rng.uniform(0, 7e8))
        for d in dates
    ]


class TestColumnarTransforms:
    """The columnar frame against per-row oracles, bit for bit."""

    @pytest.mark.parametrize("seed", range(20))
    def test_time_indices_equal_encode_time(self, seed):
        rng = random.Random(seed)
        dates = random_quarters(rng, rng.randint(1, 300))
        frame = apply_transforms(observations(dates, rng))  # unsorted input
        assert list(frame.dates) == sorted(dates)
        want = [encode_time(d, frame.dates[0]) for d in frame.dates]
        assert list(frame.month_index) == [m for m, _ in want]
        assert list(frame.year_index) == [y for _, y in want]
        assert {type(i) for i in frame.month_index + frame.year_index} == {int}

    @pytest.mark.parametrize("seed", range(5))
    def test_value_columns_equal_per_value_transforms(self, seed):
        rng = random.Random(seed)
        obs = sorted(observations(random_quarters(rng, 200), rng), key=lambda o: o.date)
        frame = apply_transforms(obs[::-1])
        assert list(frame.exp_claims) == [math.exp(o.av_claims / 1e6) for o in obs]
        assert list(frame.adj_pop) == [o.total_pop / 1e8 for o in obs]
        for name in ("loss", "ratio", "aplir", "ffr"):
            assert list(getattr(frame, name)) == [getattr(o, name) for o in obs]

    def test_non_quarter_origin_is_named_first(self):
        rng = random.Random(0)
        dates = [datetime.date(2011, 4, 2), datetime.date(2011, 8, 1), datetime.date(2011, 10, 1)]
        with pytest.raises(DataError, match="^origin 2011-04-02 is not a quarter start$"):
            apply_transforms(observations(dates[::-1], rng))

    def test_first_non_quarter_date_is_named(self):
        rng = random.Random(0)
        dates = [datetime.date(2012, 2, 1), datetime.date(2011, 4, 1), datetime.date(2011, 8, 1)]
        with pytest.raises(DataError, match="^date 2011-08-01 is not a quarter start$"):
            apply_transforms(observations(dates, rng))

    def test_first_overflowing_claims_row_is_named(self):
        obs = [
            Observation(datetime.date(2011, 10, 1), 0.5, 3e8, 0.97, 3.3, 0.1, 2e9),
            Observation(datetime.date(2011, 4, 1), 0.5, 3e8, 0.97, 3.3, 0.1, 3e6),
            Observation(datetime.date(2011, 7, 1), 0.5, 3e8, 0.97, 3.3, 0.1, 1e9),
        ]
        with pytest.raises(
            DataError, match=r"^av_claims 1000000000\.0 on 2011-07-01 overflows exp\(av_claims / 1e6\)$"
        ):
            apply_transforms(obs)


class TestAggregatePriorMonth:
    def daily(self, *pairs):
        return [(datetime.date.fromisoformat(d), v) for d, v in pairs]

    def test_mean_of_prior_month(self):
        daily = self.daily(
            ("2011-03-01", 2.0), ("2011-03-15", 4.0), ("2011-03-31", 6.0),
            ("2011-04-01", 100.0), ("2011-02-28", 100.0),
        )
        assert aggregate_prior_month(daily, datetime.date(2011, 4, 1)) == 4.0

    def test_january_uses_december_of_prior_year(self):
        daily = self.daily(("2011-12-10", 1.0), ("2011-12-20", 3.0), ("2012-01-05", 99.0))
        assert aggregate_prior_month(daily, datetime.date(2012, 1, 1)) == 2.0

    def test_missing_values_are_skipped(self):
        daily = self.daily(("2011-03-01", 5.0)) + [(datetime.date(2011, 3, 2), None)]
        assert aggregate_prior_month(daily, datetime.date(2011, 4, 1)) == 5.0

    @pytest.mark.parametrize("seed", range(10))
    def test_mean_has_the_bits_of_the_plain_sum_in_input_order(self, seed):
        # the plain sum in input order, taken over exact rationals and rounded once
        rng = random.Random(seed)
        for _ in range(200):
            scale = 2.0 ** rng.randint(-900, 900)  # the sums and the mean stay normal
            vals = [rng.uniform(-1, 1) * scale * rng.choice((1, 2**-40)) for _ in range(31)]
            daily = [(datetime.date(2011, 3, d), v) for d, v in enumerate(vals, 1)]
            got = aggregate_prior_month(daily, datetime.date(2011, 4, 1))
            assert got.hex() == (exact_sum(vals) / len(vals)).hex()

    # parse_daily_csv refuses inf and nan; pairs built another way are refused
    # here, by the date of the first one, and only in the month that is averaged
    @pytest.mark.parametrize("bad", [[math.inf, -math.inf], [-math.inf], [math.nan, 1.0]])
    def test_non_finite_value_is_named(self, bad):
        daily = self.daily(("2011-02-01", math.nan), ("2011-03-01", 1.0))
        daily += [(datetime.date(2011, 3, d), v) for d, v in enumerate(bad, 2)]
        with pytest.raises(DataError, match=f"^non-finite value {bad[0]!r} on 2011-03-02$"):
            aggregate_prior_month(daily, datetime.date(2011, 4, 1))
        assert aggregate_prior_month(daily[:2], datetime.date(2011, 4, 1)) == 1.0

    def test_no_usable_values_raises(self):
        daily = self.daily(("2011-01-01", 5.0))
        with pytest.raises(DataError):
            aggregate_prior_month(daily, datetime.date(2011, 4, 1))

    @pytest.mark.parametrize("day", ["2011-04-17", "2011-05-01"])
    def test_quarter_start_must_start_a_quarter(self, day):
        daily = self.daily(("2011-03-01", 5.0), ("2011-04-01", 7.0))
        with pytest.raises(DataError, match=f"^{day} is not a quarter start"):
            aggregate_prior_month(daily, datetime.date.fromisoformat(day))


class TestParseDailyCsv:
    def test_happy_path_with_gaps(self):
        text = b"date,value\n2011-03-01,1.5\n2011-03-02,\n2011-03-03,2.5\n"
        out = parse_daily_csv(text)
        assert out == [
            (datetime.date(2011, 3, 1), 1.5),
            (datetime.date(2011, 3, 2), None),
            (datetime.date(2011, 3, 3), 2.5),
        ]

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_daily_csv(b"day,value\n2011-03-01,1\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_daily_csv(b"date,value\n2011-03-01,1\n2011-03-02,zz\n")

    @pytest.mark.parametrize("repeat", ["2011-03-01,1", "2011-03-01,", "2011-03-01,zz"])
    def test_duplicate_date_rejected(self, repeat):
        text = f"date,value\n2011-03-01,1\n2011-03-02,4\n{repeat}\n".encode()
        with pytest.raises(
            ParseError, match=r"^line 4: duplicate date 2011-03-01 \(first seen on line 2\)$"
        ):
            parse_daily_csv(text)


# both parsers read through one record reader; each case runs against each
PARSERS = {
    "quarterly": (parse_csv, HEADER, row("2011-04-01")),
    "daily": (parse_daily_csv, "date,value", "2011-03-01,1.5"),
}


@pytest.fixture(params=sorted(PARSERS))
def reader(request):
    return PARSERS[request.param]


class TestRecordReader:
    def test_empty_input(self, reader):
        parse, _, _ = reader
        with pytest.raises(ParseError, match="^line 1: empty input"):
            parse(b"")

    def test_wrong_header(self, reader):
        parse, header, good = reader
        with pytest.raises(ParseError, match="^line 1: header must name the columns"):
            parse(f"{header.replace('date', 'day')}\n{good}\n".encode())

    def test_wrong_field_count_names_its_line(self, reader):
        parse, header, good = reader
        n = header.count(",") + 1
        with pytest.raises(ParseError, match=f"^line 3: expected {n} fields, got {n + 1}$"):
            parse(f"{header}\n{good}\n{good},1\n".encode())

    def test_blank_rows_are_skipped(self, reader):
        parse, header, good = reader
        blank = ",".join([" "] * (header.count(",") + 1))
        text = f"{header}\n\n{blank}\n{good}\n\n".encode()
        assert parse(text) == parse(f"{header}\n{good}\n".encode())
        assert len(parse(text)) == 1

    def test_byte_order_mark_is_accepted(self, reader):
        parse, header, good = reader
        text = f"{header}\n{good}\n".encode()
        assert parse(b"\xef\xbb\xbf" + text) == parse(text)

    def test_non_utf8_byte_names_its_line(self, reader):
        parse, header, good = reader
        with pytest.raises(ParseError, match="^line 3: not UTF-8: byte 0xff$"):
            parse(f"{header}\n{good}\n".encode() + b"\xff" + good.encode() + b"\n")

    def test_malformed_date_quotes_the_stripped_cell(self, reader):
        parse, header, good = reader
        cells = good.split(",")
        cells[0] = " 2011-13-01 "
        with pytest.raises(ParseError, match="^line 2: malformed date '2011-13-01'$"):
            parse(f"{header}\n{','.join(cells)}\n".encode())

    def test_cr_only_line_ends_are_a_parse_error(self, reader):
        parse, header, good = reader
        with pytest.raises(ParseError, match="^line 1: unreadable CSV: new-line character"):
            parse(f"{header}\r{good}\r".encode())

    def test_over_long_cell_names_its_line(self, reader):
        parse, header, good = reader
        long_cell = good + "x" * 131_073
        with pytest.raises(ParseError, match="^line 3: unreadable CSV: field larger than"):
            parse(f"{header}\n{good}\n{long_cell}\n{good}\n".encode())
