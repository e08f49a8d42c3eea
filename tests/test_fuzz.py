"""Property-based fuzz of the CLI: every input yields a report or one typed line.

Each example mutates the fixture CSV (empty cells, extreme and non-finite
numbers, a whole numeric column scaled by a power of two, duplicate,
unsorted and off-quarter dates, a byte-order mark, CRLF or CR-only line
ends, bytes that are not UTF-8, extra and missing columns)
and runs one subcommand on it in-process, twice.  The run must exit 0 with
output and a silent stderr, or exit 1 or 2 with no output and exactly one
stderr line that starts with a prefix the README documents.  The second run,
which may reuse the kept frame of the first, must give the same result.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twinreg.cli import main

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "loanloss_quarterly.csv"
LINES = FIXTURE.read_text().splitlines()
HEADER, ROWS = LINES[0].split(","), [line.split(",") for line in LINES[1:]]

DOCUMENTED_PREFIXES = (
    "parse error: ",
    "data error: ",
    "singular design: ",
    "input error: ",
    "numeric error: ",
    "consistency error: ",
    "memory error: ",
)

COMMANDS = (
    ["describe"],
    ["anova"],
    ["anova", "--group", "year"],
    ["ols"],
    ["bayes", "--draws", "1000"],
    ["verdict", "--draws", "1000"],
    ["report", "--draws", "1000", "--format", "json"],
)

EXTREMES = (
    "0", "-0", "-1", "1e-308", "5e-324", "1e12", "1e160", "1e200", "1e308", "-1e308",
    "1e400", "nan", "inf", "-inf", "0x10", "1_000",
)

numbers = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
dates = st.one_of(
    st.dates().map(lambda d: d.isoformat()),
    st.sampled_from(("2011-04-01", "2011-04-02", "2011-05-01", "2011-13-01", "soon", "")),
)


# 2**k for a whole column: from the smallest subnormal to past the overflow
# of squares, with the powers where sums underflow drawn often
scales = st.one_of(
    st.sampled_from((-1074, -1000, -540, -300, 900)).map(lambda k: 2.0**k),
    st.integers(-1074, 900).map(lambda k: 2.0**k),
)

EDITS = (
    "empty", "number", "scale", "date", "duplicate", "extra", "missing", "shuffle",
    "header", "crlf", "cr", "bom", "non-utf8",
)


def scale_cell(cell: str, factor: float) -> str:
    try:
        return repr(float(cell) * factor)  # exact, bar underflow and overflow
    except ValueError:
        return cell  # a date, or a cell an earlier edit made non-numeric


@st.composite
def mutated_csv(draw, pool=EDITS) -> bytes:
    header, rows, end = list(HEADER), [list(r) for r in ROWS], "\n"
    edits = draw(st.lists(st.sampled_from(pool), max_size=5))
    for edit in edits:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if edit == "empty":
            row[draw(st.integers(0, len(row) - 1))] = ""
        elif edit == "number" and len(row) > 1:
            row[draw(st.integers(1, len(row) - 1))] = draw(numbers)
        elif edit == "scale":
            col, factor = draw(st.integers(1, len(HEADER) - 1)), draw(scales)
            for r in rows:
                if col < len(r):
                    r[col] = scale_cell(r[col], factor)
        elif edit == "date":
            row[0] = draw(dates)
        elif edit == "duplicate":
            row[0] = draw(st.sampled_from(rows))[0]
        elif edit == "extra":
            row.append(draw(numbers))
        elif edit == "missing":
            row.pop()
        elif edit == "shuffle":
            rows = draw(st.permutations(rows))
        elif edit == "header":
            header = draw(st.sampled_from((header[:-1], header + ["extra"], header[::-1])))
        elif edit in ("crlf", "cr"):
            end = {"crlf": "\r\n", "cr": "\r"}[edit]
    data = "".join(",".join(r) + end for r in [header, *rows]).encode()
    if "bom" in edits:
        data = b"\xef\xbb\xbf" + data
    if "non-utf8" in edits:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
    return data


def run_main(argv):
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout.flush()
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def fuzz(max_examples):
    return settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy warnings are extra stderr lines
@fuzz(max_examples=150)
@given(data=mutated_csv(), command=st.sampled_from(COMMANDS))
def test_every_input_yields_output_or_one_typed_line(workdir, data, command):
    check_two_runs(workdir, data, command)


# among all edits, whole-column scales are too rare to reach every stage
@pytest.mark.filterwarnings("error::RuntimeWarning")
@fuzz(max_examples=60)
@given(data=mutated_csv(("scale",)), command=st.sampled_from(COMMANDS))
def test_scaled_columns_yield_output_or_one_typed_line(workdir, data, command):
    check_two_runs(workdir, data, command)


def check_two_runs(workdir, data, command):
    """Output and a silent stderr, or no output and one typed line; the same twice."""
    path = workdir / "input.csv"
    path.write_bytes(data)
    code, out, err = run_main([*command, "--input", str(path)])
    assert run_main([*command, "--input", str(path)]) == (code, out, err)
    assert code in (0, 1, 2)
    if code == 0:
        assert out and err == ""
    else:
        assert out == b""
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert err.startswith(DOCUMENTED_PREFIXES)
