"""The fixture with one column scaled by a power of two.

Scaling a column by 2**k is exact, and every stage computes at a power-of-two
scale of its own, so each number of a report is scaled exactly too, or not
at all (see ``scaling``).  So each run must either reproduce the fixture's
JSON that way or refuse the input with exit 1, no output and one
``data error:`` line naming a returned value that does not fit a normal
double.  A k is skipped only when the scaled column itself, or the design
column made from it, does not scale back exactly.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from scaling import OUTPUT_REFUSAL, REPORT_NAME, expected, same_report, scaled_text

from twinreg.cli import main

# a numpy warning would be an extra stderr line
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "loanloss_quarterly.csv"

COMMANDS = (["describe"], ["anova"], ["anova", "--group", "year"], ["ols"], ["bayes"], ["verdict"])
# the same at 1000 draws, for the grid of every column
GRID_COMMANDS = [c + ["--draws", "1000"] if c[0] in ("bayes", "verdict") else c for c in COMMANDS]

# every k at the edges of the loss range of ols and bayes, where a scaled
# regressor's coefficient nears the largest double and where it nears the
# smallest normal one, and a sparse grid out to the ends of the doubles
K_GRID = (
    list(range(-1023, -1007)) + list(range(-512, -499)) + list(range(505, 521))
    + list(range(1005, 1024))
    + [-1060, -1000, -900, -800, -700, -600, -540, -520, -400, -300, -200, -100,
       100, 200, 300, 400, 600, 700, 800, 900, 1000]
)


def run_json(argv):
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    stdout.flush()
    return code, out.getvalue(), err.getvalue()


def scaled_csv(path, k, column="loss", loss_k=0):
    """The fixture with column times 2**k (and the loss times 2**loss_k) at
    path; None if that is not exact."""
    text = scaled_text(FIXTURE.read_text(), "loss", loss_k)
    text = None if text is None else scaled_text(text, column, k)
    if text is None:
        return None
    path.write_text(text)
    return str(path)


def check(run, ref, column, k, loss_k=0):
    """run reproduces the report ref with column times 2**k (and the loss
    times 2**loss_k), or refuses a returned value."""
    code, out, err = run
    if code == 0:
        assert err == ""
        assert same_report(json.loads(out), ref, REPORT_NAME[column], k, loss_k)
    else:
        assert (code, out) == (1, b"")
        assert len(err.splitlines()) == 1 and OUTPUT_REFUSAL.match(err), err


def fixture_reports(commands):
    out = {}
    for command in commands:
        code, text, _ = run_json([*command, "--input", str(FIXTURE)])
        assert code == 0
        out[tuple(command)] = json.loads(text)
    return out


@pytest.fixture(scope="module")
def fixture_json():
    return fixture_reports(COMMANDS)


@pytest.fixture(scope="module")
def grid_json():
    return fixture_reports(GRID_COMMANDS)


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize(
    "k", [-1000, -600, -540, -530, -500, -400, -300, -200, -100, 100, 200, 400, 900]
)
def test_scaled_loss_reproduces_the_fixture_or_is_refused(tmp_path, fixture_json, command, k):
    path = scaled_csv(tmp_path / "scaled.csv", k)
    check(run_json([*command, "--input", path]), fixture_json[tuple(command)], "loss", k)


# each column that scales; a regressor's own PIROPE is not compared, as the
# ROPE is fixed in loss units.  bayes and verdict run the fit before the
# prior alike, so they refuse an input with the same line
@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("column", list(REPORT_NAME))
def test_scaled_column_reproduces_the_fixture_or_refuses_an_output(
    tmp_path, grid_json, column, k
):
    path = scaled_csv(tmp_path / "scaled.csv", k, column)
    if path is None:
        pytest.skip(f"{column} times 2**{k} is not exact in the input")
    ends = {}
    for command in GRID_COMMANDS:
        run = ends[command[0]] = run_json([*command, "--input", path])
        check(run, grid_json[tuple(command)], column, k)
    assert ends["bayes"][::2] == ends["verdict"][::2]  # (exit code, stderr)


# the loss times 2**k with one regressor times 2**j, so that regressor's
# coefficient scales by 2**(k - j): equal powers leave it as it is, and the
# rest move it by 2**600 to 2**1000 either way, some with the loss near an
# edge of its range
@pytest.mark.parametrize(
    "k, j",
    [(-512, -512), (-300, 300), (-100, -1000), (100, 900), (300, -300), (505, 505), (900, -100)],
)
@pytest.mark.parametrize("column", [c for c in REPORT_NAME if c != "loss"])
def test_loss_and_a_regressor_scaled_together_reproduce_the_fixture_or_refuse(
    tmp_path, grid_json, column, k, j
):
    path = scaled_csv(tmp_path / "scaled.csv", j, column, loss_k=k)
    if path is None:
        pytest.skip(f"loss times 2**{k} with {column} times 2**{j} is not exact in the input")
    for command in GRID_COMMANDS:
        check(run_json([*command, "--input", path]), grid_json[tuple(command)], column, j, k)


# every number ols returns fits a double here, so it answers
@pytest.mark.parametrize("k", [-500, -400, 400, 500])
def test_ols_answers_the_loss_scaled_far_beyond_its_squares(tmp_path, fixture_json, k):
    code, out, err = run_json(["ols", "--input", scaled_csv(tmp_path / "scaled.csv", k)])
    assert (code, err) == (0, "")
    assert json.loads(out) == expected(fixture_json[("ols",)], "Loss", k)


# the draws are formed at the fit's scale and scaled back last, so bayes
# answers with a Ratio coefficient of 2**1019 and a posterior sd of 2**1018
def test_bayes_answers_a_coefficient_near_the_largest_double(tmp_path, grid_json):
    command = ["bayes", "--draws", "1000"]
    code, out, err = run_json([*command, "--input", scaled_csv(tmp_path / "s.csv", -1010, "ratio")])
    assert (code, err) == (0, "")
    assert same_report(json.loads(out), grid_json[tuple(command)], "Ratio", -1010)
