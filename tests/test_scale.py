"""The fixture with its loss column scaled by a power of two.

Scaling every loss by 2**k scales each loss-unit number of an exact pipeline
by 2**k (sigma2_hat by 2**2k) and leaves the rest unchanged, bit for bit, as
long as no intermediate value overflows or turns subnormal.  So each run
must either reproduce the fixture's JSON that way or refuse the input with
exit 1, no output and one ``data error:`` line.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from twinreg.cli import main

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "loanloss_quarterly.csv"

COMMANDS = (["describe"], ["anova"], ["anova", "--group", "year"], ["ols"], ["bayes"], ["verdict"])

# JSON keys in units of the loss (power 1) or of its square (power 2)
LOSS_POWER = {
    "estimate": 1, "std_error": 1, "mean_resid": 1, "sigma2_hat": 2,
    "rope": 1, "median": 1, "ci_low": 1, "ci_high": 1, "ci_midpoint": 1,
}


def run_json(argv):
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    stdout.flush()
    return code, out.getvalue(), err.getvalue()


def scaled_csv(path, k):
    lines = FIXTURE.read_text().splitlines()
    col = lines[0].split(",").index("loss")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        cells[col] = repr(math.ldexp(float(cells[col]), k))
        rows.append(",".join(cells))
    path.write_text("\n".join([lines[0], *rows]) + "\n")
    return str(path)


def scaled(ref, power, k):
    """ref with every float scaled by 2**(power * k), other values as they are."""
    if isinstance(ref, dict):
        if "sd" in ref:  # a descriptive row: only the Loss row is in loss units
            return {key: scaled(v, ref["name"] == "Loss", k) for key, v in ref.items()}
        return {key: scaled(v, LOSS_POWER.get(key, power), k) for key, v in ref.items()}
    if isinstance(ref, list):
        return [scaled(v, power, k) for v in ref]
    if isinstance(ref, float):
        return math.ldexp(ref, power * k)
    return ref


@pytest.fixture(scope="module")
def fixture_json():
    out = {}
    for command in COMMANDS:
        code, text, _ = run_json([*command, "--input", str(FIXTURE)])
        assert code == 0
        out[tuple(command)] = json.loads(text)
    return out


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize(
    "k", [-1000, -600, -540, -530, -500, -400, -300, -200, -100, 100, 200, 400, 900]
)
def test_scaled_loss_reproduces_the_fixture_or_is_refused(tmp_path, fixture_json, command, k):
    code, out, err = run_json([*command, "--input", scaled_csv(tmp_path / "scaled.csv", k)])
    if code == 0:
        assert err == ""
        assert json.loads(out) == scaled(fixture_json[tuple(command)], 0, k)
    else:
        assert (code, out) == (1, b"")
        assert len(err.splitlines()) == 1 and err.startswith("data error: ")
