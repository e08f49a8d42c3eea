"""What a report should be when one input column is scaled by a power of two.

Scaling a column by 2**k is exact, and every stage computes at a power-of-two
scale of its own, so each number of a report is scaled exactly too, or not
at all:

* the loss: every number in loss units by 2**k (``sigma2_hat`` by 2**2k);
* a regressor: its ``describe`` row by 2**k, and its estimate, standard
  error, posterior median and CI by 2**-k.  Its PIROPE, and the verdict built
  on it, change, because the ROPE is fixed in loss units.

A run may instead refuse with one ``data error:`` line, and then only
because a number it returns does not fit a normal double.
"""

import math
import re

# CSV column -> its name in the reports
REPORT_NAME = {
    "loss": "Loss", "total_pop": "AdjPop", "ratio": "Ratio", "aplir": "APLIR", "ffr": "FFR",
}
DIVISOR = {"total_pop": 1e8}  # AdjPop is total_pop / 1e8

# JSON keys in units of the loss (power 1) or of its square (power 2)
LOSS_POWER = {
    "estimate": 1, "std_error": 1, "mean_resid": 1, "sigma2_hat": 2,
    "rope": 1, "median": 1, "ci_low": 1, "ci_high": 1, "ci_midpoint": 1,
}
# keys of a coefficient's rows in units of the loss over its regressor
COEF_KEYS = ("estimate", "std_error", "median", "ci_low", "ci_high", "ci_midpoint")
# keys of a regressor's rows that follow from its PIROPE
PIROPE_KEYS = ("pirope", "bayes_significant", "combined", "no_association")

# the refusal of a returned value that does not fit a normal double
OUTPUT_REFUSAL = re.compile(
    r"data error: (sigma2_hat|residuals|fitted values|mean_resid|ROPE bound|sigma2 draws"
    r"|(estimate|std error|posterior|prior sd|prior mean|mean|sd|median|min|max"
    r"|ci_low|ci_high|ci_midpoint|draws) of '[^']+')"
    r" too (large|small): "
)


def expected(ref, name, k, power=0):
    """ref, a JSON report, as the input with the column `name` times 2**k gives it.

    The keys that follow from a scaled regressor's PIROPE are kept as they
    are; compare both reports through ``masked``.
    """
    if isinstance(ref, dict):
        row = ref.get("name", ref.get("term"))
        if "sd" in ref:  # a descriptive row: in units of its own variable
            return {key: expected(v, name, k, int(row == name)) for key, v in ref.items()}
        if name == "Loss":
            powers = LOSS_POWER
        else:
            powers = dict.fromkeys(COEF_KEYS, -1) if row == name else {}
        return {key: expected(v, name, k, powers.get(key, power)) for key, v in ref.items()}
    if isinstance(ref, list):
        return [expected(v, name, k, power) for v in ref]
    if isinstance(ref, float):
        return math.ldexp(ref, power * k)
    return ref


def masked(doc, name):
    """doc with the keys that follow from the regressor `name`'s PIROPE set to None."""
    if isinstance(doc, dict):
        out = {key: masked(v, name) for key, v in doc.items()}
        if name != "Loss" and doc.get("name", doc.get("term")) == name:
            out.update((key, None) for key in PIROPE_KEYS if key in out)
        return out
    if isinstance(doc, list):
        return [masked(v, name) for v in doc]
    return doc


def same_report(got, ref, name, k):
    """Whether the JSON report got is ref's with the column `name` times 2**k."""
    return masked(got, name) == masked(expected(ref, name, k), name)


def scaled_text(text, column, k):
    """The CSV text with column times 2**k; None if that, or the design column
    made from it, does not scale back exactly (an overflow, or subnormal values)."""
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    div = DIVISOR.get(column, 1.0)
    rows = [line.split(",") for line in lines[1:]]
    for cells in rows:
        v = float(cells[col])
        try:
            s = math.ldexp(v, k)
        except OverflowError:
            return None
        if math.ldexp(s, -k) != v or math.ldexp(s / div, -k) != v / div:
            return None
        cells[col] = repr(s)
    return "\n".join([lines[0], *(",".join(cells) for cells in rows)]) + "\n"
