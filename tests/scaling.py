"""What a report should be when one input column is scaled by a power of two.

Scaling a column by 2**k is exact, and every stage computes at a power-of-two
scale of its own, so each number of a report is scaled exactly too, or not
at all:

* the loss: every number in loss units by 2**k (``sigma2_hat`` by 2**2k);
* a regressor: its ``describe`` row by 2**k, and its estimate, standard
  error, posterior median and CI by 2**-k.  Its PIROPE, and the verdict built
  on it, change, because the ROPE is fixed in loss units;
* the loss by 2**k and a regressor by 2**j: both rules at once, so that
  regressor's coefficient scales by 2**(k - j).

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


def expected(ref, name, k, loss_k=0):
    """ref, a JSON report, as the input with the column `name` times 2**k gives it.

    With loss_k, `name` is a regressor and the loss is times 2**loss_k as
    well: the numbers in loss units scale by 2**loss_k and the regressor's
    coefficient by 2**(loss_k - k).  The keys that follow from a scaled
    regressor's PIROPE are kept as they are; compare both reports through
    ``masked``.
    """
    return _scaled(ref, {"Loss": loss_k, name: k}, 0)


def _scaled(ref, scales, e):
    # e: the power of two of the numbers under ref, where no key says otherwise
    if isinstance(ref, dict):
        row = ref.get("name", ref.get("term"))
        if "sd" in ref:  # a descriptive row: in units of its own variable
            return {key: _scaled(v, scales, scales.get(row, 0)) for key, v in ref.items()}
        exps = {key: power * scales["Loss"] for key, power in LOSS_POWER.items()}
        if row != "Loss" and row in scales:
            exps.update((key, exps[key] - scales[row]) for key in COEF_KEYS)
        return {key: _scaled(v, scales, exps.get(key, e)) for key, v in ref.items()}
    if isinstance(ref, list):
        return [_scaled(v, scales, e) for v in ref]
    if isinstance(ref, float):
        return math.ldexp(ref, e)
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


def same_report(got, ref, name, k, loss_k=0):
    """Whether the JSON report got is ref's with the column `name` times 2**k
    (and the loss times 2**loss_k, as ``expected`` says)."""
    return masked(got, name) == masked(expected(ref, name, k, loss_k), name)


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
