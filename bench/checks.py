"""Independent oracles for every output the benchmark collects.

Nothing here imports twinreg: the design is rebuilt from the raw CSV text,
OLS comes from ``numpy.linalg.lstsq``, and the Bayesian medians are checked
against the closed-form Normal-Inverse-Gamma marginal of each coefficient (a
Student-t with location c'mu_n), to within a few Monte Carlo standard errors.
``check`` returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import math

import numpy as np

NAMES = ("(Intercept)", "Month", "Year", "AdjPop", "Ratio", "APLIR", "FFR", "ExpClaims")
MCSE_K = 5.0  # medians may sit this many Monte Carlo standard errors from exact
SIG3 = 5e-3  # relative rounding of the text tables' three significant figures
P_THRESHOLD, PIROPE_EPSILON = 0.05, 1.0  # the CLI's default verdict rule


def parse_rows(text: str) -> list[tuple]:
    """Complete rows as (date, loss, total_pop, ratio, aplir, ffr, av_claims), by date."""
    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader)]
    order = [header.index(c) for c in ("date", "loss", "total_pop", "ratio", "aplir", "ffr", "av_claims")]
    rows = []
    for row in reader:
        cells = [row[i].strip() for i in order] if len(row) == len(header) else []
        if not cells or any(c == "" for c in cells):
            continue
        rows.append((datetime.date.fromisoformat(cells[0]),) + tuple(float(c) for c in cells[1:]))
    rows.sort()
    return rows


def design(rows: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """[1, Month, Year, AdjPop, Ratio, APLIR, FFR, ExpClaims] and the loss response."""
    origin = rows[0][0]
    X = np.array([
        [
            1.0,
            (d.year - origin.year) * 4 + (d.month - origin.month) // 3 + 1,
            d.year - origin.year + 1,
            pop / 1e8, ratio, aplir, ffr, math.exp(claims / 1e6),
        ]
        for d, _, pop, ratio, aplir, ffr, claims in rows
    ])
    y = np.array([r[1] for r in rows])
    return X, y


class Oracle:
    """Reference values for one input file."""

    def __init__(self, text: str):
        self.rows = parse_rows(text)
        self.X, self.y = design(self.rows)
        n, p = self.X.shape
        self.beta = np.linalg.lstsq(self.X, self.y, rcond=None)[0]
        resid = self.y - self.X @ self.beta
        self.sigma2 = float(resid @ resid) / (n - p)
        _, sv, vt = np.linalg.svd(self.X, full_matrices=False)
        self.se = np.sqrt(self.sigma2 * ((vt / sv[:, None]) ** 2).sum(axis=0))
        self._nig = None

    def describe(self) -> dict[str, tuple[float, ...]]:
        cols = list(zip(NAMES[1:], self.X[:, 1:].T)) + [("Loss", self.y)]
        return {
            name: (c.mean(), c.std(ddof=1), float(np.median(c)), c.min(), c.max())
            for name, c in cols
        }

    def anova(self, group: str) -> tuple[int, int, float]:
        """(df_between, df_within, F) of loss grouped by calendar month or year."""
        keys = [d.month if group == "month" else d.year for d, *_ in self.rows]
        groups = [self.y[[k == g for k in keys]] for g in dict.fromkeys(keys)]
        n, k = len(self.y), len(groups)
        grand = self.y.mean()
        ssb = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
        ssw = sum(float(((g - g.mean()) ** 2).sum()) for g in groups)
        return k - 1, n - k, (ssb / (k - 1)) / (ssw / (n - k))

    def nig(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Exact marginal t location, scale and df of each raw coefficient under
        the CLI's default auto-scaled prior."""
        if self._nig is None:
            X, y = self.X, self.y
            n, p = X.shape
            sd_y = y.std(ddof=1)
            sd = np.array([2.5 * sd_y] + [2.5 * sd_y / X[:, j].std(ddof=1) for j in range(1, p)])
            mu0 = np.zeros(p)
            mu0[0] = y.mean()
            xbar = np.r_[0.0, X[:, 1:].mean(axis=0)]
            Z = X - xbar
            lam0 = self.sigma2 / sd**2
            A = Z.T @ Z + np.diag(lam0)
            mu_n = np.linalg.solve(A, Z.T @ y + lam0 * mu0)
            a_n = 1.0 + 0.5 * n
            b_n = self.sigma2 + 0.5 * (y @ y + mu0 * lam0 @ mu0 - mu_n @ A @ mu_n)
            C = np.eye(p)
            C[0, 1:] = -xbar[1:]  # raw intercept = centred intercept - xbar'beta
            loc = C @ mu_n
            scale = np.sqrt(b_n / a_n * np.einsum("ij,jk,ik->i", C, np.linalg.inv(A), C))
            self._nig = (loc, scale, 2.0 * a_n)
        return self._nig

    def median_mcse(self, draws: int) -> np.ndarray:
        """Monte Carlo standard error of a sample median: 1 / (2 f(m) sqrt(N))."""
        _, scale, df = self.nig()
        f_m = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
        return scale / (2.0 * f_m * math.sqrt(draws))


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_tol


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _text_sections(text: str) -> dict[str, list[list[str]]]:
    sections: dict[str, list[list[str]]] = {}
    cur: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("== "):
            cur = sections.setdefault(line.strip("= ").split(" (")[0], [])
        elif " | " in line:
            cur.append(line.split(" | "))
    return sections


def _check_describe(got: dict[str, list[float]], o: Oracle, rel: float) -> list[str]:
    want = o.describe()
    if sorted(got) != sorted(want):
        return [f"describe rows {sorted(got)}"]
    return [
        f"describe {name} {got[name]} vs {want[name]}"
        for name in want
        if not all(_close(g, w, rel, 1e-12) for g, w in zip(got[name], want[name]))
    ]


def _check_anova(got: list[tuple], o: Oracle, rel: float) -> list[str]:
    errs = []
    for group, f, df1, df2, p in got:
        w1, w2, wf = o.anova(group)
        if (df1, df2) != (w1, w2) or not _close(f, wf, rel, 1e-12) or not 0.0 <= p <= 1.0:
            errs.append(f"anova {group}: F {f} df {df1},{df2} p {p} vs F {wf} df {w1},{w2}")
    return errs


def _check_ols(est: list[float], se: list[float], o: Oracle, rel: float) -> list[str]:
    # 1e-6 of a standard error is far below any real disagreement and far
    # above the rounding difference between QR and the SVD oracle
    bad = [
        NAMES[j]
        for j in range(len(NAMES))
        if not (_close(est[j], o.beta[j], rel, 1e-6 * o.se[j]) and _close(se[j], o.se[j], max(rel, 1e-6)))
    ]
    return [f"ols estimate/se off for {bad}"] if bad else []


def _check_bayes(params: list[tuple], o: Oracle, draws: int, rounding: float) -> list[str]:
    loc, _, _ = o.nig()
    tol = MCSE_K * o.median_mcse(draws) + rounding
    errs = []
    for j, (name, median, lo, hi, pirope) in enumerate(params):
        if name != NAMES[j] or abs(median - loc[j]) > tol[j]:
            errs.append(f"bayes {name}: median {median} vs exact {loc[j]} (tol {tol[j]:.3g})")
        if not lo <= median <= hi:
            errs.append(f"bayes {name}: interval [{lo}, {hi}] misses median {median}")
        if not 0.0 <= pirope <= 100.0:
            errs.append(f"bayes {name}: pirope {pirope} outside [0, 100]")
    return errs


def _check_verdict(rows: list[tuple]) -> list[str]:
    errs = []
    if [r[0] for r in rows] != list(NAMES[1:]):
        errs.append(f"verdict terms {[r[0] for r in rows]}")
    for name, p, pirope, combined in rows:
        freq, bayes = p < P_THRESHOLD, pirope <= PIROPE_EPSILON
        want = "significant" if freq and bayes else "ambiguous" if freq or bayes else "not-significant"
        if not (0.0 <= p <= 1.0 and 0.0 <= pirope <= 100.0) or combined.split(" ")[0] != want:
            errs.append(f"verdict {name}: p {p} pirope {pirope} -> {combined}, want {want}")
    return errs


def _check_json(doc: dict, o: Oracle, draws: int) -> list[str]:
    errs = []
    if "descriptive" in doc:
        got = {r["name"]: [r["mean"], r["sd"], r["median"], r["min"], r["max"]] for r in doc["descriptive"]}
        errs += _check_describe(got, o, 1e-9)
    if "anova" in doc:
        errs += _check_anova([(a["group"], a["f"], a["df1"], a["df2"], a["p"]) for a in doc["anova"]], o, 1e-9)
    if "ols" in doc:
        terms = doc["ols"]["terms"]
        errs += _check_ols([t["estimate"] for t in terms], [t["std_error"] for t in terms], o, 1e-9)
        if [t["term"] for t in terms] != list(NAMES):
            errs.append("ols terms")
    if "bayes" in doc:
        params = [(b["name"], b["median"], b["ci_low"], b["ci_high"], b["pirope"]) for b in doc["bayes"]["parameters"]]
        errs += _check_bayes(params, o, draws, 0.0)
    if "verdict" in doc:
        rows = [(v["term"], v["p_value"], v["pirope"], v["combined"]) for v in doc["verdict"]]
        errs += _check_verdict(rows)
        if "ols" in doc and [v["p_value"] for v in doc["verdict"]] != [t["p_value"] for t in doc["ols"]["terms"][1:]]:
            errs.append("verdict p-values differ from the ols section")
    return errs


def _check_text(text: str, o: Oracle, draws: int) -> list[str]:
    s = _text_sections(text)
    errs = []
    if "Descriptive Statistics" in s:
        rows = s["Descriptive Statistics"][1:]
        errs += _check_describe({r[0]: [float(v) for v in r[1:]] for r in rows}, o, SIG3)
    if "One-way ANOVA" in s:
        rows = s["One-way ANOVA"][1:]
        errs += _check_anova([(r[0], float(r[1]), int(r[2]), int(r[3]), float(r[4])) for r in rows], o, SIG3)
    if "OLS Regression" in s:
        rows = [r for r in s["OLS Regression"] if r[0] in NAMES]
        if [r[0] for r in rows] != list(NAMES):
            errs.append("ols terms")
        else:
            errs += _check_ols([float(r[1]) for r in rows], [float(r[2]) for r in rows], o, SIG3)
    if "Bayesian Posterior" in s:
        params = []
        for r in s["Bayesian Posterior"][1:]:
            lo, hi = (float(v) for v in r[2].strip("[]").split(", "))
            params.append((r[0], float(r[1]), lo, hi, float(r[4])))
        errs += _check_bayes(params, o, draws, 0.005)
    if "Combined Verdict" in s:
        rows = [(r[0], float(r[1]), float(r[2]), r[5]) for r in s["Combined Verdict"][1:]]
        errs += _check_verdict(rows)
    return errs


# sections each subcommand must print
EXPECTED = {
    "describe": {"descriptive"},
    "anova": {"anova"},
    "ols": {"ols"},
    "bayes": {"bayes"},
    "verdict": {"verdict"},
    "report": {"descriptive", "anova", "ols", "bayes", "verdict"},
}
_TEXT_TITLES = {
    "Descriptive Statistics": "descriptive",
    "One-way ANOVA": "anova",
    "OLS Regression": "ols",
    "Bayesian Posterior": "bayes",
    "Combined Verdict": "verdict",
}


def check(argv: list[str], stdout: bytes, oracle: Oracle) -> list[str]:
    """Problems with one command's stdout, judged against the oracle."""
    draws = int(_flag(argv, "--draws", "10000"))
    try:
        text = stdout.decode("utf-8")
        if _flag(argv, "--format", "text") == "json":
            doc = json.loads(text)
            present = set(doc)
            errs = _check_json(doc, oracle, draws)
        else:
            present = {_TEXT_TITLES[t] for t in _text_sections(text) if t in _TEXT_TITLES}
            errs = _check_text(text, oracle, draws)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    if present != EXPECTED[argv[0]]:
        errs.append(f"sections {sorted(present)}, want {sorted(EXPECTED[argv[0]])}")
    return errs
