"""Assemble and freeze the 37-row quarterly fixture.

The study this pipeline reproduces never published its assembled data table,
so this script constructs a synthetic stand-in with the same structure:
April 2011 through April 2020, quarterly, with population, sex ratio, prime
and federal funds rates, and averaged continued unemployment claims.  Series
shapes follow the real-world histories; free knobs (population growth rate,
per-series wiggle amplitudes, claims decay and seasonality, sex-ratio drift)
are tuned so the OLS fit of the frozen CSV reproduces the published
coefficient table:

* coefficient vector exactly: the response is X @ beta + e with e
  orthogonalized against the design,
* standard errors via the partial residual sums of squares they imply,
* adjusted R^2 = 0.971 and sd(loss) = 0.387 via the split of total variation
  into fit and residual parts,
* year-grouped ANOVA p near 2.18e-7 via the claims seasonality amplitude,
* descriptive means/sds for Loss, ExpClaims, FFR, APLIR.

Posterior checks (median sign pattern, zero percent-in-ROPE at the default
seed) run at freeze time; if a stray posterior draw lands inside the ROPE,
the wiggle/error seed is bumped and tuning repeats.

Run from the repo root:  python3 scripts/generate_fixture.py
"""

from __future__ import annotations

import json
import math
import sys
from datetime import date
from pathlib import Path

import numpy as np
from scipy.optimize import fsolve

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import twinreg as T  # noqa: E402

N = 37

# published coefficient table, design order (Intercept, Month, Year, AdjPop,
# Ratio, APLIR, FFR, ExpClaims)
BETA_STAR = np.array([-500.0, 0.106, -0.0810, -18.5, 577.0, -0.995, 0.967, 0.0551])
SE_TARGET = np.array([275.0, 0.0519, 0.0396, 13.4, 323.0, 0.422, 0.409, 0.00363])
NAMES = ("(Intercept)", "Month", "Year", "AdjPop", "Ratio", "APLIR", "FFR", "ExpClaims")

SD_LOSS = 0.387
MEAN_LOSS = 0.668
ADJ_R2 = 0.971
P_YEAR = 2.18e-7

MEAN_FFR, SD_FFR = 0.673, 0.781
MEAN_APLIR = 3.79
MEAN_EXP, SD_EXP = 15.3, 11.6

SST_T = (N - 1) * SD_LOSS**2
_RATIO = (1.0 - ADJ_R2) * (N - 8) / (N - 1)  # SSE/SST implied by adjusted R^2
SSE_OVER_FIT = _RATIO / (1.0 - _RATIO)  # SSE as a multiple of SS_fit
SIGMA2_T = _RATIO * SST_T / (N - 8)
S_TARGET = SIGMA2_T / SE_TARGET**2  # partial residual SS per column

# S_APLIR/S_FFR is set by the pass-through slope of the prime rate on the
# funds rate: gamma = sqrt(S_aplir / S_ffr)
GAMMA_AF = math.sqrt(S_TARGET[5] / S_TARGET[6])

# monthly-average federal funds rate for the month before each quarter start
FFR_BASE = np.array([
    0.10, 0.09, 0.08, 0.07, 0.13, 0.16, 0.14, 0.16, 0.14, 0.09, 0.08, 0.09,
    0.08, 0.10, 0.09, 0.12, 0.11, 0.13, 0.14, 0.24, 0.36, 0.38, 0.40, 0.54,
    0.79, 1.04, 1.15, 1.30, 1.51, 1.82, 1.95, 2.27, 2.41, 2.38, 2.04, 1.55,
    0.65,
])

# quarter starts cycle Apr, Jul, Oct, Jan; log-seasonal factors for the
# claims series (prior-month averages: Mar, Jun, Sep, Dec)
LOG_SEAS = {4: 0.00995, 7: -0.01511, 10: -0.06188, 1: 0.06766}


def quarter_dates() -> list[date]:
    out = [date(2011, 4, 1)]
    while len(out) < N:
        d = out[-1]
        out.append(date(d.year + 1, 1, 1) if d.month == 10 else date(d.year, d.month + 3, 1))
    return out


DATES = quarter_dates()
I = np.arange(N, dtype=float)
SEAS_LOG = np.array([LOG_SEAS[d.month] for d in DATES])
MONTH_VEC = I + 1.0
YEAR_VEC = np.array([d.year - 2011 + 1 for d in DATES], dtype=float)
YEAR_LABELS = [d.year for d in DATES]


def make_wiggles(seed: int) -> dict[str, np.ndarray]:
    """Unit wiggle vectors orthogonal to the smooth structure and each other."""
    rng = np.random.default_rng(seed)
    smooth = np.column_stack(
        [np.ones(N), I, I**2, I**3, YEAR_VEC, np.exp(-0.1 * I), FFR_BASE, SEAS_LOG]
    )
    raw = rng.standard_normal((N, 3))
    resid = raw - smooth @ np.linalg.lstsq(smooth, raw, rcond=None)[0]
    q, _ = np.linalg.qr(resid)
    return {"adj": q[:, 0], "ratio": q[:, 1], "aplir": q[:, 2]}


def exp_claims_series(k: float, lam: float) -> np.ndarray:
    """Decaying-with-seasonality claims series hitting the target mean and sd."""

    def series(a, b):
        x = (b + a * np.exp(-k * I)) * np.exp(lam * SEAS_LOG)
        x = x.copy()
        x[35] += 0.4  # early-2020 uptick in continued claims
        x[36] += 2.2
        return x

    def eqs(p):
        x = series(*p)
        return [x.mean() - MEAN_EXP, x.std(ddof=1) - SD_EXP]

    a, b = fsolve(eqs, [40.0, 4.0])
    return series(float(a), float(b))


def build_columns(knobs: dict, w: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Quantized raw series exactly as they will appear in the CSV."""
    ffr = MEAN_FFR + (SD_FFR / FFR_BASE.std(ddof=1)) * (FFR_BASE - FFR_BASE.mean())
    ffr = np.maximum(np.round(ffr, 4), 0.01)

    aplir = (MEAN_APLIR - GAMMA_AF * ffr.mean()) + GAMMA_AF * ffr
    aplir = np.round(aplir + knobs["eta_a"] * w["aplir"], 4)

    exp_target = exp_claims_series(knobs["k"], knobs["lam"])
    av_claims = np.round(1e6 * np.log(exp_target)).astype(np.int64)

    adj = 3.095 + knobs["b_pop"] * I - 1.2e-5 * I**2 + knobs["eta_adj"] * w["adj"]
    total_pop = np.round(adj * 1e8).astype(np.int64)

    ratio = np.round(knobs["r0"] + knobs["r1"] * I + knobs["eta_r"] * w["ratio"], 6)

    return {
        "total_pop": total_pop,
        "ratio": ratio,
        "aplir": aplir,
        "ffr": ffr,
        "av_claims": av_claims,
    }


def design_from_columns(cols: dict[str, np.ndarray]) -> np.ndarray:
    """The design matrix the package will derive from the quantized CSV."""
    return np.column_stack(
        [
            np.ones(N),
            MONTH_VEC,
            YEAR_VEC,
            cols["total_pop"] / 1e8,
            cols["ratio"],
            cols["aplir"],
            cols["ffr"],
            np.exp(cols["av_claims"] / 1e6),
        ]
    )


def loss_from_design(X: np.ndarray, ge: np.ndarray) -> np.ndarray:
    """Response X @ beta + e with e orthogonal to X and SSE set by adj R^2."""
    e = ge - X @ np.linalg.lstsq(X, ge, rcond=None)[0]
    mean_path = X @ BETA_STAR
    ss_fit = float(np.sum((mean_path - mean_path.mean()) ** 2))
    sse = SSE_OVER_FIT * ss_fit
    e *= math.sqrt(sse / float(e @ e))
    return np.round(mean_path + e, 6)


def csv_text(cols: dict[str, np.ndarray], loss: np.ndarray) -> str:
    lines = ["date,loss,total_pop,ratio,aplir,ffr,av_claims"]
    for j in range(N):
        lines.append(
            f"{DATES[j].isoformat()},{loss[j]:.6f},{cols['total_pop'][j]},"
            f"{cols['ratio'][j]:.6f},{cols['aplir'][j]:.4f},{cols['ffr'][j]:.4f},"
            f"{cols['av_claims'][j]}"
        )
    return "\n".join(lines) + "\n"


def measure(text: str) -> dict:
    """Run the frozen CSV through the package and collect tuning measurements."""
    frame = T.apply_transforms(T.parse_csv(text.encode()))
    design = T.build_design(frame)
    fit = T.fit_ols(design)
    s_meas = fit.sigma2_hat / fit.std_errors**2
    anova_year = T.one_way_anova(frame.loss, YEAR_LABELS, label="year")
    mean_path = design.X @ BETA_STAR
    ss_fit = float(np.sum((mean_path - mean_path.mean()) ** 2))
    return {
        "frame": frame,
        "design": design,
        "fit": fit,
        "s": s_meas,
        "p_year": anova_year.p_value,
        "f_year": anova_year.f_stat,
        "ss_fit": ss_fit,
        "mean_loss": float(np.mean(frame.loss)),
        "sd_loss": float(np.std(frame.loss, ddof=1)),
    }


def solve_r0(knobs: dict, w: dict, ge: np.ndarray) -> None:
    """Pick the sex-ratio level so mean(X @ beta) lands on the target mean loss."""
    for _ in range(3):
        cols = build_columns(knobs, w)
        X = design_from_columns(cols)
        gap = MEAN_LOSS - float((X @ BETA_STAR).mean())
        knobs["r0"] += gap / BETA_STAR[4]


def tune(knobs: dict, w: dict, ge: np.ndarray, iters: int = 80) -> dict:
    hist_lam: list[tuple[float, float]] = []
    m: dict = {}
    icent = I - I.mean()
    sxx = float(icent @ icent)
    ss_fit_t = SST_T / (1.0 + SSE_OVER_FIT)
    for it in range(iters):
        solve_r0(knobs, w, ge)
        cols = build_columns(knobs, w)
        X = design_from_columns(cols)
        loss = loss_from_design(X, ge)
        m = measure(csv_text(cols, loss))
        s = m["s"]

        # multiplicative knob updates toward the partial-SS targets
        damp = 0.8
        knobs["b_pop"] *= (s[1] / S_TARGET[1]) ** (0.5 * damp)
        knobs["eta_adj"] *= (S_TARGET[3] / s[3]) ** (0.5 * damp)
        knobs["eta_r"] *= (S_TARGET[4] / s[4]) ** (0.5 * damp)
        knobs["eta_a"] *= (S_TARGET[5] / s[5]) ** (0.5 * damp)
        knobs["k"] *= (S_TARGET[7] / s[7]) ** (0.25 * damp)

        # seasonality amplitude: secant toward the ANOVA p target in log space
        lp = math.log10(max(m["p_year"], 1e-300))
        hist_lam.append((knobs["lam"], lp))
        target_lp = math.log10(P_YEAR)
        if len(hist_lam) >= 2 and hist_lam[-1][1] != hist_lam[-2][1]:
            (l0, y0), (l1, y1) = hist_lam[-2], hist_lam[-1]
            step = (target_lp - y1) * (l1 - l0) / (y1 - y0)
            knobs["lam"] = float(np.clip(knobs["lam"] + 0.7 * step, 0.2, 6.0))
        else:
            knobs["lam"] *= 0.98 if lp > target_lp else 1.02

        # sex-ratio drift: the fitted-path variation splits into a net linear
        # slope plus everything else; solve for the slope that puts the total
        # on target and move the drift knob straight there
        mean_path = X @ BETA_STAR
        b_net = float(icent @ mean_path) / sxx
        ss_rest = m["ss_fit"] - b_net**2 * sxx
        want = max(ss_fit_t - ss_rest, 0.0)
        b_want = math.copysign(math.sqrt(want / sxx), b_net)
        knobs["r1"] += 0.8 * (b_want - b_net) / BETA_STAR[4]

        se_err = np.max(np.abs(m["fit"].std_errors / SE_TARGET - 1.0)[[1, 3, 4, 5, 7]])
        fit_err = abs(m["ss_fit"] / ss_fit_t - 1.0)
        p_err = abs(lp - target_lp)
        if it % 5 == 0 or (se_err < 0.004 and fit_err < 0.004 and p_err < 0.04):
            print(
                f"it={it:3d} se_err={se_err:.4f} ss_fit={m['ss_fit']:.4f} "
                f"p_year={m['p_year']:.3e} lam={knobs['lam']:.3f} k={knobs['k']:.4f}"
            )
        if se_err < 0.004 and fit_err < 0.004 and p_err < 0.04:
            break
    return m


def posterior_checks(m: dict) -> tuple[bool, dict]:
    frame, design, fit = m["frame"], m["design"], m["fit"]
    prior = T.default_prior(design)
    post = T.sample_posterior(design, fit, prior, 10_000, T.RandomSource(42))
    summaries = T.summarize_posterior(post, frame.loss)
    verdicts = T.combined_verdict(fit, summaries)

    sign_ok = all(
        math.copysign(1, s.median) == math.copysign(1, b)
        for s, b in zip(summaries, BETA_STAR)
    )
    zero_named = {"(Intercept)", "ExpClaims", "APLIR", "FFR"}
    zero_ok = all(s.pirope == 0.0 for s in summaries if s.name in zero_named)
    sig = {v.name for v in verdicts if v.combined == "significant"}
    set_ok = sig == {"APLIR", "FFR", "ExpClaims"}

    rope = T.rope_bounds(frame.loss)
    rope_ok = abs(rope[1] - 0.0387) <= 0.0005

    est_ok = np.max(np.abs(m["fit"].estimates / BETA_STAR - 1.0)) < 0.01
    adj_ok = abs(m["fit"].adj_r2 - ADJ_R2) <= 0.005
    p_exp_ok = m["fit"].p_values[7] <= 1e-12
    p_year_ok = 1e-7 <= m["p_year"] <= 5e-7

    ok = all([sign_ok, zero_ok, set_ok, rope_ok, est_ok, adj_ok, p_exp_ok, p_year_ok])
    detail = {
        "signs": sign_ok, "pirope_zero": zero_ok, "significant_set": sorted(sig),
        "rope": rope, "estimates_within_1pct": bool(est_ok),
        "adj_r2": m["fit"].adj_r2, "p_expclaims": m["fit"].p_values[7],
        "p_year": m["p_year"],
        "medians": {s.name: s.median for s in summaries},
        "pirope": {s.name: s.pirope for s in summaries},
    }
    return ok, detail


def freeze(m: dict, text: str) -> None:
    frame, design, fit = m["frame"], m["design"], m["fit"]
    diag = T.diagnostics(design, fit)
    anova_month = T.one_way_anova(frame.loss, [d.month for d in frame.dates], label="month")
    anova_year = T.one_way_anova(frame.loss, YEAR_LABELS, label="year")
    summ = {r.name: [r.mean, r.sd, r.median, r.min, r.max] for r in T.summarize(frame)}
    rope = T.rope_bounds(frame.loss)

    (REPO / "data").mkdir(exist_ok=True)
    (REPO / "data" / "loanloss_quarterly.csv").write_text(text)

    expect = {
        "names": list(fit.names),
        "estimates": fit.estimates.tolist(),
        "std_errors": fit.std_errors.tolist(),
        "t_stats": fit.t_stats.tolist(),
        "p_values": fit.p_values.tolist(),
        "sigma2_hat": fit.sigma2_hat,
        "r2": fit.r2,
        "adj_r2": fit.adj_r2,
        "df_resid": fit.df_resid,
        "rope": list(rope),
        "descriptive": summ,
        "anova_month": [anova_month.f_stat, anova_month.p_value],
        "anova_year": [anova_year.f_stat, anova_year.p_value],
        "dw_stat": diag.dw_stat,
        "bp_p": diag.bp_p,
        "jb_p": diag.jb_p,
        "vif": diag.vif,
    }
    (REPO / "tests" / "fixture_expect.json").write_text(json.dumps(expect, indent=2) + "\n")
    print("wrote data/loanloss_quarterly.csv and tests/fixture_expect.json")


def main() -> None:
    knobs = {
        "b_pop": 0.0039,
        "eta_adj": math.sqrt(S_TARGET[3]),
        "eta_r": math.sqrt(S_TARGET[4]),
        "eta_a": math.sqrt(S_TARGET[5]),
        "k": 0.10,
        "lam": 2.0,
        "r1": 2.2e-5,
        "r0": 0.9710,
    }
    for attempt in range(20):
        seed = 20260 + attempt
        w = make_wiggles(seed)
        ge = np.random.default_rng(seed + 500).standard_normal(N)
        print(f"--- attempt {attempt} (seed {seed}) ---")
        m = tune(knobs, w, ge)
        cols = build_columns(knobs, w)
        X = design_from_columns(cols)
        loss = loss_from_design(X, ge)
        text = csv_text(cols, loss)
        m = measure(text)
        ok, detail = posterior_checks(m)
        print(json.dumps({k: v for k, v in detail.items() if k != "medians"}, default=str, indent=2))
        if ok:
            freeze(m, text)
            print("final estimates:", np.round(m["fit"].estimates, 4).tolist())
            print("final std errors:", np.round(m["fit"].std_errors, 5).tolist())
            return
        print("checks failed; retrying with a new seed")
    raise SystemExit("no passing fixture found in 20 attempts")


if __name__ == "__main__":
    main()
