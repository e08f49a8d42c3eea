"""Acceptance checks for the whole pipeline, one numbered criterion per test.

Each test appends a single pass/fail line to the checklist that conftest
prints after the run.  Oracles are independent of the implementation:
normal-equations algebra, brute-force sums of squares, adaptive quadrature
of hand-written densities (normalized by ``oracles.ln_gamma``, not by the
``math.lgamma`` the tails use), and closed-form posterior calibration.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import streams
import twinreg as T
from oracles import f_density, ln_gamma, t_density

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "data" / "loanloss_quarterly.csv"
EXPECT = json.loads((ROOT / "tests" / "fixture_expect.json").read_text())

TABLE_ESTIMATES = np.array([-500.0, 0.106, -0.0810, -18.5, 577.0, -0.995, 0.967, 0.0551])
MEDIAN_SIGNS = (-1, 1, -1, -1, 1, -1, 1, 1)


def record(log, num, desc, ok, detail=""):
    line = f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  [{detail}]"
    log.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def frame():
    return T.apply_transforms(T.parse_csv(FIXTURE.read_bytes()))


@pytest.fixture(scope="module")
def fit(frame):
    return T.fit_ols(T.build_design(frame))


@pytest.fixture(scope="module")
def posterior(frame):
    design = T.build_design(frame)
    prior = T.default_prior(design)
    return T.sample_posterior(design, T.fit_ols(design), prior, 10_000, T.RandomSource(42))


@pytest.fixture(scope="module")
def summaries(posterior, frame):
    return T.summarize_posterior(posterior, frame.loss)


def test_criterion_1_fixture_reproduction(acceptance_log):
    t0 = time.perf_counter()
    frame = T.apply_transforms(T.parse_csv(FIXTURE.read_bytes()))
    fit = T.fit_ols(T.build_design(frame))
    elapsed = time.perf_counter() - t0

    close = np.max(np.abs(fit.estimates / TABLE_ESTIMATES - 1.0)) <= 0.01
    adj_ok = abs(fit.adj_r2 - 0.971) <= 0.005
    p_ok = fit.p_values[7] <= 1e-12
    fast = elapsed < 1.0

    # frozen-value reproduction: the committed CSV re-fits to the committed
    # numbers at 1e-8
    frozen = all(
        np.allclose(getattr(fit, key), EXPECT[key], rtol=1e-8, atol=1e-12)
        for key in ("estimates", "std_errors", "t_stats", "p_values")
    )
    frozen = frozen and np.allclose(
        [fit.sigma2_hat, fit.r2, fit.adj_r2],
        [EXPECT["sigma2_hat"], EXPECT["r2"], EXPECT["adj_r2"]],
        rtol=1e-8,
    )
    anova = T.anova_by_year(frame)
    frozen = frozen and np.allclose(
        [anova.f_stat, anova.p_value], EXPECT["anova_year"], rtol=1e-8
    )

    record(
        acceptance_log, 1, "fixture reproduction", close and adj_ok and p_ok and fast and frozen,
        f"close={close} adj={adj_ok} p={p_ok} fast={fast} frozen={frozen}",
    )


def test_criterion_2_significance_set(acceptance_log, fit, summaries):
    verdicts = T.combined_verdict(fit, summaries)
    sig = {v.name for v in verdicts if v.combined == "significant"}
    record(acceptance_log, 2, "significance set", sig == {"APLIR", "FFR", "ExpClaims"},
           f"got {sorted(sig)}")


def test_criterion_3_rope_bounds_and_rendering(acceptance_log, frame, fit, summaries):
    lo, hi = T.rope_bounds(frame.loss)
    band = abs(hi - 0.0387) <= 0.0005 and lo == -hi
    text = T.render_report(T.ReportSections(bayes=summaries), "text").decode()
    record(acceptance_log, 3, "rope bounds and rendering",
           band and "[-0.04, 0.04]" in text, f"hi={hi!r}")


def test_criterion_4_linear_algebra_oracles(acceptance_log):
    rng = np.random.default_rng(2024)
    worst_beta = worst_f = worst_vif = 0.0
    for _ in range(100):
        n = int(rng.integers(12, 51))
        p = int(rng.integers(2, 7))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        y = rng.normal(size=n)
        names = ("(Intercept)",) + tuple(f"x{j}" for j in range(1, p))
        d = T.DesignMatrix(X=X, y=y, names=names)
        fit = T.fit_ols(d)

        beta = np.linalg.solve(X.T @ X, X.T @ y)
        worst_beta = max(worst_beta, float(np.max(np.abs(fit.estimates - beta))))

        groups = list(rng.integers(0, 3, size=n))
        if len(set(groups)) >= 2 and n > len(set(groups)):
            res = T.one_way_anova(y, groups)
            grand = y.mean()
            ssb = ssw = 0.0
            for g in set(groups):
                sub = y[[gi == g for gi in groups]]
                ssb += len(sub) * (sub.mean() - grand) ** 2
                ssw += float(np.sum((sub - sub.mean()) ** 2))
            k = len(set(groups))
            f_ref = (ssb / (k - 1)) / (ssw / (n - k))
            worst_f = max(worst_f, abs(res.f_stat / f_ref - 1.0))

        if p >= 3:
            diag = T.diagnostics(d, fit)
            for j, name in enumerate(names[1:], start=1):
                others = np.delete(X, j, axis=1)
                coef = np.linalg.lstsq(others, X[:, j], rcond=None)[0]
                resid = X[:, j] - others @ coef
                sst = float(np.sum((X[:, j] - X[:, j].mean()) ** 2))
                vif_ref = 1.0 / (1.0 - (1.0 - float(resid @ resid) / sst))
                worst_vif = max(worst_vif, abs(diag.vif[name] / vif_ref - 1.0))

    ok = worst_beta <= 1e-8 and worst_f <= 1e-9 and worst_vif <= 1e-9
    record(acceptance_log, 4, "linear algebra oracles", ok,
           f"beta={worst_beta:.2e} F={worst_f:.2e} vif={worst_vif:.2e}")


def _chi2_density(df):
    c = 1.0 / (2 ** (df / 2) * math.exp(ln_gamma(df / 2)))
    return lambda u: c * u ** (df / 2 - 1) * math.exp(-u / 2)


def test_criterion_5_special_function_oracles(acceptance_log):
    anchor = T.student_t_sf2(15.2, 29)
    anchored = 2.3e-15 <= anchor <= 2.7e-15

    worst = 0.0
    points = 0
    for df in (3, 10, 29):
        for x in (0.5, 1.5, 2.5, 4.0, 6.0, 15.2):
            tail, _ = integrate.quad(t_density, x, np.inf, args=(df,), epsabs=1e-14, epsrel=1e-12)
            worst = max(worst, abs(T.student_t_sf2(x, df) - 2.0 * tail))
            points += 1
    for d1, d2 in ((1, 10), (3, 27), (9, 27), (5, 40)):
        for x in (0.5, 1.5, 3.0, 8.0):
            tail, _ = integrate.quad(
                f_density, x, np.inf, args=(d1, d2), epsabs=1e-14, epsrel=1e-12
            )
            worst = max(worst, abs(T.f_sf(x, d1, d2) - tail))
            points += 1
    for df in (1, 2, 5, 10):
        dens = _chi2_density(df)
        for x in (0.5, 2.0, 8.0, 20.0):
            tail, _ = integrate.quad(dens, x, np.inf, epsabs=1e-14, epsrel=1e-12)
            worst = max(worst, abs(T.chi2_sf(x, df) - tail))
            points += 1

    ok = anchored and worst <= 1e-10 and points == 50
    record(acceptance_log, 5, "special function oracles", ok,
           f"anchor={anchor:.4e} worst={worst:.2e} points={points}")


def test_criterion_6_flat_prior_coincidence(acceptance_log, frame, fit):
    design = T.build_design(frame)
    prior = T.default_prior(design, coef_sd=1e6)
    t0 = time.perf_counter()
    post = T.sample_posterior(design, fit, prior, 50_000, T.RandomSource(42))
    elapsed = time.perf_counter() - t0

    med = np.median(post.beta, axis=0)
    mc_se = post.beta.std(axis=0, ddof=1) * math.sqrt(math.pi / 2.0) / math.sqrt(50_000)
    z = np.abs(med - fit.estimates) / mc_se
    ok = bool(np.all(z < 2.0)) and elapsed < 10.0
    record(acceptance_log, 6, "flat prior coincidence", ok,
           f"max|z|={z.max():.2f} time={elapsed:.2f}s")


def test_criterion_7_property_suite(acceptance_log, frame, posterior):
    design = T.build_design(frame)

    # noiseless recovery through the production design matrix
    beta_true = np.array([1.0, 0.05, -0.1, 2.0, -30.0, 0.4, -0.2, 0.01])
    exact = T.DesignMatrix(X=design.X, y=design.X @ beta_true, names=design.names)
    rec = T.fit_ols(exact)
    recovery = bool(np.max(np.abs(rec.estimates - beta_true)) < 1e-8)

    # t statistics are invariant under column rescaling
    scaled = design.X.copy()
    scaled[:, 4] *= 1000.0
    fit_a = T.fit_ols(design)
    fit_b = T.fit_ols(T.DesignMatrix(X=scaled, y=design.y, names=design.names))
    equivariant = bool(np.allclose(fit_a.t_stats, fit_b.t_stats, rtol=1e-9))

    # widening the rope never lowers any parameter's pirope
    monotone = True
    for j in range(posterior.beta.shape[1]):
        col = posterior.beta[:, j]
        ci = T.credible_interval(col, 0.89)
        last = -1.0
        for w in np.linspace(0.0, 2.0, 9):
            val = T.pirope(col, ci, (-w, w))
            monotone = monotone and val >= last
            last = val

    # interval calibration: truth from a unit normal prior, one observation,
    # closed-form posterior N(x/2, 1/2); the 89% interval from sampled draws
    # must cover the truth at its nominal rate
    hits = 0
    reps = 1000
    for rep in range(reps):
        rng = np.random.default_rng(rep)
        truth = rng.standard_normal()
        x = truth + rng.standard_normal()
        rs = T.RandomSource(rep)
        draws = x / 2.0 + math.sqrt(0.5) * streams.normals(rs, 1000)
        lo, hi = T.credible_interval(draws, 0.89)
        hits += int(lo <= truth <= hi)
    coverage = hits / reps
    calibrated = abs(coverage - 0.89) <= 0.02

    # repeated CLI invocations are byte-identical
    shim = "import sys; from twinreg.cli import main; sys.exit(main(sys.argv[1:]))"
    args = [sys.executable, "-c", shim, "report", "--input", str(FIXTURE),
            "--draws", "2000", "--seed", "42", "--format", "json"]
    runs = [subprocess.run(args, capture_output=True) for _ in range(2)]
    identical = (
        runs[0].returncode == runs[1].returncode == 0
        and runs[0].stdout == runs[1].stdout
        and runs[0].stdout != b""
    )

    ok = recovery and equivariant and monotone and calibrated and identical
    record(
        acceptance_log, 7, "property suite", ok,
        f"recovery={recovery} equivariant={equivariant} monotone={monotone} "
        f"coverage={coverage:.3f} identical={identical}",
    )


def test_criterion_8_posterior_soft_targets(acceptance_log, summaries):
    signs_ok = all(
        math.copysign(1.0, s.median) == want
        for s, want in zip(summaries, MEDIAN_SIGNS)
    )
    zero_names = {"(Intercept)", "ExpClaims", "APLIR", "FFR"}
    zero_ok = all(s.pirope == 0.0 for s in summaries if s.name in zero_names)
    record(acceptance_log, 8, "posterior sign and zero-pirope targets",
           signs_ok and zero_ok,
           f"signs={signs_ok} pirope={[(s.name, s.pirope) for s in summaries]}")
