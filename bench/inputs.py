"""Seeded inputs: every file and argv the program sees comes from here.

The same ``--seed`` gives the same bytes.  The program receives only the
generated files and the argv lists, never the seed itself (the sampler's
``--seed`` values are derived from it).
"""

from __future__ import annotations

import datetime
import os
import random

import numpy as np

import checks

FIXTURE = os.path.join("data", "loanloss_quarterly.csv")
COLUMNS = ("date", "loss", "total_pop", "ratio", "aplir", "ffr", "av_claims")

# relative jitter (sd) and text format per numeric column
_JITTER = {
    "loss": (0.10, "{:.6f}"),
    "total_pop": (0.002, "{:.0f}"),
    "ratio": (1e-4, "{:.6f}"),
    "aplir": (0.02, "{:.4f}"),
    "ffr": (0.05, "{:.4f}"),
    "av_claims": (0.05, "{:.0f}"),
}
MIN_QUARTERS, MAX_QUARTERS = 37, 280
EMPTY_CELL_RATE = 0.03
POSTERIOR_DRAWS = 1_000_000


def derived_seed(seed: int, *salt) -> int:
    """A program ``--seed`` derived from the workload seed (and an op index)."""
    return random.Random(repr((seed,) + salt)).randrange(1, 2**31)


def read_fixture(root: str) -> list[dict[str, str]]:
    with open(os.path.join(root, FIXTURE), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line.strip()]


def _add_quarters(d: datetime.date, k: int) -> datetime.date:
    m = d.year * 12 + (d.month - 1) + 3 * k
    return datetime.date(m // 12, m % 12 + 1, 1)


def jittered_csv(fixture: list[dict[str, str]], rng: random.Random, n: int) -> bytes:
    """One quarterly CSV: n consecutive quarters, values jittered around the
    fixture rows (cycled), ~3% of rows with one empty cell, rows shuffled.

    Redrawn until the rows that survive the empty-cell rule give a full-rank
    design, so every generated file is one the program must fit.
    """
    while True:
        start = _add_quarters(datetime.date(2011, 4, 1), -rng.randint(0, 120))
        rows = []
        for i in range(n):
            base = fixture[i % len(fixture)]
            row = [_add_quarters(start, i).isoformat()]
            for col in COLUMNS[1:]:
                sd, fmt = _JITTER[col]
                row.append(fmt.format(abs(float(base[col]) * (1.0 + sd * rng.gauss(0.0, 1.0)))))
            if rng.random() < EMPTY_CELL_RATE:
                row[rng.randrange(len(row))] = ""
            rows.append(",".join(row))
        rng.shuffle(rows)
        text = ",".join(COLUMNS) + "\n" + "\n".join(rows) + "\n"
        X, _ = checks.design(checks.parse_rows(text))
        if np.linalg.matrix_rank(X) == X.shape[1] and np.isfinite(X).all():
            return text.encode("utf-8")


def freq_pool(root: str, seed: int, count: int, out_dir: str) -> list[str]:
    """Write ``count`` distinct seeded CSVs; return their paths (relative to root).

    Sizes are spread evenly over 37-280 quarters in a seeded order, so every
    seed asks for the same total work and the seeds differ only in values,
    empty cells and order.
    """
    fixture = read_fixture(root)
    rng = random.Random(seed)
    sizes = [MIN_QUARTERS + round(i * (MAX_QUARTERS - MIN_QUARTERS) / (count - 1)) for i in range(count)]
    rng.shuffle(sizes)
    os.makedirs(os.path.join(root, out_dir), exist_ok=True)
    paths = []
    for i, n in enumerate(sizes):
        rel = os.path.join(out_dir, f"q{i:04d}.csv")
        with open(os.path.join(root, rel), "wb") as fh:
            fh.write(jittered_csv(fixture, rng, n))
        paths.append(rel)
    return paths


def freq_argvs(path: str) -> list[list[str]]:
    """The five commands of one freq_batch op, on one CSV."""
    return [
        ["ols", "--input", path],
        ["ols", "--input", path, "--format", "json"],
        ["describe", "--input", path],
        ["anova", "--input", path],
        ["anova", "--input", path, "--group", "year"],
    ]


def cold_argvs(seed: int) -> list[list[str]]:
    """The cli_cold cycle: every subcommand in text and json, default draws."""
    s = str(derived_seed(seed))
    commands = [
        ["describe"],
        ["anova"],
        ["anova", "--group", "year"],
        ["ols"],
        ["bayes", "--seed", s],
        ["verdict", "--seed", s],
        ["report", "--seed", s],
    ]
    return [
        cmd + ["--input", FIXTURE] + (["--format", fmt] if fmt == "json" else [])
        for cmd in commands
        for fmt in ("text", "json")
    ]


def posterior_argv(seed: int, k: int) -> list[str]:
    """Op k of posterior_heavy: 1e6 draws, equal-tailed on even k, HDI on odd k."""
    argv = [
        "bayes", "--input", FIXTURE, "--draws", str(POSTERIOR_DRAWS),
        "--seed", str(derived_seed(seed, k)), "--format", "json",
    ]
    return argv + ["--hdi"] if k % 2 else argv
