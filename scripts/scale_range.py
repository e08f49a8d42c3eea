"""Over which powers of two the fixture, with one column scaled, gives the same answers.

Run from anywhere inside the repository:

    python3 scripts/scale_range.py [REV] [--step S]

For the loss and for each regressor column that scales (``total_pop``,
``ratio``, ``aplir``, ``ffr``), the fixture's column is multiplied by 2**k for
every k from -1074 to 1023 (every S-th k with ``--step``).  A k is skipped
when the scaled column, or the design column made from it, does not scale
back exactly.  Each command (``describe``, ``anova`` by month and by year,
``ols``, and ``bayes`` and ``verdict`` at 1000 draws) runs as JSON on each
scaled file, and its output is compared with the fixture's own by the rule
of ``tests/scaling.py``: the numbers in the scaled column's units scale by
exactly 2**k, the rest stay bit for bit, and a scaled regressor's PIROPE,
with the verdict built on it, is not compared.

For each column and command the script prints the k reproduced exactly, the
refused k grouped by message, and every k that answered with different
numbers.  With REV it prints the same for that revision, unpacked with
``git archive`` into a temporary directory.  It uses only the standard
library, git and the numpy the trees import.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))
from scaling import REPORT_NAME, same_report, scaled_text  # noqa: E402  (the tests' own rule)

FIXTURE = REPO / "data" / "loanloss_quarterly.csv"
COMMANDS = {
    "describe": ["describe"],
    "anova month": ["anova"],
    "anova year": ["anova", "--group", "year"],
    "ols": ["ols"],
    "bayes": ["bayes", "--draws", "1000"],
    "verdict": ["verdict", "--draws", "1000"],
}

# run with one tree's src on PYTHONPATH: reads [csv path, [[argv, ...] per
# file]] on stdin, where each file's scaled text comes first, and writes
# [exit code, stdout, stderr] for each run, all made by one process
RUNNER = """
import contextlib, io, json, sys
from twinreg.cli import main
path, files = json.load(sys.stdin)
runs = []
for text, argvs in files:
    with open(path, "w") as fh:
        fh.write(text)
    for argv in argvs:
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--input", path, "--format", "json"])
        out.flush()
        runs.append([code, out.buffer.getvalue().decode(), err.getvalue()])
json.dump(runs, sys.stdout)
"""

def run_tree(root: Path, files: list, chunk: int = 100):
    """[exit code, stdout, stderr] of each run, one process per chunk of files."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(0, len(files), chunk):
            done = subprocess.run(
                [sys.executable, "-c", RUNNER],
                input=json.dumps([str(Path(tmp) / "scaled.csv"), files[i : i + chunk]]),
                capture_output=True,
                text=True,
                cwd=root,
                env=env,
                check=True,
            )
            yield from json.loads(done.stdout)


def spans(ks: list[int], step: int) -> str:
    """Sorted k as intervals of consecutive grid points: '[-505, 510]'."""
    if not ks:
        return "none"
    out, start = [], ks[0]
    for a, b in zip(ks, ks[1:] + [None]):
        if b != a + step:
            out.append(f"[{start}, {a}]" if start != a else f"{a}")
            start = b
    return ", ".join(out)


def report(title: str, root: Path, ks: list[int], step: int) -> None:
    text = FIXTURE.read_text()
    ref = list(run_tree(root, [[text, list(COMMANDS.values())]]))
    files, keys = [], []
    for column in REPORT_NAME:
        for k in ks:
            scaled = scaled_text(text, column, k)
            if scaled is not None:
                files.append([scaled, list(COMMANDS.values())])
                keys.append((column, k))
    runs = run_tree(root, files)
    results = {}  # (column, command) -> {k: "same" | "differs" | refusal message}
    for column, k in keys:
        for (command, _), (_, ref_out, _) in zip(COMMANDS.items(), ref):
            code, out, err = next(runs)
            if code:
                result = err.strip()
            else:
                same = same_report(json.loads(out), json.loads(ref_out), REPORT_NAME[column], k)
                result = "same" if same else "differs"
            results.setdefault((column, command), {})[k] = result
    print(f"== {title}: k from {ks[0]} to {ks[-1]}, step {step} ==")
    for column in REPORT_NAME:
        skipped = [k for k in ks if k not in results.get((column, "describe"), {})]
        print(f"{column}: {len(skipped)} k skipped, not exact in the input: {spans(skipped, step)}")
        for command in COMMANDS:
            got = results.get((column, command), {})
            same = [k for k, r in got.items() if r == "same"]
            print(f"  {column} {command}: exact for k in {spans(same, step)}")
            refusals = {}
            for k, r in got.items():
                if r not in ("same", "differs"):
                    # group by the message with its numbers left out
                    key = re.sub(r"-?\d+(\.\d+)?(e-?\d+)?", "#", r)
                    refusals.setdefault(key, []).append((k, r))
            for group in refusals.values():
                print(f"    refused for k in {spans([k for k, _ in group], step)}: {group[0][1]}")
            differs = [k for k, r in got.items() if r == "differs"]
            if differs:
                print(f"    DIFFERENT numbers for k = {', '.join(map(str, differs))}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="a git revision to report as well")
    ap.add_argument("--step", type=int, default=1, help="take every STEP-th k (default 1)")
    args = ap.parse_args(argv)
    ks = list(range(-1074, 1024, args.step))
    if args.rev:
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", args.rev], capture_output=True, check=True
        ).stdout
        with tempfile.TemporaryDirectory() as tmp:
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(tmp, filter="data")
            report(args.rev, Path(tmp), ks, args.step)
    report("working tree", REPO, ks, args.step)
    return 0


if __name__ == "__main__":
    sys.exit(main())
