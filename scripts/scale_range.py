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
library, git, ``revision.py`` beside it and the numpy the trees import.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import tempfile
from pathlib import Path

from revision import REPO, run_cli, unpacked

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


def run_texts(root: Path, texts: list[str], chunk: int = 100):
    """[exit code, stdout, stderr] of each command as JSON on each CSV text, in
    order, one process per chunk of texts."""
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(0, len(texts), chunk):
            argvs = []
            for j, text in enumerate(texts[i : i + chunk]):
                path = Path(tmp) / f"scaled-{j}.csv"
                path.write_text(text)
                argvs += [[*a, "--input", str(path), "--format", "json"] for a in COMMANDS.values()]
            yield from run_cli(root, argvs)


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
    ref = list(run_texts(root, [text]))
    texts, keys = [], []
    for column in REPORT_NAME:
        for k in ks:
            scaled = scaled_text(text, column, k)
            if scaled is not None:
                texts.append(scaled)
                keys.append((column, k))
    runs = run_texts(root, texts)
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
        with unpacked(args.rev) as tree:
            report(args.rev, tree, ks, args.step)
    report("working tree", REPO, ks, args.step)
    return 0


if __name__ == "__main__":
    sys.exit(main())
