"""How far the posterior output of this working tree is from another revision's.

Run from anywhere inside the repository:

    python3 scripts/stream_drift.py REV

REV is unpacked with ``git archive`` into a temporary directory.  Each tree
runs ``bayes``, ``report`` and ``verdict`` on this tree's fixture, as text and
as JSON, for seeds 1-6 and 42 x 1e4 and 1e6 draws x equal-tailed and
``--hdi`` intervals, all in one Python process per tree.  The script prints
the largest relative change of each JSON float over the grid, and whether
the exit codes, every PIROPE, every JSON value that is not a float (names,
verdicts, counts) and every text output are identical.  It uses only the
standard library, git, ``revision.py`` beside it and the numpy the two
trees import.
"""

from __future__ import annotations

import argparse
import json
import sys

from revision import REPO, run_cli, unpacked

FIXTURE = REPO / "data" / "loanloss_quarterly.csv"
COMMANDS = ("bayes", "report", "verdict")
SEEDS = ("1", "2", "3", "4", "5", "6", "42")
DRAWS = ("10000", "1000000")


def leaves(doc, path=""):
    """(path, value) for every scalar in a JSON document; list items by name."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            name = value.get("name") if isinstance(value, dict) else None
            yield from leaves(value, f"{path}[{name or i}]")
    else:
        yield path, doc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the git revision to compare with")
    args = ap.parse_args(argv)
    grid = [
        (cmd, fmt, seed, draws, hdi)
        for seed in SEEDS
        for draws in DRAWS
        for hdi in (False, True)
        for cmd in COMMANDS
        for fmt in ("text", "json")
    ]
    argvs = [
        [cmd, "--input", str(FIXTURE), "--format", fmt, "--seed", seed, "--draws", draws]
        + (["--hdi"] if hdi else [])
        for cmd, fmt, seed, draws, hdi in grid
    ]
    with unpacked(args.rev) as tree:
        old = run_cli(tree, argvs)
    new = run_cli(REPO, argvs)

    codes = sum(a[0] == b[0] for a, b in zip(old, new))
    texts = [a[1] == b[1] for (_, fmt, *_), a, b in zip(grid, old, new) if fmt == "text"]
    layouts, largest = [], {}
    piropes = same_piropes = others = same_others = 0
    for argv, (cmd, fmt, *_), a, b in zip(argvs, grid, old, new):
        if fmt != "json" or a[0] or b[0]:  # a failed run prints no JSON
            continue
        xs, ys = list(leaves(json.loads(a[1]))), list(leaves(json.loads(b[1])))
        if [path for path, _ in xs] != [path for path, _ in ys]:
            layouts.append(" ".join(argv))
            continue
        for (path, x), (_, y) in zip(xs, ys):
            if path.endswith(".pirope"):
                piropes += 1
                same_piropes += x == y
            if isinstance(x, float) and isinstance(y, float):
                rel = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
                key = f"{cmd}: {path}"
                largest[key] = max(largest.get(key, 0.0), rel)
            else:
                others += 1
                same_others += x == y
    print(
        f"{args.rev} against the working tree: seeds {','.join(SEEDS)},"
        f" draws {','.join(DRAWS)}, equal-tailed and --hdi,"
        f" {' '.join(COMMANDS)} as text and JSON: {len(grid)} runs a tree"
    )
    print(f"exit codes identical: {codes} of {len(grid)}")
    for argv in layouts:
        print(f"JSON layout differs: {argv}")
    print(f"text outputs byte-identical: {sum(texts)} of {len(texts)}")
    for cmd in COMMANDS:
        same = [a[1] == b[1] for g, a, b in zip(grid, old, new) if g[:2] == (cmd, "json")]
        print(f"{cmd} JSON outputs byte-identical: {sum(same)} of {len(same)}")
    print(f"JSON values that are not floats identical: {same_others} of {others}")
    print(f"PIROPE identical: {same_piropes} of {piropes}")
    moved = {k: v for k, v in largest.items() if v}
    print(
        f"JSON floats changed: {len(moved)} of {len(largest)};"
        f" largest relative change {max(largest.values(), default=0.0):.3g}"
    )
    for key in sorted(moved):
        print(f"  {moved[key]:.3g}  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
