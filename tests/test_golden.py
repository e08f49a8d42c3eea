"""Seed-42 stdout of every fixture subcommand, byte for byte.

Each ``tests/golden/<case>_<format>.out`` holds the stdout of
``twinreg <argv> --input data/loanloss_quarterly.csv --format <format>``
at the default seed and draw count.  A change to any of these bytes is a
stream change and has to be declared in CHANGES.md along with the new file.
"""

from itertools import chain, zip_longest
from pathlib import Path

import pytest

from twinreg import data
from twinreg.cli import main

ROOT = Path(__file__).resolve().parent
FIXTURE = str(ROOT.parent / "data" / "loanloss_quarterly.csv")

CASES = {
    "describe": ["describe"],
    "anova": ["anova"],
    "anova_year": ["anova", "--group", "year"],
    "ols": ["ols"],
    "bayes": ["bayes"],
    "bayes_hdi": ["bayes", "--hdi"],
    "verdict": ["verdict"],
    "report": ["report"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_stdout_matches_golden(case, fmt, capfdbinary):
    code = main([*CASES[case], "--input", FIXTURE, "--format", fmt])
    cap = capfdbinary.readouterr()
    assert (code, cap.err) == (0, b"")
    assert cap.out == (ROOT / "golden" / f"{case}_{fmt}.out").read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_each_case_twice_parses_once(case, fmt, capfdbinary, monkeypatch):
    parsed = []
    parse_csv = data.parse_csv
    monkeypatch.setattr(data, "_last_loaded", None)
    monkeypatch.setattr(data, "parse_csv", lambda raw: parsed.append(1) or parse_csv(raw))
    golden = (ROOT / "golden" / f"{case}_{fmt}.out").read_bytes()
    for _ in range(2):
        assert main([*CASES[case], "--input", FIXTURE, "--format", fmt]) == 0
        assert capfdbinary.readouterr() == (golden, b"")
    assert len(parsed) == 1


def test_one_process_runs_errors_then_every_case(tmp_path, capfdbinary):
    # a usage error and a parse error leave nothing behind for the next call
    assert main(["bayes", "--input", FIXTURE, "--draws", "500"]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("date,loss,total_pop,ratio,aplir,ffr,av_claims\n2011-04-01,x,1,1,1,1,1\n")
    assert main(["describe", "--input", str(bad)]) == 1
    err = capfdbinary.readouterr().err.decode()
    assert err.splitlines()[-1] == "parse error: line 2: non-numeric loss field 'x'"
    for case, fmt in reversed([(c, f) for c in CASES for f in ("text", "json")]):
        code = main([*CASES[case], "--input", FIXTURE, "--format", fmt])
        cap = capfdbinary.readouterr()
        assert (code, cap.err) == (0, b""), (case, fmt)
        assert cap.out == (ROOT / "golden" / f"{case}_{fmt}.out").read_bytes(), (case, fmt)


def test_one_process_prints_what_fresh_runs_print(tmp_path, capfdbinary, monkeypatch):
    good = Path(FIXTURE).read_text()
    header, first, *rest = good.splitlines(keepends=True)
    rewrite = first.replace(",0.", ",9.", 1)  # the same length, so only the bytes differ
    assert rewrite != first and len(rewrite) == len(first)
    rows = [line.split(",") for line in (first, *rest)]
    singular = "".join([header, *(",".join([*f[:5], f[4], f[6]]) for f in rows)])  # FFR = APLIR
    vif = [[c, "--vif-cutoff", v] for c in ("ols", "report") for v in ("-0", "0", "5", "inf")]
    on_good = [(good, [*CASES[c], "--format", f]) for c in CASES for f in ("text", "json")]
    on_good += [(good, argv) for argv in vif]
    edited = header + rewrite + "".join(rest)
    on_edited = [(edited, a) for a in (["ols"], ["ols", "--format", "json"], ["describe"], vif[4])]
    on_singular = [(singular, ["ols"]), (singular, ["report", "--format", "json"])]
    # one step of each input in turn, so every singular step sits between good ones
    steps = [s for s in chain.from_iterable(zip_longest(on_good, on_edited, on_singular)) if s]
    path = tmp_path / "input.csv"

    def run(content, argv):
        path.write_text(content)
        code = main([*argv, "--input", str(path)])
        return (code, *capfdbinary.readouterr())

    fresh = {}
    for content, argv in steps:
        monkeypatch.setattr(data, "_last_loaded", None)
        fresh[content, tuple(argv)] = run(content, argv)
    assert fresh[singular, ("ols",)][2].startswith(b"singular design: ")
    for content, argv in steps + steps[::-1] + [s for s in steps for _ in (0, 1)]:
        assert run(content, argv) == fresh[content, tuple(argv)], argv
