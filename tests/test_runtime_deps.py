"""numpy is the only runtime dependency: every subcommand runs with scipy refused.

The check runs in a fresh interpreter so that scipy modules imported by other
test files cannot leak in, and installs an import hook that raises on any
``scipy`` import before ``twinreg`` is loaded.  The same run checks that
no subcommand pulls in ``numpy.ma``, which ``np.median`` and ``np.quantile``
import on first use (~18 ms of every cold run), or ``concurrent.futures``,
whose import pulls in ``logging`` (~10 ms), or ``numpy.random``, whose
import pulls in ``secrets`` and ``_hashlib`` (~6 MB of peak RSS).
At the default 10k draws no subcommand starts a thread: only large draws and
sorts are spread over CPUs.

``describe``, ``anova`` and ``aggregate`` run on Python floats alone: a cold
``python -m twinreg.cli`` of each imports no numpy, and ``import twinreg``
resolves its public names only when they are first used.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import twinreg
from twinreg import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "data" / "loanloss_quarterly.csv"

GUARDED_RUN = r"""
import contextlib, io, sys, threading

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError(f"scipy import refused: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())

started = []
_start = threading.Thread.start
def counted_start(thread):
    started.append(thread)
    _start(thread)
threading.Thread.start = counted_start

from twinreg.cli import main

fixture, daily = sys.argv[1:3]
runs = [
    ["describe"], ["anova"], ["anova", "--group", "year"], ["ols"],
    ["bayes", "--draws", "2000"], ["bayes", "--draws", "2000", "--hdi"],
    ["verdict", "--draws", "2000"], ["report", "--draws", "2000"],
    ["bayes"], ["report"],
]
for fmt in ("text", "json"):
    argvs = [[*r, "--input", fixture] for r in runs]
    argvs.append(["aggregate", "--input", daily, "--quarter-start", "2011-04-01"])
    for argv in argvs:
        sink = io.TextIOWrapper(io.BytesIO())
        with contextlib.redirect_stdout(sink):
            code = main([*argv, "--format", fmt])
        assert code == 0, (argv, fmt, code)
        assert sink.buffer.getvalue(), (argv, fmt)

loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
masked = sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"])
assert not masked, masked
pooled = sorted(m for m in sys.modules if m.startswith("concurrent"))
assert not pooled, pooled
seeded = sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "random"])
assert not seeded, seeded
assert not started, started
print("ok")
"""


@pytest.fixture
def daily(tmp_path):
    path = tmp_path / "daily.csv"
    path.write_text("date,value\n2011-03-01,2.0\n2011-03-15,\n2011-03-20,4.0\n")
    return path


def python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports twinreg from this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


def test_every_subcommand_runs_without_scipy(daily):
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", GUARDED_RUN, str(FIXTURE), str(daily)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
    assert proc.stderr == ""


def numpy_free_argvs(daily):
    for fmt in ("text", "json"):
        for run in (["describe"], ["anova"], ["anova", "--group", "year"]):
            yield [*run, "--input", str(FIXTURE), "--format", fmt]
        yield ["aggregate", "--input", str(daily), "--quarter-start", "2011-04-01", "--format", fmt]


def test_describe_anova_and_aggregate_run_without_numpy(daily, capsysbinary):
    for argv in numpy_free_argvs(daily):
        # -X importtime writes one stderr line per module the run imports
        proc = python("-X", "importtime", "-m", "twinreg.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.decode().splitlines()
        assert all(line.startswith("import time:") for line in lines), lines
        imported = {line.rsplit("|", 1)[1].strip() for line in lines}
        assert "twinreg.describe" in imported
        assert not {m for m in imported if m.split(".")[0] == "numpy"}, argv
        assert cli.main(argv) == 0
        assert proc.stdout == capsysbinary.readouterr().out, argv


def test_import_twinreg_loads_no_numpy():
    check = "import sys, twinreg; twinreg.summarize, twinreg.f_sf; print('numpy' in sys.modules)"
    assert python("-c", check).stdout == b"False\n"


def test_public_names_resolve_lazily_to_their_modules_objects():
    assert len(twinreg.__all__) == len(set(twinreg.__all__)) == 43
    listed = dir(twinreg)
    for name in twinreg.__all__:
        obj = getattr(twinreg, name)
        assert obj.__module__.startswith("twinreg.") and name in listed
        assert obj is getattr(sys.modules[obj.__module__], name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        twinreg.no_such_name  # noqa: B018
    from twinreg import floats, ols  # submodules, not names of the table

    assert isinstance(ols, ModuleType) and isinstance(floats, ModuleType)
