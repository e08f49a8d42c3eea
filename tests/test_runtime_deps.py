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
"""

import os
import subprocess
import sys
from pathlib import Path

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


def test_every_subcommand_runs_without_scipy(tmp_path):
    daily = tmp_path / "daily.csv"
    daily.write_text("date,value\n2011-03-01,2.0\n2011-03-15,\n2011-03-20,4.0\n")
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
